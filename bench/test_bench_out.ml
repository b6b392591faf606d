(* The bench driver writes its perf trajectory record only when
   --bench-out names a file, so a plain run can never overwrite the
   committed BENCH_prN.json records in the working directory. Each case
   runs the driver on the fast table2 campaign inside a fresh directory
   and inspects what it left there. *)

let main_exe = Filename.concat (Sys.getcwd ()) "main.exe"

let with_temp_dir f =
  let dir = Filename.temp_dir "bench_out" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let bench_status dir args =
  Sys.command
    (Printf.sprintf "cd %s && %s table2 %s > /dev/null 2>&1" (Filename.quote dir)
       (Filename.quote main_exe)
       (String.concat " " (List.map Filename.quote args)))

let run_bench dir args =
  Alcotest.(check int) "bench exit status" 0 (bench_status dir args)

let test_no_record_by_default () =
  with_temp_dir @@ fun dir ->
  run_bench dir [];
  Alcotest.(check (list string)) "no file written" [] (Array.to_list (Sys.readdir dir))

let test_record_with_bench_out () =
  with_temp_dir @@ fun dir ->
  run_bench dir [ "--bench-out"; "out.json" ];
  Alcotest.(check (list string)) "only the named file" [ "out.json" ]
    (Array.to_list (Sys.readdir dir));
  match Util.Benchfile.read (Filename.concat dir "out.json") with
  | Ok t ->
    Alcotest.(check (list string)) "records the campaign" [ "table2" ]
      (List.map (fun (c : Util.Benchfile.campaign) -> c.Util.Benchfile.name)
         t.Util.Benchfile.campaigns)
  | Error e -> Alcotest.failf "record does not read back: %s" e

(* a shard's rows only reach a later merge through the record *)
let test_shard_needs_bench_out () =
  with_temp_dir @@ fun dir ->
  Alcotest.(check bool) "rejected" true (bench_status dir [ "--shard"; "0/2" ] <> 0);
  Alcotest.(check (list string)) "no file written" [] (Array.to_list (Sys.readdir dir))

let () =
  Alcotest.run "bench"
    [
      ( "bench-out",
        [
          Alcotest.test_case "no record without --bench-out" `Quick
            test_no_record_by_default;
          Alcotest.test_case "--bench-out FILE writes FILE" `Quick
            test_record_with_bench_out;
          Alcotest.test_case "--shard without --bench-out is rejected" `Quick
            test_shard_needs_bench_out;
        ] );
    ]
