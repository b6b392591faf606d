(* The benchmark's own checks: the universe matches the committed
   reference, rounds are seeded and sized alike, and the same cells run
   twice give identical results and identical registry counts. *)

open Perfbench

(* Recorded for verifying later performance claims: never used while
   tuning the benchmark or a change measured with it. *)
let held_out_seed = 9001

(* A few cheap cells per workload, so the suite stays fast. *)
let samples =
  [
    ("spec-exec", [ "gobmk native k0"; "h264ref instr/dynaguard-pin k3"; "mcf instr/pssp-dynamic k1" ]);
    ("brop-attack", [ "ssp 16 magic no-respawn k3"; "pssp 32 net zygote k1"; "wasm-ssp 16 net cold k2" ]);
    ("web-load", [ "event native l5"; "reuseport compiler/pssp l2" ]);
  ]

module Check (W : Suite.S) = struct
  let reference () = Phases.read_reference ~dir:"reference" W.name
  let keys cells = List.map W.key cells

  let test_universe () =
    let expected = reference () in
    let ks = keys W.universe in
    Alcotest.(check int) "keys unique" (List.length ks) (List.length (List.sort_uniq compare ks));
    Alcotest.(check int) "one reference per cell" (List.length ks) (Hashtbl.length expected);
    List.iter (fun k -> Alcotest.(check bool) ("referenced: " ^ k) true (Hashtbl.mem expected k)) ks

  let test_rounds () =
    let r seed i = keys (W.round ~seed i) in
    Alcotest.(check (list string)) "same seed, same round" (r 1 0) (r 1 0);
    Alcotest.(check bool) "held-out seed draws other inputs" false (r 1 0 = r held_out_seed 0);
    Alcotest.(check bool) "next round draws other inputs" false (r 1 0 = r 1 1);
    let size = List.length (r 1 0) in
    List.iter
      (fun (seed, i) -> Alcotest.(check int) "same size" size (List.length (r seed i)))
      [ (held_out_seed, 0); (1, 1); (7, 3) ];
    let universe = keys W.universe in
    List.iter
      (fun k -> Alcotest.(check bool) ("in universe: " ^ k) true (List.mem k universe))
      (r held_out_seed 2)

  (* Run the sample cells on a fresh registry; return results and counts. *)
  let run_samples names =
    Telemetry.Registry.reset_all ();
    let cells = List.filter (fun c -> List.mem (W.key c) names) W.universe in
    Alcotest.(check int) "sample cells exist" (List.length names) (List.length cells);
    let images = W.build () in
    let results = List.map (fun c -> (W.exec (W.boot images c)).Suite.result) cells in
    (cells, results, Telemetry.Registry.snapshot ())

  let test_deterministic names () =
    let cells, first, counts = run_samples names in
    let _, second, counts' = run_samples names in
    Alcotest.(check (list string)) "results repeat" first second;
    Alcotest.(check (list (pair string int))) "registry counts repeat" counts counts';
    let expected = reference () in
    List.iter2
      (fun c got ->
        Alcotest.(check string) ("matches reference: " ^ W.key c) (Hashtbl.find expected (W.key c)) got)
      cells first

  let tests names =
    [
      Alcotest.test_case "universe referenced" `Quick test_universe;
      Alcotest.test_case "seeded rounds" `Quick test_rounds;
      Alcotest.test_case "deterministic" `Quick (test_deterministic names);
    ]
end

(* The benchmark's copy of Runner's pump and build reaches the same
   result as Runner.run_load itself, on the compiled tier. *)
let test_web_replica () =
  let cell = List.find (fun c -> Web_load.key c = "fork compiler/pssp l4") Web_load.universe in
  let images = Web_load.build () in
  let got = (Web_load.exec (Web_load.boot images cell)).Suite.result in
  Alcotest.(check string) "pump replica = Runner.run_load" (Web_load.reference cell) got

let () =
  Alcotest.run "perfbench"
    (List.map
       (fun (module W : Suite.S) ->
         let module C = Check (W) in
         (W.name, C.tests (List.assoc W.name samples)))
       Workloads.all
    @ [ ("web-load replica", [ Alcotest.test_case "matches Runner" `Quick test_web_replica ]) ])
