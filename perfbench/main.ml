(* The repository benchmark: one seeded workload per run.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --make-reference --workload NAME

   Prints a summary, then as its last stdout line one JSON object with
   the end-to-end metrics (--trace 0) or the per-layer metrics
   (--trace 1). See perfbench/README.md. *)

open Perfbench

let workload = ref ""
let seed = ref 1
let seconds = ref 20.0
let trace = ref 0
let make_reference = ref false
let reference_dir = "perfbench/reference"
let out_dir = ".perfbench"

let specs =
  [
    ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" Workloads.names);
    ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
    ("--seconds", Arg.Set_float seconds, "S time budget of the timed phase");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ("--make-reference", Arg.Set make_reference, " regenerate the workload's reference file");
  ]

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let summary (module W : Suite.S) (p : Phases.phase) =
  Printf.printf
    "%s seed %d: %d rounds x %d passes, %d runs (%s), %d ops per pass (%s), %d failed \
     (failed_ratio %g)\n"
    W.name !seed p.Phases.rounds p.passes p.attempted W.run_name (Phases.ops p) W.op_name
    p.failed
    (Phases.ratio (float_of_int p.failed) (float_of_int p.attempted));
  List.iter (fun m -> Printf.printf "  mismatch %s\n" m) (List.rev p.mismatches);
  let walls xs = String.concat " " (List.map (Printf.sprintf "%.3f") xs) in
  Printf.printf "  round walls, scaled to the reference machine (s): %s\n" (walls (Phases.round_walls p));
  Printf.printf "  round walls, fastest unscaled (s): %s\n"
    (walls (Array.to_list (Array.map (Array.fold_left ( +. ) 0.0) p.raw_best)));
  Printf.printf "  probe slowdown per pass: %s\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") p.slowdowns)));
  Printf.printf "  run_p90_ms is the p%d of the %d cells' times\n" (Phases.tail_percentile p)
    (Array.length (Phases.run_times p))

let print_metrics metrics =
  List.iter
    (fun x -> Printf.printf "  %-28s %16.6f %s\n" x.Phases.name x.value x.unit_)
    metrics

let untraced (module W : Suite.S) expected =
  let module R = Phases.Run (W) in
  let images, setup_s = R.repeated_setup ~seed:!seed in
  let p =
    let rounds, passes = R.plan !seconds in
    R.run_rounds images expected ~seed:!seed ~rounds ~passes
  in
  summary (module W) p;
  let metrics = Phases.end_to_end ~setup_s ~phase:p in
  print_metrics metrics;
  (p.attempted, p.failed, metrics)

(* Untraced rounds for half the time, then the same rounds again with
   spans on, so the overhead compares identical work. *)
let traced (module W : Suite.S) expected =
  let module R = Phases.Run (W) in
  let images = R.setup ~seed:!seed in
  let untraced =
    let rounds, passes = R.plan (!seconds /. 2.0) in
    R.run_rounds images expected ~seed:!seed ~rounds ~passes
  in
  let untraced_cycles = !Tally.guest_cycles in
  Tally.reset ();
  Span.reset ();
  Span.enabled := true;
  let images = R.setup ~seed:!seed in
  let p =
    R.run_rounds images expected ~seed:!seed ~rounds:untraced.Phases.rounds
      ~passes:untraced.Phases.passes
  in
  Span.enabled := false;
  summary (module W) p;
  let metrics = Phases.per_layer ~untraced ~untraced_cycles ~traced:p in
  print_metrics metrics;
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat out_dir (Printf.sprintf "%s-seed%d.spans.jsonl" W.name !seed) in
  Span.write path;
  Printf.printf "  spans written to %s\n" path;
  (untraced.attempted + p.attempted, untraced.failed + p.failed, metrics)

let () =
  Arg.parse specs (fun a -> fail "unexpected argument %S" a) "perfbench [options]";
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None -> fail "unknown workload %S (have: %s)" !workload (String.concat ", " Workloads.names)
  in
  let (module W : Suite.S) = w in
  if !make_reference then Phases.write_reference ~dir:reference_dir w
  else begin
    let expected =
      try Phases.read_reference ~dir:reference_dir W.name
      with Sys_error e -> fail "no reference results: %s" e
    in
    let attempted, failed, metrics =
      match !trace with
      | 0 -> untraced w expected
      | 1 -> traced w expected
      | n -> fail "--trace takes 0 or 1, not %d" n
    in
    print_endline (Phases.json ~correct:(failed = 0 && attempted > 0) ~attempted ~failed metrics)
  end
