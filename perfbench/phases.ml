(* Phases of a benchmark run: set-up, timed rounds, reference check,
   and the metrics computed from them. *)

let now = Unix.gettimeofday
let median xs = Util.Stats.median (Array.of_list xs)
let sum xs = List.fold_left ( +. ) 0.0 xs

(* ---- reference results ---------------------------------------------------- *)

let reference_path ~dir name = Filename.concat dir (name ^ ".ref")

(* One "key<TAB>result" line per universe cell. *)
let read_reference ~dir name =
  let table = Hashtbl.create 512 in
  let ic = open_in (reference_path ~dir name) in
  (try
     while true do
       let line = input_line ic in
       match String.index_opt line '\t' with
       | Some i ->
         Hashtbl.replace table (String.sub line 0 i)
           (String.sub line (i + 1) (String.length line - i - 1))
       | None -> ()
     done
   with End_of_file -> ());
  close_in ic;
  table

(* References come from the interpreter tier, the independent oracle,
   never from the compiled tier a run measures. *)
let write_reference ~dir (module W : Suite.S) =
  let tier = Vm64.Compile.tier () in
  Vm64.Compile.set_tier 0;
  let oc = open_out (reference_path ~dir W.name) in
  List.iteri
    (fun i cell ->
      Printf.fprintf oc "%s\t%s\n%!" (W.key cell) (W.reference cell);
      Printf.eprintf "\r%s: %d/%d%!" W.name (i + 1) (List.length W.universe))
    W.universe;
  prerr_newline ();
  close_out oc;
  Vm64.Compile.set_tier tier

(* ---- phases --------------------------------------------------------------- *)

(* Every cell of a run is executed in several passes, the passes a whole
   run's rounds apart. Next to each [exec] the benchmark samples the
   host-speed probe ([Probe]); each pass's times are divided by the
   slowdown the probe measured during that pass, which puts them at the
   reference machine's speed. A shared machine only ever slows an
   [exec] down, so a cell's time is the fastest of its scaled passes;
   the metrics are computed from these. *)
type phase = {
  rounds : int;
  passes : int;
  scaled : float array array array;  (** [pass].(round).(i): scaled [exec] seconds of cell i *)
  raw_best : float array array;  (** [round].(i): fastest unscaled [exec] seconds of cell i *)
  slowdowns : float array;  (** the probe's slowdown in each pass *)
  round_ops : int array;  (** ops of one pass over each round *)
  mutable attempted : int;  (** executions, all passes *)
  mutable failed : int;
  mutable mismatches : string list;
  mutable counts : (string * int) list;  (** registry counts summed over rounds *)
}

module Run (W : Suite.S) = struct
  (* Build every image, then boot each victim or server of round 0 once. *)
  let setup ~seed =
    Span.with_ "bench.setup" (fun () ->
        let images = W.build () in
        List.iter (fun cell -> ignore (W.boot images cell)) (W.round ~seed 0);
        images)

  (* The median of [setups] set-ups, so that even a set-up of a few
     milliseconds reads steadily, scaled by the probe's slowdown over
     them. A fixed count, not a time, so that the heap a run leaves, and
     with it [peak_rss_mb], does not depend on the machine's speed. *)
  let setups = 25

  let repeated_setup ~seed =
    let probe = Probe.create () in
    let times =
      List.init setups (fun _ ->
          Probe.sample probe;
          let t0 = now () in
          ignore (setup ~seed);
          now () -. t0)
    in
    (setup ~seed, median times /. Probe.slowdown probe)

  let exec_checked expected booted cell =
    let outcome =
      try W.exec booted
      with e -> { Suite.result = "raised " ^ Printexc.to_string e; ops = 0 }
    in
    match Hashtbl.find_opt expected (W.key cell) with
    | Some want when String.equal want outcome.Suite.result -> (outcome, None)
    | want ->
      ( outcome,
        Some
          (Printf.sprintf "%s: got %S, reference %s" (W.key cell) outcome.Suite.result
             (match want with Some w -> Printf.sprintf "%S" w | None -> "missing")) )

  (* Run rounds 0 .. [rounds]-1, [passes] times over. Boots are not
     timed; each [exec] is. The registry is reset at the start of every
     round and its counts summed, as [Harness.Campaign] does per shard,
     so that no round carries the telemetry records of the ones before
     it. *)
  let run_rounds images expected ~seed ~rounds ~passes =
    let cells = Array.init rounds (fun r -> Array.of_list (W.round ~seed r)) in
    let p =
      {
        rounds;
        passes;
        scaled = Array.init passes (fun _ -> Array.map (fun c -> Array.make (Array.length c) 0.0) cells);
        raw_best = Array.map (fun c -> Array.make (Array.length c) infinity) cells;
        slowdowns = Array.make passes 1.0;
        round_ops = Array.make rounds 0;
        attempted = 0;
        failed = 0;
        mismatches = [];
        counts = [];
      }
    in
    for pass = 0 to passes - 1 do
      let probe = Probe.create () in
      Array.iteri
        (fun r round ->
          Telemetry.Registry.reset_all ();
          let ops = ref 0 in
          Span.with_ "bench.round" (fun () ->
              Array.iteri
                (fun i cell ->
                  let booted = W.boot images cell in
                  Probe.sample probe;
                  let start = now () in
                  let outcome, mismatch = exec_checked expected booted cell in
                  let t = now () -. start in
                  p.scaled.(pass).(r).(i) <- t;
                  p.raw_best.(r).(i) <- Float.min p.raw_best.(r).(i) t;
                  ops := !ops + outcome.Suite.ops;
                  p.attempted <- p.attempted + 1;
                  Option.iter
                    (fun m ->
                      p.failed <- p.failed + 1;
                      p.mismatches <- m :: p.mismatches)
                    mismatch)
                round);
          p.round_ops.(r) <- !ops;
          p.counts <- Telemetry.Registry.merge [ p.counts; Telemetry.Registry.snapshot () ])
        cells;
      let slowdown = Probe.slowdown probe in
      p.slowdowns.(pass) <- slowdown;
      Array.iter (fun times -> Array.iteri (fun i t -> times.(i) <- t /. slowdown) times) p.scaled.(pass)
    done;
    p

  (* A cell's time is the fastest of its passes, which only escapes a
     slow moment of a shared machine when the cell runs many times,
     spread over the whole run. Passes therefore come first: as many
     rounds as leave at least [min_passes] passes in [seconds] on the
     reference machine (see [Suite.S.nominal_round_s]), at least one, and
     as many passes over them (at least three) as take [seconds]. Fixing
     the counts, not the time, makes a parent and a change measure
     identical work. *)
  let min_passes = 6

  let plan seconds =
    let rounds =
      max 1 (int_of_float (seconds /. (float_of_int min_passes *. W.nominal_round_s)))
    in
    (rounds, max 3 (int_of_float (seconds /. (float_of_int rounds *. W.nominal_round_s))))
end

(* ---- metrics -------------------------------------------------------------- *)

(* [round].(i): cell i's time, the fastest of its scaled passes. *)
let cell_times p =
  Array.mapi
    (fun r round ->
      Array.mapi (fun i _ -> Util.Stats.min (Array.map (fun pass -> pass.(r).(i)) p.scaled)) round)
    p.raw_best

let run_times p = Array.concat (Array.to_list (cell_times p))
let round_walls p = Array.to_list (Array.map (Array.fold_left ( +. ) 0.0) (cell_times p))
let exec_seconds p = sum (round_walls p)
let ops p = Array.fold_left ( + ) 0 p.round_ops
let percentile_ms p q = Util.Stats.percentile (run_times p) q *. 1000.0

(* The highest whole percentile, at most 90, with at least ten of the
   run's cells above it: with [n] samples the percentile at position
   (n - 11) / (n - 1) leaves exactly ten beyond. [run_p90_ms] reports
   this percentile when a pass has fewer than 110 cells, and the median
   when it has fewer than 21. *)
let tail_percentile p =
  let n = Array.length (run_times p) in
  if n < 21 then 50 else min 90 (100 * (n - 11) / (n - 1))

(* Peak resident set of this process, from /proc. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  let v = scan () in
  close_in ic;
  v

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }
let ratio a b = if b = 0.0 then 0.0 else a /. b

let end_to_end ~setup_s ~phase =
  [
    m "setup_s" "s" setup_s;
    m "wall_s" "s" (median (round_walls phase));
    m "ops_per_s" "1/s"
      (median
         (List.map2
            (fun o w -> float_of_int o /. w)
            (Array.to_list phase.round_ops) (round_walls phase)));
    m "run_p50_ms" "ms" (percentile_ms phase 50.0);
    m "run_p90_ms" "ms" (percentile_ms phase (float_of_int (tail_percentile phase)));
    m "peak_rss_mb" "MB" (peak_rss_mb ());
  ]

let registry_counts =
  [
    "vm.tcache.compiles"; "vm.compile.dispatch_avoided"; "vm.compile.chains_patched";
    "vm.compile.superblocks"; "vm.compile.spills"; "vm.compile.reloads";
    "attack.restarts"; "attack.victim_respawns"; "os.kernel.forks"; "os.kernel.crashes";
    "vm.mem.clones"; "vm.mem.pages_aliased"; "vm.mem.cow_breaks";
    "vm.tcache.blocks_shared"; "vm.tcache.tables_materialised"; "os.snapshot.resumes";
    "os.kernel.wakeups"; "net.conn.opened"; "net.conn.reset"; "net.conn.timeouts";
    "net.loadgen.responses"; "net.loadgen.failures";
  ]

let layers = [ "bench"; "minic"; "mcc"; "rewriter"; "os"; "attack"; "net" ]

(* Per-layer metrics of a traced phase that re-ran the rounds of an
   untraced one. [untraced_cycles] is the guest-cycle tally of the
   untraced phase. *)
let per_layer ~untraced ~untraced_cycles ~traced =
  let registry name =
    float_of_int (Option.value (List.assoc_opt name traced.counts) ~default:0)
  in
  let span = Span.total in
  let cycles = float_of_int !Tally.guest_cycles in
  let queries = float_of_int !Tally.queries in
  let self = Span.self_times () in
  [
    m "minic.parse_s" "s" (span "minic.parse");
    m "mcc.compile_s" "s" (span "mcc.compile");
    m "mcc.text_bytes" "bytes" (float_of_int !Tally.text_bytes);
    m "rewriter.instrument_s" "s" (span "rewriter.instrument");
    m "os.spawn_s" "s" (span "os.spawn");
    m "attack.oracle_create_s" "s" (span "attack.oracle_create");
    m "os.schedule_s" "s" (span "os.schedule");
    m "vm.guest_cycles" "count" cycles;
    m "vm.guest_mcycles_per_s" "Mcycles/s"
      (ratio
         (float_of_int untraced_cycles /. float_of_int untraced.passes /. 1e6)
         (exec_seconds untraced));
    m "os.host_ns_per_guest_cycle" "ns" (ratio (span "os.schedule" *. 1e9) cycles);
    m "attack.run_s" "s" (span "attack.run");
    m "attack.queries" "count" queries;
    m "attack.host_us_per_query" "us" (ratio (span "attack.run" *. 1e6) queries);
    m "vm.mem.cow_break_ratio" "ratio"
      (ratio (registry "vm.mem.cow_breaks") (registry "vm.mem.pages_aliased"));
    m "net.loadgen_step_s" "s" (span "net.loadgen_step");
    m "net.connect_s" "s" (span "net.connect");
    m "serve.pump_turns" "count" (float_of_int !Tally.pump_turns);
    m "serve.clock_jumps" "count" (float_of_int !Tally.clock_jumps);
  ]
  @ List.map (fun name -> m name "count" (registry name)) registry_counts
  @ List.map (fun l -> m (l ^ ".self_s") "s" (self l)) layers
  @ [
      m "bench.rounds" "count" (float_of_int traced.rounds);
      m "bench.passes" "count" (float_of_int traced.passes);
      m "trace.spans" "count" (float_of_int !Span.count);
      m "trace.untraced_wall_s" "s" (exec_seconds untraced);
      m "trace.traced_wall_s" "s" (exec_seconds traced);
      m "trace.overhead_ratio" "ratio" (ratio (exec_seconds traced) (exec_seconds untraced));
    ]

(* ---- output --------------------------------------------------------------- *)

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (number x.value) x.unit_)
          metrics))
