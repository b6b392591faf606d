(* web-load: the Tables III/IV job. Each cell is one closed-loop
   keep-alive load run against the Nginx profile: 32 clients, 8
   requests per connection, 256 requests, every 17th request a slow
   sender and every 97th an abrupt disconnect (the loadbench mix).

   [exec] makes the same public calls as [Harness.Runner.run_load]'s
   pump, so the traced run can time [Net.Loadgen.step] apart from
   [Os.Kernel.schedule]; the reference comes from [Runner.run_load]
   itself. A round serves every architecture x deployment cell once;
   the seed draws each cell's load-generator seed from a pool of
   eight. *)

open Harness

let name = "web-load"
let op_name = "completed requests"
let run_name = "load run"

let archs =
  [| ("fork", Loadbench.Fork); ("event", Loadbench.Event); ("reuseport", Loadbench.Reuseport) |]

let deployments = [| Runner.Native; Runner.Compiler Pssp.Scheme.Pssp |]
let loadgen_seeds = Array.init 8 (fun i -> Int64.add 0x10AD6E4L (Int64.of_int i))
let kernel_seed = 0x5E44EL
let connections = 32
let keepalive = 8
let total = 256
let slow_every = 17
let abort_every = 97
let conn_timeout = 2_000_000L

(* Runner's pump slice: instructions per kernel turn. *)
let pump_slice = 262_144

type cell = { arch : int; deployment : int; lseed : int }

let key c =
  Printf.sprintf "%s %s l%d" (fst archs.(c.arch))
    (Runner.deployment_name deployments.(c.deployment)) c.lseed

let servers =
  List.concat_map
    (fun arch ->
      List.init (Array.length deployments) (fun deployment -> { arch; deployment; lseed = 0 }))
    (List.init (Array.length archs) Fun.id)

let nominal_round_s = 0.8

let universe =
  List.concat_map
    (fun lseed -> List.map (fun c -> { c with lseed }) servers)
    (List.init (Array.length loadgen_seeds) Fun.id)

let round ~seed r =
  let rng = Build.round_rng ~seed r in
  List.map (fun c -> { c with lseed = Util.Prng.int rng (Array.length loadgen_seeds) }) servers
  |> Build.shuffle rng

let profiles = Array.map (fun (_, arch) -> Loadbench.arch_profile arch Workload.Servers.nginx) archs
let profile c = profiles.(c.arch)

type images = (int * int, Runner.built) Hashtbl.t

let build () =
  let images = Hashtbl.create 8 in
  List.iter
    (fun c ->
      let program = Build.parse (profile c).Workload.Servers.source in
      Hashtbl.add images (c.arch, c.deployment) (Build.deploy deployments.(c.deployment) program))
    servers;
  images

type booted = {
  kernel : Os.Kernel.t;
  server : Os.Process.t;
  loadgen : Net.Loadgen.t;
}

let boot images c =
  let built = Hashtbl.find images (c.arch, c.deployment) in
  Span.with_ "os.boot" (fun () ->
      let kernel = Os.Kernel.create ~seed:kernel_seed () in
      let server =
        Span.with_ "os.spawn" (fun () ->
            Os.Kernel.spawn kernel ~preload:built.Runner.preload
              ~insn_tax:built.Runner.insn_tax ~call_tax:built.Runner.call_tax
              built.Runner.image)
      in
      Os.Kernel.enqueue kernel server;
      Os.Kernel.schedule kernel;
      (match Os.Kernel.stop_of server with
      | Os.Kernel.Stop_accept | Os.Kernel.Stop_io -> ()
      | other -> failwith ("web-load: server never became ready: " ^ Os.Kernel.stop_to_string other));
      Os.Kernel.set_conn_timeout kernel (Some conn_timeout);
      let loadgen =
        Net.Loadgen.create ~seed:loadgen_seeds.(c.lseed) ~slow_every ~abort_every
          ~mode:Net.Loadgen.Closed ~clients:connections ~keepalive ~total
          ~mix:(profile c).Workload.Servers.requests ()
      in
      { kernel; server; loadgen })

(* The fields of a [Runner.load_run] that do not depend on a profile's
   calibration constant. *)
let result ~sent ~completed ~failed ~aborted ~refused ~peak_open ~cycles ~forks ~alive ~p50
    ~p99 ~p999 =
  Printf.sprintf
    "sent=%d ok=%d failed=%d aborted=%d refused=%d peak_open=%d cycles=%Ld forks=%d \
     alive=%b p50=%h p99=%h p999=%h"
    sent completed failed aborted refused peak_open cycles forks alive p50 p99 p999

let advance kernel target =
  incr Tally.clock_jumps;
  Tally.guest_cycles :=
    !Tally.guest_cycles - Int64.to_int (Int64.sub target (Os.Kernel.now kernel));
  Os.Kernel.advance_to kernel target

let pump { kernel; server; loadgen = lg } =
  let try_connect () = Span.with_ "net.connect" (fun () -> Os.Kernel.connect kernel server) in
  let schedule ?fuel () = Span.with_ "os.schedule" (fun () -> Os.Kernel.schedule ?fuel kernel) in
  let stalls = ref 0 in
  let finished = ref false in
  while not !finished do
    incr Tally.pump_turns;
    let now0 = Os.Kernel.now kernel in
    let moved =
      Span.with_ "net.loadgen_step" (fun () -> Net.Loadgen.step lg ~now:now0 ~try_connect)
    in
    schedule ~fuel:pump_slice ();
    if Net.Loadgen.finished lg then finished := true
    else if moved || Int64.compare (Os.Kernel.now kernel) now0 > 0 then stalls := 0
    else begin
      let next =
        match (Net.Loadgen.next_event lg, Os.Kernel.next_deadline kernel) with
        | None, None -> None
        | (Some _ as a), None -> a
        | None, (Some _ as b) -> b
        | Some a, Some b -> Some (if Int64.compare a b <= 0 then a else b)
      in
      (match next with
      | Some target when Int64.compare target now0 > 0 -> advance kernel target
      | _ -> incr stalls);
      if !stalls > 3 then begin
        Net.Loadgen.force_finish lg ~now:(Os.Kernel.now kernel);
        finished := true
      end
    end
  done;
  schedule ();
  match Os.Kernel.next_deadline kernel with
  | Some deadline ->
    advance kernel deadline;
    schedule ()
  | None -> ()

let exec b =
  let start = Os.Kernel.now b.kernel in
  pump b;
  Os.Kernel.reap_zombies b.kernel b.server;
  let now = Os.Kernel.now b.kernel in
  Tally.guest_cycles := !Tally.guest_cycles + Int64.to_int (Int64.sub now start);
  let r = Net.Loadgen.report b.loadgen in
  let alive =
    match b.server.Os.Process.status with
    | Os.Process.Exited _ | Os.Process.Killed _ -> false
    | _ -> true
  in
  (* as [Runner.run_load] summarises the latencies *)
  let latencies = Array.map Int64.to_float r.Net.Loadgen.latencies in
  let pct p =
    if Array.length latencies = 0 then 0.0 else Util.Stats.percentile latencies p
  in
  {
    Suite.result =
      result ~sent:r.sent ~completed:r.completed ~failed:r.failed ~aborted:r.aborted
        ~refused:r.refused ~peak_open:r.peak_open ~cycles:now
        ~forks:(Os.Kernel.fork_count b.kernel) ~alive
        ~p50:(if Array.length latencies = 0 then 0.0 else Util.Stats.median latencies)
        ~p99:(pct 99.0) ~p999:(pct 99.9);
    ops = r.completed;
  }

let reference c =
  let lr =
    Runner.run_load ~seed:kernel_seed ~loadgen_seed:loadgen_seeds.(c.lseed) ~conn_timeout
      ~slow_every ~abort_every deployments.(c.deployment) (profile c)
      ~mode:Net.Loadgen.Closed ~connections ~keepalive ~total
  in
  result ~sent:lr.Runner.sent ~completed:lr.completed ~failed:lr.load_failed
    ~aborted:lr.aborted ~refused:lr.refused ~peak_open:lr.peak_open ~cycles:lr.virtual_cycles
    ~forks:lr.load_forks ~alive:lr.server_alive ~p50:lr.p50_latency_cycles
    ~p99:lr.p99_latency_cycles ~p999:lr.p999_latency_cycles
