(* spec-exec: the Fig. 5 / Table V job. Each cell runs one of the 28
   SPEC-like programs to exit under one deployment, on a fresh kernel:
   guest execution with no fork, no network and no attack.

   A round runs every program once. Program i gets deployment
   (i + r) mod 5, so any five consecutive rounds cover every program
   under every deployment. The seed draws each run's victim kernel seed
   from a pool of four (canaries, layout randomisation) and the order.
   It does not draw the deployments: which deployment lands on the few
   programs near the median moved run_p50_ms by about 10% from seed to
   seed, so every seed's round r has the same programs x deployments
   and costs the same host time. *)

open Harness

let name = "spec-exec"
let op_name = "program runs"
let run_name = "program run"

let deployments =
  [|
    Runner.Native;
    Runner.Compiler Pssp.Scheme.Pssp;
    Runner.Compiler Pssp.Scheme.Pssp_owf;
    Runner.Instr_dynamic;
    Runner.Dynaguard_pin;
  |]

let programs = Array.of_list Workload.Spec.all

(* The first is Runner.run_built's default. *)
let kernel_seeds = [| 0x5EED5L; 0x5EED6L; 0x5EED7L; 0x5EED8L |]

type cell = { program : int; deployment : int; kseed : int }

let key c =
  Printf.sprintf "%s %s k%d" programs.(c.program).Workload.Spec.bench_name
    (Runner.deployment_name deployments.(c.deployment))
    c.kseed

let nominal_round_s = 3.0

let product n f = List.concat_map f (List.init n Fun.id)

let universe =
  product (Array.length programs) (fun program ->
      product (Array.length deployments) (fun deployment ->
          List.init (Array.length kernel_seeds) (fun kseed -> { program; deployment; kseed })))

let round ~seed r =
  let rng = Build.round_rng ~seed r in
  List.init (Array.length programs) (fun program ->
      {
        program;
        deployment = (program + r) mod Array.length deployments;
        kseed = Util.Prng.int rng (Array.length kernel_seeds);
      })
  |> Build.shuffle rng

type images = Runner.built array array

let build () =
  Array.map
    (fun bench ->
      let program = Build.parse bench.Workload.Spec.source in
      Array.map (fun d -> Build.deploy d program) deployments)
    programs

type booted = { built : Runner.built; kernel_seed : int64 }

let boot images c =
  { built = images.(c.program).(c.deployment); kernel_seed = kernel_seeds.(c.kseed) }

let result ~stop ~cycles ~stdout =
  Printf.sprintf "exit=%s cycles=%Ld stdout=%s" (Os.Kernel.stop_to_string stop) cycles
    (Digest.to_hex (Digest.string stdout))

let exec { built; kernel_seed } =
  let kernel = Os.Kernel.create ~seed:kernel_seed () in
  let proc =
    Span.with_ "os.spawn" (fun () ->
        Os.Kernel.spawn kernel ~preload:built.Runner.preload ~insn_tax:built.Runner.insn_tax
          ~call_tax:built.Runner.call_tax built.Runner.image)
  in
  Os.Kernel.enqueue kernel proc;
  Span.with_ "os.schedule" (fun () -> Os.Kernel.schedule kernel);
  let cycles = Os.Process.cycles proc in
  Tally.guest_cycles := !Tally.guest_cycles + Int64.to_int cycles;
  {
    Suite.result =
      result ~stop:(Os.Kernel.stop_of proc) ~cycles ~stdout:(Os.Process.stdout proc);
    ops = 1;
  }

let reference c =
  let bench = programs.(c.program) in
  let built = Runner.build deployments.(c.deployment) (Workload.Spec.parse bench) in
  let run = Runner.run_built ~seed:kernel_seeds.(c.kseed) built in
  result ~stop:run.Runner.stop ~cycles:run.Runner.cycles ~stdout:run.Runner.output
