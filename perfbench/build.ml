(* Front end and protection passes, with one span per layer call. The
   deployments mirror [Harness.Runner.build]; a divergence shows up as a
   reference mismatch, because references come from [Runner] itself. *)

open Harness

let parse source = Span.with_ "minic.parse" (fun () -> Minic.Parser.parse source)

let compile scheme program =
  let image = Span.with_ "mcc.compile" (fun () -> Mcc.Driver.compile ~scheme program) in
  Tally.text_bytes := !Tally.text_bytes + Bytes.length image.Os.Image.text;
  image

let instrument image =
  Span.with_ "rewriter.instrument" (fun () -> fst (Rewriter.Driver.instrument image))

let deploy (deployment : Runner.deployment) program : Runner.built =
  let built image preload = { Runner.image; preload; insn_tax = 0; call_tax = 0 } in
  match deployment with
  | Runner.Native -> built (compile Pssp.Scheme.None_ program) Os.Preload.No_preload
  | Runner.Compiler scheme ->
    built (compile scheme program) (Mcc.Driver.preload_for scheme)
  | Runner.Instr_dynamic ->
    let image = instrument (compile Pssp.Scheme.Ssp program) in
    built image (Rewriter.Driver.required_preload image)
  | Runner.Dynaguard_pin ->
    {
      (built (compile Pssp.Scheme.Dynaguard program) Os.Preload.Dynaguard_fix) with
      insn_tax = Runner.pin_insn_tax;
    }
  | Runner.Instr_static | Runner.Dcr_static -> invalid_arg "Build.deploy: not benchmarked"

(* Seeded permutation, the order a round runs its cells in. *)
let shuffle rng cells =
  let a = Array.of_list cells in
  Util.Prng.shuffle rng a;
  Array.to_list a

(* Independent stream per (seed, round). *)
let round_rng ~seed r =
  Util.Prng.create
    (Int64.logxor (Int64.of_int seed) (Int64.shift_left (Int64.of_int (r + 1)) 40))
