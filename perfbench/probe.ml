(* A fixed host-speed probe. A shared machine runs slower in stretches
   that last minutes, whenever another tenant loads the same cores, and
   a best-of-passes time cannot escape a stretch that covers the whole
   run. So the benchmark samples this probe next to every timed [exec]
   and scales the pass's times by how much slower than the reference
   machine the probe ran during that pass.

   The probe is the benchmark's own code, never the program's, so a
   change to the program cannot move it. Its three kernels are the
   compute-bound kinds of work the simulator does: integer arithmetic,
   short-lived allocation and interpreter dispatch. A memory-latency
   kernel was left out: in the slow stretches it did not slow down at
   all, while the simulator did. One sample takes about 1.5 ms on the
   reference machine. *)

let now = Unix.gettimeofday

let arith n =
  let acc = ref 0 in
  for i = 1 to n do
    let a = (i * 2654435761) land 32767 in
    acc := !acc lxor (a * i) + (!acc lsr 3)
  done;
  !acc

let alloc n =
  let live = ref [] in
  let sum = ref 0 in
  for i = 1 to n do
    live := (i, float_of_int i) :: !live;
    if i land 255 = 0 then begin
      List.iter (fun (a, _) -> sum := !sum + a) !live;
      live := []
    end
  done;
  !sum

type insn = Addi of int * int | Load of int | Store of int | Add of int * int | Loop

let program = [| Addi (1, 1); Load 2; Add (3, 2); Store 3; Addi (5, -1); Loop |]

let interp n =
  let r = Array.make 8 0 in
  let mem = Array.make 1024 0 in
  let pc = ref 0 in
  r.(5) <- n;
  while r.(5) > 0 do
    match program.(!pc) with
    | Addi (d, k) ->
      r.(d) <- r.(d) + k;
      incr pc
    | Load d ->
      r.(d) <- mem.(r.(1) land 1023);
      incr pc
    | Store s ->
      mem.(r.(1) land 1023) <- r.(s);
      incr pc
    | Add (d, s) ->
      r.(d) <- r.(d) + r.(s);
      incr pc
    | Loop -> pc := 0
  done;
  r.(3)

(* Each kernel with its size, and its time per sample on the reference
   machine (2-core x86-64 VM at 2.1 GHz), taken where the benchmark takes
   it, between two [exec]s: about the 10th percentile over 150 passes of
   web-load and spec-exec. A scaled time is thus in seconds of that
   machine. *)
let kernels = [| (arith, 220_000); (alloc, 50_000); (interp, 22_000) |]
let reference_s = [| 0.000_45; 0.000_60; 0.000_48 |]

type t = { spent : float array; mutable samples : int }

let create () = { spent = Array.make (Array.length kernels) 0.0; samples = 0 }

let sample t =
  Array.iteri
    (fun i (kernel, n) ->
      let t0 = now () in
      ignore (Sys.opaque_identity (kernel n));
      t.spent.(i) <- t.spent.(i) +. (now () -. t0))
    kernels;
  t.samples <- t.samples + 1

(* How many times slower than the reference machine the host ran while
   [t] was sampled: the geometric mean over the kernels of time spent ÷
   reference time. *)
let slowdown t =
  Util.Stats.geomean
    (Array.mapi (fun i s -> s /. (float_of_int t.samples *. reference_s.(i))) t.spent)
