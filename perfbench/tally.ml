(* Work counted by the benchmark itself, next to the program's own
   registry counters: guest cycles it can read off finished processes
   and kernels, the serving pump's turns and virtual-clock jumps, and
   oracle queries. Reset at the start of a traced phase. *)

let guest_cycles = ref 0
let pump_turns = ref 0
let clock_jumps = ref 0
let queries = ref 0
let text_bytes = ref 0

let reset () =
  guest_cycles := 0;
  pump_turns := 0;
  clock_jumps := 0;
  queries := 0;
  text_bytes := 0
