(* Host-time spans around the benchmark's calls into the layers.

   Spans live in memory (parallel growable arrays, so a traced run does
   not allocate a record per span) and are written out when the run
   ends. Disabled, [with_] is one branch around the call. A span's
   layer is the part of its name before the first '.', e.g. "os" for
   "os.schedule". *)

let enabled = ref false

let names : string array ref = ref (Array.make 1024 "")
let parents = ref (Array.make 1024 0)
let starts = ref (Array.make 1024 0.0)
let stops = ref (Array.make 1024 0.0)
let count = ref 0
let open_spans : int list ref = ref []

let grow () =
  let n = Array.length !names in
  let extend a fill =
    let b = Array.make (2 * n) fill in
    Array.blit a 0 b 0 n;
    b
  in
  names := extend !names "";
  parents := extend !parents 0;
  starts := extend !starts 0.0;
  stops := extend !stops 0.0

let reset () =
  count := 0;
  open_spans := []

let with_ name f =
  if not !enabled then f ()
  else begin
    if !count = Array.length !names then grow ();
    let id = !count in
    incr count;
    !names.(id) <- name;
    !parents.(id) <- (match !open_spans with p :: _ -> p | [] -> -1);
    open_spans := id :: !open_spans;
    !starts.(id) <- Unix.gettimeofday ();
    Fun.protect
      ~finally:(fun () ->
        !stops.(id) <- Unix.gettimeofday ();
        open_spans := List.tl !open_spans)
      f
  end

let duration id = !stops.(id) -. !starts.(id)

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Summed duration of every span with this name, in seconds. *)
let total name =
  let s = ref 0.0 in
  for id = 0 to !count - 1 do
    if String.equal !names.(id) name then s := !s +. duration id
  done;
  !s

(* Per-layer self time in seconds: each span's duration minus the time
   its direct children cover (spans nest strictly in this serial
   benchmark, so the children's durations sum to their union). *)
let self_times () =
  let n = !count in
  let children = Array.make n 0.0 in
  for id = 0 to n - 1 do
    let p = !parents.(id) in
    if p >= 0 then children.(p) <- children.(p) +. duration id
  done;
  let acc = Hashtbl.create 8 in
  for id = 0 to n - 1 do
    let l = layer !names.(id) in
    let prev = Option.value (Hashtbl.find_opt acc l) ~default:0.0 in
    Hashtbl.replace acc l (prev +. duration id -. children.(id))
  done;
  fun l -> Option.value (Hashtbl.find_opt acc l) ~default:0.0

(* One JSON object per line: id, name, parent id (-1 for a root), start
   relative to the first span and duration, both in microseconds. *)
let write path =
  let oc = open_out path in
  let t0 = if !count > 0 then !starts.(0) else 0.0 in
  for id = 0 to !count - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"name\":%S,\"parent\":%d,\"start_us\":%.1f,\"dur_us\":%.1f}\n" id
      !names.(id) !parents.(id)
      ((!starts.(id) -. t0) *. 1e6)
      (duration id *. 1e6)
  done;
  close_out oc
