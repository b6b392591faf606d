(* brop-attack: the SII-B / SVI-C job. Each cell is one complete
   byte-by-byte attack ([Attack.Byte_by_byte.run]) on a forking victim
   from [Workload.Vuln]: every query forks a copy-on-write child, runs a
   short handler, usually crashes it, and reaps it.

   A round attacks every scheme x transport x respawn cell once (48
   attacks). The buffer of cell i is (offset_i + r) mod 2, with the
   offsets drawn from the seed, so two consecutive rounds cover all 96
   attack cells. Each attack's victim kernel seed is drawn from a pool
   of four; it moves the canary, and with it the trial count of the
   schemes that fall. *)

let name = "brop-attack"
let op_name = "oracle queries"
let run_name = "complete attack"

type target = Scheme of Pssp.Scheme.t | Instrumented

let targets =
  [|
    ("ssp", Scheme Pssp.Scheme.Ssp);
    ("pssp", Scheme Pssp.Scheme.Pssp);
    ("pssp-nt", Scheme Pssp.Scheme.Pssp_nt);
    ("pssp-owf", Scheme Pssp.Scheme.Pssp_owf);
    ("shadow-compact", Scheme Pssp.Scheme.Shadow_compact);
    ("pac-canary", Scheme Pssp.Scheme.Pac_canary);
    ("wasm-ssp", Scheme Pssp.Scheme.Wasm_ssp);
    ("instrumented", Instrumented);
  |]

let buffers = [| 16; 32 |]

(* magic: the legacy request channel of [Vuln.fork_server];
   net: real connections to [Vuln.fork_server_net]. *)
let transports = [| ("magic", Workload.Vuln.fork_server); ("net", Workload.Vuln.fork_server_net) |]

let respawns =
  [|
    ("no-respawn", Attack.Oracle.No_respawn);
    ("zygote", Attack.Oracle.Zygote);
    ("cold", Attack.Oracle.Cold);
  |]

(* The first is [Attack.Oracle.create]'s default. *)
let kernel_seeds = [| 0xA77ACCL; 0x5EED01L; 0x5EED02L; 0x5EED03L |]

(* Above the 1281 queries SSP needs on the slowest canary of the
   kernel-seed pool (1280 guesses + the hijack), so every scheme that
   falls does so within budget. *)
let budget = 1536

type cell = { target : int; buffer : int; transport : int; respawn : int; kseed : int }

let key c =
  Printf.sprintf "%s %d %s %s k%d" (fst targets.(c.target)) buffers.(c.buffer)
    (fst transports.(c.transport)) (fst respawns.(c.respawn)) c.kseed

let product n f = List.concat_map f (List.init n Fun.id)

(* The 96 attack cells, before their kernel seeds are drawn. *)
let attacks =
  product (Array.length targets) (fun target ->
      product (Array.length buffers) (fun buffer ->
          product (Array.length transports) (fun transport ->
              List.init (Array.length respawns) (fun respawn ->
                  { target; buffer; transport; respawn; kseed = 0 }))))

let nominal_round_s = 2.4

let universe =
  product (Array.length kernel_seeds) (fun kseed ->
      List.map (fun c -> { c with kseed }) attacks)

let round ~seed r =
  let offsets = Util.Prng.create (Int64.of_int seed) in
  let rng = Build.round_rng ~seed r in
  List.filter (fun c -> c.buffer = 0) attacks
  |> List.map (fun c ->
         let buffer = (Util.Prng.int offsets (Array.length buffers) + r) mod Array.length buffers in
         { c with buffer; kseed = Util.Prng.int rng (Array.length kernel_seeds) })
  |> Build.shuffle rng

type victim = {
  image : Os.Image.t;
  preload : Os.Preload.mode;
  layout : Attack.Payload.layout;
}

(* Mirrors the effectiveness campaign's victim build. *)
let victim program ~buffer_size target =
  match snd targets.(target) with
  | Scheme scheme ->
    {
      image = Build.compile scheme program;
      preload = Mcc.Driver.preload_for scheme;
      layout = Harness.Layouts.compiler_layout scheme ~buffer_size;
    }
  | Instrumented ->
    let image = Build.instrument (Build.compile Pssp.Scheme.Ssp program) in
    {
      image;
      preload = Rewriter.Driver.required_preload image;
      layout = Harness.Layouts.instrumented_layout ~buffer_size;
    }

(* One victim image per target x buffer x transport. *)
type images = (int * int * int, victim) Hashtbl.t

let build () =
  let images = Hashtbl.create 32 in
  Array.iteri
    (fun transport (_, server) ->
      Array.iteri
        (fun buffer buffer_size ->
          let program = Build.parse (server ~buffer_size) in
          Array.iteri
            (fun target _ ->
              Hashtbl.add images (target, buffer, transport)
                (victim program ~buffer_size target))
            targets)
        buffers)
    transports;
  images

type booted = { oracle : Attack.Oracle.t; layout : Attack.Payload.layout }

let create_oracle v c =
  Attack.Oracle.create ~seed:kernel_seeds.(c.kseed) ~preload:v.preload
    ~respawn:(snd respawns.(c.respawn)) v.image

let boot images c =
  let v = Hashtbl.find images (c.target, c.buffer, c.transport) in
  { oracle = Span.with_ "attack.oracle_create" (fun () -> create_oracle v c); layout = v.layout }

let result oracle outcome =
  Printf.sprintf "%s queries=%d respawns=%d"
    (Attack.Byte_by_byte.outcome_to_string outcome)
    (Attack.Oracle.queries oracle) (Attack.Oracle.respawns oracle)

let exec b =
  let outcome =
    Span.with_ "attack.run" (fun () ->
        Attack.Byte_by_byte.run b.oracle ~layout:b.layout ~max_trials:budget)
  in
  let queries = Attack.Oracle.queries b.oracle in
  Tally.queries := !Tally.queries + queries;
  { Suite.result = result b.oracle outcome; ops = queries }

let reference c =
  let buffer_size = buffers.(c.buffer) in
  let program = Minic.Parser.parse ((snd transports.(c.transport)) ~buffer_size) in
  let v = victim program ~buffer_size c.target in
  let oracle = create_oracle v c in
  result oracle (Attack.Byte_by_byte.run oracle ~layout:v.layout ~max_trials:budget)
