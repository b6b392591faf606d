(* Machine-level tests: memory, faults, and instruction semantics
   executed through the real fetch/decode/execute path. *)

open Isa
open Vm64

let i64 = Alcotest.testable (Fmt.fmt "0x%Lx") Int64.equal

(* ---- memory --------------------------------------------------------------- *)

let test_mem_rw () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000L ~len:4096;
  Memory.write_u64 m 0x1000L 0x1122334455667788L;
  Alcotest.check i64 "u64" 0x1122334455667788L (Memory.read_u64 m 0x1000L);
  Alcotest.(check int) "low byte (little endian)" 0x88 (Memory.read_u8 m 0x1000L);
  Memory.write_u8 m 0x1007L 0xFF;
  Alcotest.check i64 "byte patch visible" 0xFF22334455667788L (Memory.read_u64 m 0x1000L)

let test_mem_u32 () =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~len:4096;
  Memory.write_u32 m 8L 0xDEADBEEFL;
  Alcotest.check i64 "zero extended" 0xDEADBEEFL (Memory.read_u32 m 8L);
  Alcotest.check i64 "upper half untouched" 0xDEADBEEFL (Memory.read_u64 m 8L)

let test_mem_cross_page () =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~len:8192;
  Memory.write_u64 m 4092L 0x0102030405060708L;
  Alcotest.check i64 "cross-page u64" 0x0102030405060708L (Memory.read_u64 m 4092L);
  Memory.write_bytes m 4090L (Bytes.of_string "ABCDEFGHIJ");
  Alcotest.(check string) "cross-page bytes" "ABCDEFGHIJ"
    (Bytes.to_string (Memory.read_bytes m 4090L 10))

let test_mem_unmapped_faults () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000L ~len:4096;
  (match Memory.read_u8 m 0x9999999L with
  | exception Fault.Trap (Fault.Segfault 0x9999999L) -> ()
  | _ -> Alcotest.fail "expected segfault");
  match Memory.write_u64 m 0xFF0L 1L with
  | exception Fault.Trap (Fault.Segfault _) -> ()
  | _ -> Alcotest.fail "expected segfault below mapping"

let test_mem_clone_isolated () =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~len:4096;
  Memory.write_u64 m 0L 42L;
  let c = Memory.clone m in
  Memory.write_u64 c 0L 99L;
  Alcotest.check i64 "parent unchanged" 42L (Memory.read_u64 m 0L);
  Alcotest.check i64 "child sees write" 99L (Memory.read_u64 c 0L)

let test_mem_cross_page_u32_u64 () =
  (* the straddling slow paths of the 4- and 8-byte accessors *)
  let m = Memory.create () in
  Memory.map m ~addr:0L ~len:8192;
  List.iter
    (fun off ->
      let a = Int64.of_int off in
      Memory.write_u64 m a 0x1122334455667788L;
      Alcotest.check i64
        (Printf.sprintf "u64 roundtrip @%d" off)
        0x1122334455667788L (Memory.read_u64 m a))
    [ 4089; 4090; 4091; 4092; 4093; 4094; 4095 ];
  List.iter
    (fun off ->
      let a = Int64.of_int off in
      Memory.write_u32 m a 0xDEADBEEFL;
      Alcotest.check i64
        (Printf.sprintf "u32 roundtrip @%d" off)
        0xDEADBEEFL (Memory.read_u32 m a))
    [ 4093; 4094; 4095 ];
  (* little-endian byte layout across the boundary *)
  Memory.write_u64 m 4092L 0x0807060504030201L;
  Alcotest.(check int) "low byte on first page" 0x01 (Memory.read_u8 m 4092L);
  Alcotest.(check int) "fifth byte on second page" 0x05 (Memory.read_u8 m 4096L)

let test_mem_cross_page_fault_partial () =
  (* a spanning write that hits an unmapped page faults at the page
     boundary, leaving exactly the prefix a per-byte loop would write *)
  let m = Memory.create () in
  Memory.map m ~addr:0L ~len:4096;
  (match Memory.write_u64 m 4092L 0x0102030405060708L with
  | exception Fault.Trap (Fault.Segfault a) ->
    Alcotest.check i64 "fault at page boundary" 4096L a
  | () -> Alcotest.fail "expected segfault");
  Alcotest.check i64 "prefix written before the fault" 0x05060708L
    (Memory.read_u32 m 4092L)

(* ---- copy-on-write fork ---------------------------------------------------- *)

let test_cow_isolation_both_directions () =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~len:4096;
  Memory.write_u64 m 0L 42L;
  let c = Memory.clone m in
  Memory.write_u64 m 8L 7L;
  Memory.write_u64 c 0L 99L;
  Alcotest.check i64 "child write invisible to parent" 42L (Memory.read_u64 m 0L);
  Alcotest.check i64 "parent write invisible to child" 0L (Memory.read_u64 c 8L);
  Alcotest.check i64 "parent sees own write" 7L (Memory.read_u64 m 8L);
  Alcotest.check i64 "child sees own write" 99L (Memory.read_u64 c 0L)

let test_cow_fork_chain () =
  let g = Memory.create () in
  Memory.map g ~addr:0L ~len:4096;
  Memory.write_u64 g 0L 1L;
  let p = Memory.clone g in
  let c = Memory.clone p in
  Memory.write_u64 g 0L 10L;
  Memory.write_u64 p 0L 20L;
  Alcotest.check i64 "grandparent" 10L (Memory.read_u64 g 0L);
  Alcotest.check i64 "parent" 20L (Memory.read_u64 p 0L);
  Alcotest.check i64 "child keeps fork-time value" 1L (Memory.read_u64 c 0L);
  let gc = Memory.clone c in
  Memory.write_u64 c 0L 30L;
  Alcotest.check i64 "grandchild keeps its fork-time value" 1L
    (Memory.read_u64 gc 0L);
  Alcotest.check i64 "child" 30L (Memory.read_u64 c 0L)

let test_cow_memoized_page_write_through () =
  (* writing through the one-page memo must still break sharing *)
  let m = Memory.create () in
  Memory.map m ~addr:0L ~len:8192;
  Memory.write_u64 m 0L 5L;
  ignore (Memory.read_u8 m 0L) (* memoize page 0 in the parent *);
  let c = Memory.clone m in
  Memory.write_u64 m 0L 6L (* write via the memoized (now shared) record *);
  Alcotest.check i64 "child unaffected by memoized write" 5L (Memory.read_u64 c 0L);
  Alcotest.check i64 "parent sees it" 6L (Memory.read_u64 m 0L);
  ignore (Memory.read_u8 c 4096L) (* memoize page 1 in the child *);
  Memory.write_u8 c 4097L 0xAB;
  Alcotest.(check int) "parent unaffected by child's memoized write" 0
    (Memory.read_u8 m 4097L)

let test_cow_accounting () =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~len:(3 * 4096);
  Alcotest.(check int) "resident pre-fork" (3 * 4096) (Memory.resident_bytes m);
  Alcotest.(check int) "shared pre-fork" 0 (Memory.shared_bytes m);
  let c = Memory.clone m in
  Alcotest.(check int) "mapped unchanged by fork" (3 * 4096) (Memory.mapped_bytes m);
  Alcotest.(check int) "parent fully shared after fork" 0 (Memory.resident_bytes m);
  Alcotest.(check int) "child fully shared after fork" 0 (Memory.resident_bytes c);
  Memory.write_u8 m 0L 1;
  Alcotest.(check int) "one page privatised by the write" 4096
    (Memory.resident_bytes m);
  Alcotest.(check int) "rest still shared" (2 * 4096) (Memory.shared_bytes m);
  Alcotest.(check int) "resident + shared = mapped" (Memory.mapped_bytes m)
    (Memory.resident_bytes m + Memory.shared_bytes m);
  let st = Memory.family_stats m in
  Alcotest.(check int) "clones" 1 st.Memory.clones;
  Alcotest.(check int) "pages aliased at clone" 3 st.Memory.pages_aliased;
  Alcotest.(check int) "cow breaks" 1 st.Memory.cow_breaks;
  Alcotest.(check int) "telemetry shared with the child" 1
    (Memory.family_stats c).Memory.clones

(* ---- demand-zero pages ------------------------------------------------------ *)

let zero_fills m = (Memory.family_stats m).Memory.zero_fills
let cow_breaks m = (Memory.family_stats m).Memory.cow_breaks

let test_demand_zero_reads () =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~len:(3 * 4096);
  Alcotest.check i64 "u64 reads zero" 0L (Memory.read_u64 m 8L);
  Alcotest.check i64 "u32 reads zero" 0L (Memory.read_u32 m 8190L);
  Alcotest.(check bool) "whole range reads zero" true
    (Bytes.equal (Memory.read_bytes m 0L (3 * 4096)) (Bytes.make (3 * 4096) '\000'));
  Alcotest.(check int) "empty string" 0 (Memory.cstr_len m 4096L);
  (match Memory.code_window m 100L with
  | Some (page, 100) ->
    Alcotest.(check bool) "fetch window is zeros" true
      (Bytes.equal page (Bytes.make 4096 '\000'))
  | _ -> Alcotest.fail "mapped page has no fetch window");
  Alcotest.(check int) "resident before any write" (3 * 4096) (Memory.resident_bytes m);
  Alcotest.(check int) "nothing shared" 0 (Memory.shared_bytes m);
  Alcotest.(check int) "reads materialise nothing" 0 (zero_fills m)

let test_demand_zero_first_write () =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~len:(2 * 4096);
  Memory.write_u8 m 5L 0xAA;
  Alcotest.(check int) "first write fills one page" 1 (zero_fills m);
  Alcotest.(check int) "no CoW break before a clone" 0 (cow_breaks m);
  Memory.write_u64 m 16L 7L;
  Alcotest.(check int) "second write to the page fills nothing" 1 (zero_fills m);
  Alcotest.(check int) "rest of the page still zero" 0 (Memory.read_u8 m 6L);
  Memory.write_bytes m 4096L (Bytes.of_string "x");
  Alcotest.(check int) "other page filled on its first write" 2 (zero_fills m);
  Alcotest.(check int) "residency unchanged by filling" (2 * 4096)
    (Memory.resident_bytes m)

let test_demand_zero_after_clone () =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~len:(2 * 4096);
  let c = Memory.clone m in
  Memory.write_u8 c 0L 1;
  Alcotest.(check int) "child's first write: one CoW break" 1 (cow_breaks m);
  Alcotest.(check int) "and no zero fill" 0 (zero_fills m);
  Memory.write_u8 m 4096L 2;
  Alcotest.(check int) "parent's first write: one more CoW break" 2 (cow_breaks m);
  Memory.write_u8 m 0L 3;
  Alcotest.(check int) "parent's write to the child's page: one more" 3
    (cow_breaks m);
  Alcotest.(check int) "still no zero fill" 0 (zero_fills c);
  Alcotest.(check int) "child sees its write" 1 (Memory.read_u8 c 0L);
  Alcotest.(check int) "parent sees its write" 3 (Memory.read_u8 m 0L);
  Alcotest.(check int) "child page 1 still zero" 0 (Memory.read_u8 c 4096L)

let test_demand_zero_no_leak () =
  (* every mapped page starts on one shared zero payload: a write in any
     space, related or not, must never show up anywhere else *)
  let a = Memory.create () in
  Memory.map a ~addr:0L ~len:4096;
  let b = Memory.create () in
  Memory.map b ~addr:0L ~len:4096;
  let c = Memory.clone a in
  Memory.write_u64 a 0L 0x1111L;
  Memory.write_bytes c 8L (Bytes.make 8 '\x22');
  Alcotest.check i64 "unrelated space untouched" 0L (Memory.read_u64 b 0L);
  Alcotest.check i64 "child untouched by parent" 0L (Memory.read_u64 c 0L);
  Alcotest.check i64 "parent untouched by child" 0L (Memory.read_u64 a 8L);
  let fresh = Memory.create () in
  Memory.map fresh ~addr:0x5000L ~len:4096;
  Alcotest.(check bool) "a later mapping still reads zero" true
    (Bytes.equal (Memory.read_bytes fresh 0x5000L 4096) (Bytes.make 4096 '\000'))

let test_demand_zero_redecode tier () =
  (* a block decoded from a never-written page (zeros decode as nops) is
     anchored to the shared zero payload; the page's first write swaps
     the payload, so the stale decode misses even without an explicit
     invalidation *)
  let saved = Compile.tier () in
  Compile.set_tier tier;
  Fun.protect ~finally:(fun () -> Compile.set_tier saved) @@ fun () ->
  let env = Exec.create_env ~is_builtin:(fun _ -> None) () in
  let cpu = Cpu.create () in
  let mem = Memory.create () in
  Memory.map mem ~addr:0x2000L ~len:8192;
  Memory.write_bytes mem 0x3000L (Encode.list_to_bytes [ Insn.Hlt ]);
  let run () =
    cpu.Cpu.rip <- 0x2000L;
    match Exec.run ~max_insns:100_000 env cpu mem with
    | Exec.Stopped Exec.Halted -> ()
    | _ -> Alcotest.fail "expected hlt"
  in
  run ();
  run ();
  Alcotest.check i64 "nop sled ran" 0L (Cpu.get cpu Reg.RAX);
  Alcotest.(check int) "decoding filled nothing: only the hlt page" 1
    (zero_fills mem);
  if tier > 0 then
    Alcotest.(check bool) "the sled was compiled" true
      ((Tcache.exec_stats cpu.Cpu.tcache).Tcache.compiles > 1);
  Memory.write_bytes mem 0x2000L
    (Encode.list_to_bytes [ Insn.Mov (Operand.reg Reg.RAX, Operand.imm 5L); Insn.Hlt ]);
  run ();
  Alcotest.check i64 "re-decoded after the first write" 5L (Cpu.get cpu Reg.RAX)

let test_cstr_len () =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~len:8192;
  Memory.write_bytes m 4090L (Bytes.of_string "ABCDEFGHIJ");
  Alcotest.(check int) "crosses the page boundary" 10 (Memory.cstr_len m 4090L);
  Alcotest.(check int) "empty string" 0 (Memory.cstr_len m 0L);
  let m2 = Memory.create () in
  Memory.map m2 ~addr:0L ~len:4096;
  Memory.write_bytes m2 0L (Bytes.make 4096 'A');
  match Memory.cstr_len m2 0L with
  | exception Fault.Trap (Fault.Segfault 4096L) -> ()
  | _ -> Alcotest.fail "expected segfault at the first unmapped byte"

let test_mapped_bytes () =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~len:1;
  Alcotest.(check int) "one page" 4096 (Memory.mapped_bytes m);
  Memory.map m ~addr:0L ~len:4096;
  Alcotest.(check int) "idempotent" 4096 (Memory.mapped_bytes m)

let prop_mem_roundtrip =
  QCheck.Test.make ~name:"u64 write/read roundtrip at any offset" ~count:300
    QCheck.(pair (int_range 0 8184) int64)
    (fun (off, v) ->
      let m = Memory.create () in
      Memory.map m ~addr:0L ~len:8192;
      Memory.write_u64 m (Int64.of_int off) v;
      Memory.read_u64 m (Int64.of_int off) = v)

(* ---- page directory ---------------------------------------------------------- *)

let test_map_bounded () =
  (* nothing at or above the top of guest space is mapped, and a bad
     range is refused before anything is allocated *)
  let rejects what addr len =
    let m = Memory.create () in
    let before = Gc.allocated_bytes () in
    (match Memory.map m ~addr ~len with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s: mapped" what);
    let allocated = Gc.allocated_bytes () -. before in
    if allocated > 1e6 then Alcotest.failf "%s: rejecting allocated %.0f bytes" what allocated;
    Alcotest.(check int) (what ^ ": nothing mapped") 0 (Memory.mapped_bytes m)
  in
  (* one flipped byte turns data_base 0x60_0000 into 0x1900_0060_0000 *)
  rejects "flipped data base" 0x1900_0060_0000L 4096;
  rejects "end wraps past 2^64" 0xFFFF_FFFF_FFFF_F000L 8192;
  rejects "top of the 47-bit space" 0x7FFF_FFFF_F000L 4096;
  rejects "at the cap" Layout.guest_top 1;
  rejects "last byte at the cap" (Int64.sub Layout.guest_top 4096L) 4097;
  rejects "negative address" Int64.min_int 4096;
  let m = Memory.create () in
  let last = Int64.sub Layout.guest_top 8L in
  Memory.map m ~addr:last ~len:8;
  Memory.write_u64 m last 0x0123456789ABCDEFL;
  Alcotest.check i64 "the last page below the cap works" 0x0123456789ABCDEFL
    (Memory.read_u64 m last);
  (match Memory.read_u8 m Layout.guest_top with
  | exception Fault.Trap (Fault.Segfault a) when a = Layout.guest_top -> ()
  | _ -> Alcotest.fail "the cap itself must fault")

(* Words allocated straight into the major heap (blocks too large for
   the minor heap). A full major cycle first, because the runtime folds
   direct major allocations into [major_words] only at a major slice,
   and minor-heap promotions into [promoted_words] only at a minor one. *)
let direct_major_words () =
  Gc.full_major ();
  let s = Gc.quick_stat () in
  s.Gc.major_words -. s.Gc.promoted_words

let test_clone_allocation () =
  (* a fork copies the directory's top level, which for the fixed guest
     layout fits the minor heap: cloning a booted fork server allocates
     nothing directly in the major heap, and a clone plus one stack
     write allocates at most the one page payload the write copies *)
  let image =
    Mcc.Driver.compile ~scheme:Pssp.Scheme.Ssp
      (Minic.Parser.parse (Workload.Vuln.fork_server ~buffer_size:16))
  in
  let k = Os.Kernel.create () in
  let p = Os.Kernel.spawn k image in
  Os.Kernel.enqueue k p;
  Os.Kernel.schedule k;
  Alcotest.(check bool) "the server boots to accept" true
    (Os.Kernel.stop_of p = Os.Kernel.Stop_accept);
  let mem = p.Os.Process.mem in
  let clones = 1000 in
  let page_words = Obj.reachable_words (Obj.repr (Bytes.create Memory.page_size)) in
  let before = direct_major_words () in
  for _ = 1 to clones do
    ignore (Sys.opaque_identity (Memory.clone mem))
  done;
  let grew = direct_major_words () -. before in
  if grew > 0. then
    Alcotest.failf "%d clones allocated %.0f direct major words (%.1f per clone)" clones
      grew (grew /. float clones);
  let sp = Int64.sub Layout.stack_top 128L in
  let before = direct_major_words () in
  for i = 1 to clones do
    Memory.write_u64 (Memory.clone mem) sp (Int64.of_int i)
  done;
  let grew = direct_major_words () -. before in
  if grew > float (clones * page_words) then
    Alcotest.failf "%d clone+write rounds allocated %.0f direct major words (%.1f per round)"
      clones grew (grew /. float clones)

(* Model-based test of the directory: random map / clone / write / read
   / payload_shared sequences over a family of up to six spaces, against
   a naive model with one [Hashtbl] from page index to bytes per space. *)

(* Pages on both sides of chunk (64-page) and node (1024-page)
   boundaries, chunk 511 (the wasm spill, the last of the initial
   directory), the first node past it, and the last pages below the
   cap. *)
let dir_pages =
  [|
    0x0L; 0x3_F000L; 0x4_0000L; 0x3F_F000L; 0x40_0000L; 0x07FB_F000L; 0x07FC_0000L;
    0x07FF_F000L; 0x0800_0000L; 0xFFFF_E000L; 0xFFFF_F000L;
  |]

(* Pages that are never mapped: the cap, a flipped-byte data base, and
   the last page of the 64-bit space (whose next page wraps to 0). *)
let far_pages = [| 0x1_0000_0000L; 0x1900_0060_0000L; 0xFFFF_FFFF_FFFF_F000L |]

type dir_op =
  | Map of int * int64 * int
  | Clone of int
  | Write_u64 of int * int64 * int64
  | Write_bytes of int * int64 * int * int  (* space, addr, length, fill seed *)
  | Read_u64 of int * int64
  | Shared of int * int64

let print_dir_op = function
  | Map (s, a, l) -> Printf.sprintf "map %d 0x%Lx +%d" s a l
  | Clone s -> Printf.sprintf "clone %d" s
  | Write_u64 (s, a, v) -> Printf.sprintf "write_u64 %d 0x%Lx 0x%Lx" s a v
  | Write_bytes (s, a, l, seed) -> Printf.sprintf "write_bytes %d 0x%Lx +%d (%d)" s a l seed
  | Read_u64 (s, a) -> Printf.sprintf "read_u64 %d 0x%Lx" s a
  | Shared (s, a) -> Printf.sprintf "payload_shared %d 0x%Lx" s a

let gen_dir_ops =
  let open QCheck.Gen in
  let space = int_bound 5 in
  let page = frequency [ (6, oneofa dir_pages); (1, oneofa far_pages) ] in
  let addr =
    map2 (fun p o -> Int64.add p (Int64.of_int o)) page
      (oneofl [ 0; 8; 1000; 4088; 4092; 4095 ])
  in
  let op =
    frequency
      [
        ( 3,
          map3 (fun s a l -> Map (s, a, l)) space addr
            (oneof [ int_range 1 (3 * 4096); return 8192 ]) );
        (1, map (fun s -> Clone s) space);
        (3, map3 (fun s a v -> Write_u64 (s, a, v)) space addr ui64);
        ( 2,
          map3 (fun s a (l, seed) -> Write_bytes (s, a, l, seed)) space addr
            (pair (int_range 1 5000) (int_bound 255)) );
        (3, map2 (fun s a -> Read_u64 (s, a)) space addr);
        (2, map2 (fun s a -> Shared (s, a)) space addr);
      ]
  in
  list_size (int_range 1 40) op

type model_page = { bytes : Bytes.t; mutable priv : bool; mutable zero : bool }

let prop_directory_model =
  QCheck.Test.make ~name:"directory matches a naive model" ~count:200
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map print_dir_op ops)) gen_dir_ops)
    (fun ops ->
      let root = Memory.create () in
      let spaces = ref [| (root, Hashtbl.create 16) |] in
      let clones = ref 0 and aliased = ref 0 and cow = ref 0 and fills = ref 0 in
      let space i = !spaces.(i mod Array.length !spaces) in
      let page_index a = Int64.to_int (Int64.shift_right_logical a 12) in
      let off a = Int64.to_int (Int64.logand a 0xFFFL) in
      let fault = function
        | Fault.Trap (Fault.Segfault a) -> Error a
        | e -> raise e
      in
      let real f = try Ok (f ()) with e -> fault e in
      (* the model writes and reads a byte at a time *)
      let write_byte tbl a c =
        match Hashtbl.find_opt tbl (page_index a) with
        | None -> raise (Fault.Trap (Fault.Segfault a))
        | Some p ->
          if not p.priv then begin
            incr cow;
            p.priv <- true;
            p.zero <- false
          end
          else if p.zero then begin
            incr fills;
            p.zero <- false
          end;
          Bytes.set p.bytes (off a) c
      in
      let read_byte tbl a =
        match Hashtbl.find_opt tbl (page_index a) with
        | None -> raise (Fault.Trap (Fault.Segfault a))
        | Some p -> Char.code (Bytes.get p.bytes (off a))
      in
      let model_write tbl a src =
        real (fun () ->
            Bytes.iteri (fun i c -> write_byte tbl (Int64.add a (Int64.of_int i)) c) src)
      in
      let check_pages (m, tbl) a len =
        (* every mapped page a write touched holds the model's bytes *)
        let first = page_index a and last = page_index (Int64.add a (Int64.of_int (len - 1))) in
        List.iter
          (fun pg ->
            match Hashtbl.find_opt tbl pg with
            | None -> ()
            | Some p ->
              let base = Int64.shift_left (Int64.of_int pg) 12 in
              if not (Bytes.equal (Memory.read_bytes m base 4096) p.bytes) then
                QCheck.Test.fail_reportf "page 0x%Lx differs from the model" base)
          (* a range at the top of the 64-bit space wraps to page 0 *)
          (if last >= first then List.init (last - first + 1) (fun i -> first + i)
           else [ first; last ])
      in
      let expect what real model =
        if real <> model then
          let show = function Ok v -> Printf.sprintf "0x%Lx" v | Error a -> Printf.sprintf "fault 0x%Lx" a in
          QCheck.Test.fail_reportf "%s: memory %s, model %s" what (show real) (show model)
      in
      let step op =
        match op with
        | Map (s, addr, len) ->
          let m, tbl = space s in
          let last = Int64.add addr (Int64.of_int (len - 1)) in
          let ok =
            Int64.unsigned_compare last addr >= 0
            && Int64.unsigned_compare last Layout.guest_top < 0
          in
          (match Memory.map m ~addr ~len with
          | () -> if not ok then QCheck.Test.fail_reportf "map past the cap accepted"
          | exception Invalid_argument _ ->
            if ok then QCheck.Test.fail_reportf "map inside the cap refused");
          if ok then
            for pg = page_index addr to page_index last do
              if not (Hashtbl.mem tbl pg) then
                Hashtbl.replace tbl pg
                  { bytes = Bytes.make 4096 '\000'; priv = true; zero = true }
            done
        | Clone s ->
          let m, tbl = space s in
          let child = Memory.clone m in
          incr clones;
          aliased := !aliased + Hashtbl.length tbl;
          let ctbl = Hashtbl.create 16 in
          Hashtbl.iter
            (fun pg p ->
              p.priv <- false;
              Hashtbl.replace ctbl pg { bytes = Bytes.copy p.bytes; priv = false; zero = false })
            tbl;
          if Array.length !spaces < 6 then spaces := Array.append !spaces [| (child, ctbl) |]
        | Write_u64 (s, a, v) ->
          let ((m, tbl) as sp) = space s in
          let src = Bytes.create 8 in
          Bytes.set_int64_le src 0 v;
          let r = real (fun () -> Memory.write_u64 m a v) in
          let r' = model_write tbl a src in
          expect "write_u64" (Result.map (fun () -> 0L) r) (Result.map (fun () -> 0L) r');
          check_pages sp a 8
        | Write_bytes (s, a, len, seed) ->
          let ((m, tbl) as sp) = space s in
          let src = Bytes.init len (fun i -> Char.chr ((seed + (i * 7)) land 0xFF)) in
          let r = real (fun () -> Memory.write_bytes m a src) in
          let r' = model_write tbl a src in
          expect "write_bytes" (Result.map (fun () -> 0L) r) (Result.map (fun () -> 0L) r');
          check_pages sp a len
        | Read_u64 (s, a) ->
          let m, tbl = space s in
          let model () =
            (* in-page reads fault at the address; a spanning read is a
               byte loop from the high byte down *)
            if off a + 8 <= 4096 then ignore (read_byte tbl a);
            let v = ref 0L in
            for i = 7 downto 0 do
              let b = read_byte tbl (Int64.add a (Int64.of_int i)) in
              v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int b)
            done;
            !v
          in
          expect "read_u64" (real (fun () -> Memory.read_u64 m a)) (real model)
        | Shared (s, a) ->
          let m, tbl = space s in
          let model =
            match Hashtbl.find_opt tbl (page_index a) with
            | Some p -> not p.priv
            | None -> false
          in
          if Memory.payload_shared m a <> model then
            QCheck.Test.fail_reportf "payload_shared 0x%Lx: memory %b, model %b" a
              (Memory.payload_shared m a) model
      in
      List.iter
        (fun op ->
          step op;
          let st = Memory.family_stats root in
          if
            st.Memory.clones <> !clones
            || st.Memory.pages_aliased <> !aliased
            || st.Memory.cow_breaks <> !cow
            || st.Memory.zero_fills <> !fills
          then
            QCheck.Test.fail_reportf
              "after %s: clones %d/%d aliased %d/%d cow_breaks %d/%d zero_fills %d/%d"
              (print_dir_op op) st.Memory.clones !clones st.Memory.pages_aliased !aliased
              st.Memory.cow_breaks !cow st.Memory.zero_fills !fills)
        ops;
      Array.iteri
        (fun i (m, tbl) ->
          let mapped = Hashtbl.length tbl * 4096 in
          let resident =
            Hashtbl.fold (fun _ p acc -> if p.priv then acc + 4096 else acc) tbl 0
          in
          if
            Memory.mapped_bytes m <> mapped
            || Memory.resident_bytes m <> resident
            || Memory.resident_bytes m + Memory.shared_bytes m <> Memory.mapped_bytes m
          then
            QCheck.Test.fail_reportf "space %d: mapped %d/%d resident %d/%d shared %d" i
              (Memory.mapped_bytes m) mapped (Memory.resident_bytes m) resident
              (Memory.shared_bytes m);
          Array.iter
            (fun pg ->
              if Memory.is_mapped m pg <> Hashtbl.mem tbl (page_index pg) then
                QCheck.Test.fail_reportf "space %d: is_mapped 0x%Lx disagrees" i pg)
            (Array.append dir_pages far_pages);
          Hashtbl.iter
            (fun pg p ->
              let base = Int64.shift_left (Int64.of_int pg) 12 in
              if not (Bytes.equal (Memory.read_bytes m base 4096) p.bytes) then
                QCheck.Test.fail_reportf "space %d: page 0x%Lx differs from the model" i base)
            tbl)
        !spaces;
      true)

(* ---- execution harness ----------------------------------------------------- *)

let env = Exec.create_env ~is_builtin:(fun a -> if a = 0x100L then Some "fake" else None) ()

let run_insns ?(setup = fun _ _ -> ()) insns =
  let cpu = Cpu.create () in
  let mem = Memory.create () in
  Memory.map mem ~addr:0x1000L ~len:4096;
  Memory.map mem ~addr:0x20000L ~len:8192;
  Memory.map mem ~addr:0x70000L ~len:8192;
  Cpu.set cpu Reg.RSP 0x71000L;
  Memory.write_bytes mem 0x1000L (Encode.list_to_bytes (insns @ [ Insn.Hlt ]));
  cpu.Cpu.rip <- 0x1000L;
  setup cpu mem;
  let rec loop n =
    if n > 10000 then Alcotest.fail "runaway program";
    match Exec.step env cpu mem with
    | Exec.Running -> loop (n + 1)
    | Exec.Halted -> ()
    | Exec.Builtin name -> Alcotest.fail ("unexpected builtin " ^ name)
    | Exec.Syscall_trap -> Alcotest.fail "unexpected syscall"
    | Exec.Faulted f -> Alcotest.fail ("unexpected fault: " ^ Fault.to_string f)
  in
  loop 0;
  (cpu, mem)

let rax = Operand.reg Reg.RAX
let rbx = Operand.reg Reg.RBX
let rcx = Operand.reg Reg.RCX

let test_mov_imm () =
  let cpu, _ = run_insns [ Insn.Mov (rax, Operand.imm 7L) ] in
  Alcotest.check i64 "rax" 7L (Cpu.get cpu Reg.RAX)

let test_arith () =
  let cpu, _ =
    run_insns
      [
        Insn.Mov (rax, Operand.imm 10L);
        Insn.Mov (rbx, Operand.imm 3L);
        Insn.Bin (Insn.Sub, rax, rbx);
        Insn.Bin (Insn.Imul, rax, Operand.imm 6L);
        Insn.Bin (Insn.Idiv, rax, Operand.imm 5L);
        Insn.Bin (Insn.Irem, rax, Operand.imm 3L);
      ]
  in
  Alcotest.check i64 "arith chain" 2L (Cpu.get cpu Reg.RAX)

let test_div_by_zero_faults () =
  let cpu = Cpu.create () in
  let mem = Memory.create () in
  Memory.map mem ~addr:0x1000L ~len:4096;
  Memory.write_bytes mem 0x1000L
    (Encode.list_to_bytes
       [ Insn.Mov (rax, Operand.imm 1L); Insn.Bin (Insn.Idiv, rax, Operand.imm 0L) ]);
  cpu.Cpu.rip <- 0x1000L;
  let rec loop () =
    match Exec.step env cpu mem with
    | Exec.Running -> loop ()
    | Exec.Faulted (Fault.Bad_instruction (_, msg)) ->
      Alcotest.(check string) "reason" "division by zero" msg
    | _ -> Alcotest.fail "expected fault"
  in
  loop ()

let test_flags_and_setcc () =
  let cpu, _ =
    run_insns
      [
        Insn.Mov (rax, Operand.imm 3L);
        Insn.Mov (rbx, Operand.imm 9L);
        Insn.Bin (Insn.Cmp, rax, rbx);
        Insn.Setcc (Insn.L, Reg.RCX);
        Insn.Bin (Insn.Cmp, rbx, rax);
        Insn.Setcc (Insn.G, Reg.RDX);
      ]
  in
  Alcotest.check i64 "setl" 1L (Cpu.get cpu Reg.RCX);
  Alcotest.check i64 "setg" 1L (Cpu.get cpu Reg.RDX)

let test_unsigned_conditions () =
  let cpu, _ =
    run_insns
      [
        Insn.Mov (rax, Operand.imm (-1L));
        Insn.Mov (rbx, Operand.imm 1L);
        Insn.Bin (Insn.Cmp, rax, rbx);
        Insn.Setcc (Insn.A, Reg.RCX);
        Insn.Bin (Insn.Cmp, rax, rbx);
        Insn.Setcc (Insn.L, Reg.RDX);
      ]
  in
  Alcotest.check i64 "above (unsigned)" 1L (Cpu.get cpu Reg.RCX);
  Alcotest.check i64 "less (signed)" 1L (Cpu.get cpu Reg.RDX)

let test_push_pop_stack () =
  let cpu, _ =
    run_insns
      [
        Insn.Mov (rax, Operand.imm 0xABCL);
        Insn.Push rax;
        Insn.Mov (rax, Operand.imm 0L);
        Insn.Pop rbx;
      ]
  in
  Alcotest.check i64 "popped" 0xABCL (Cpu.get cpu Reg.RBX);
  Alcotest.check i64 "rsp restored" 0x71000L (Cpu.get cpu Reg.RSP)

let test_call_ret () =
  let fn = [ Insn.Mov (rbx, Operand.imm 55L); Insn.Ret ] in
  let fn_addr = 0x1800L in
  let cpu = Cpu.create () in
  let mem = Memory.create () in
  Memory.map mem ~addr:0x1000L ~len:8192;
  Memory.map mem ~addr:0x70000L ~len:8192;
  Cpu.set cpu Reg.RSP 0x71000L;
  Memory.write_bytes mem 0x1000L
    (Encode.list_to_bytes [ Insn.Call (Insn.Abs fn_addr); Insn.Hlt ]);
  Memory.write_bytes mem fn_addr (Encode.list_to_bytes fn);
  cpu.Cpu.rip <- 0x1000L;
  let rec loop () =
    match Exec.step env cpu mem with
    | Exec.Running -> loop ()
    | Exec.Halted -> ()
    | _ -> Alcotest.fail "unexpected stop"
  in
  loop ();
  Alcotest.check i64 "callee ran" 55L (Cpu.get cpu Reg.RBX);
  Alcotest.check i64 "stack balanced" 0x71000L (Cpu.get cpu Reg.RSP)

let test_builtin_call_traps () =
  let cpu = Cpu.create () in
  let mem = Memory.create () in
  Memory.map mem ~addr:0x1000L ~len:4096;
  Memory.map mem ~addr:0x70000L ~len:8192;
  Cpu.set cpu Reg.RSP 0x71000L;
  Memory.write_bytes mem 0x1000L
    (Encode.list_to_bytes [ Insn.Call (Insn.Abs 0x100L); Insn.Hlt ]);
  cpu.Cpu.rip <- 0x1000L;
  (match Exec.step env cpu mem with
  | Exec.Builtin "fake" -> ()
  | _ -> Alcotest.fail "expected builtin trap");
  Alcotest.check i64 "rsp untouched (no ret pushed)" 0x71000L (Cpu.get cpu Reg.RSP);
  match Exec.step env cpu mem with
  | Exec.Halted -> ()
  | _ -> Alcotest.fail "expected hlt after builtin"

let test_leave () =
  let cpu, _ =
    run_insns
      [
        Insn.Mov (Operand.reg Reg.RBP, Operand.imm 0x9999L);
        Insn.Push (Operand.reg Reg.RBP);
        Insn.Mov (Operand.reg Reg.RBP, Operand.reg Reg.RSP);
        Insn.Bin (Insn.Sub, Operand.reg Reg.RSP, Operand.imm 64L);
        Insn.Leave;
      ]
  in
  Alcotest.check i64 "rbp restored" 0x9999L (Cpu.get cpu Reg.RBP);
  Alcotest.check i64 "rsp popped" 0x71000L (Cpu.get cpu Reg.RSP)

let test_movb_merges () =
  let cpu, _ =
    run_insns
      [
        Insn.Mov (rax, Operand.imm 0x1111111111111111L);
        Insn.Movb (rax, Operand.imm 0xFFL);
      ]
  in
  Alcotest.check i64 "low byte merged" 0x11111111111111FFL (Cpu.get cpu Reg.RAX)

let test_movl_zero_extends () =
  let cpu, _ =
    run_insns
      [ Insn.Mov (rax, Operand.imm (-1L)); Insn.Movl (rax, Operand.imm 0x1234L) ]
  in
  Alcotest.check i64 "zero extended" 0x1234L (Cpu.get cpu Reg.RAX)

let test_lea_addressing () =
  let cpu, _ =
    run_insns
      [
        Insn.Mov (rbx, Operand.imm 0x1000L);
        Insn.Mov (rcx, Operand.imm 4L);
        Insn.Lea
          ( Reg.RAX,
            { Operand.seg_fs = false; base = Some Reg.RBX;
              index = Some (Reg.RCX, Operand.S8); disp = 16L } );
      ]
  in
  Alcotest.check i64 "base+index*8+disp" 0x1030L (Cpu.get cpu Reg.RAX)

let test_fs_segment () =
  let setup cpu mem =
    cpu.Cpu.fs_base <- 0x20000L;
    Memory.write_u64 mem 0x20028L 0xCAFEL
  in
  let cpu, _ = run_insns ~setup [ Insn.Mov (rax, Operand.fs 0x28L) ] in
  Alcotest.check i64 "TLS load" 0xCAFEL (Cpu.get cpu Reg.RAX)

let test_rdrand_sets_cf () =
  let cpu, _ = run_insns [ Insn.Rdrand Reg.RAX ] in
  Alcotest.(check bool) "CF set" true cpu.Cpu.flags.Cpu.cf

let test_rdrand_deterministic_per_seed () =
  let run () =
    let cpu, _ = run_insns [ Insn.Rdrand Reg.RAX ] in
    Cpu.get cpu Reg.RAX
  in
  Alcotest.check i64 "same seed, same entropy" (run ()) (run ())

let test_rdtsc_composition () =
  let cpu, _ =
    run_insns
      [
        Insn.Nop; Insn.Nop;
        Insn.Rdtsc;
        Insn.Shift (Insn.Shl, Operand.reg Reg.RDX, 32);
        Insn.Bin (Insn.Or, rax, Operand.reg Reg.RDX);
      ]
  in
  let v = Cpu.get cpu Reg.RAX in
  Alcotest.(check bool) "plausible tsc" true
    (Int64.compare v 0L > 0 && Int64.compare v 1000L < 0)

let test_aesenc_matches_crypto () =
  let setup cpu _ =
    Cpu.set_xmm cpu Reg.Xmm.xmm0 (0x1111L, 0x2222L);
    Cpu.set_xmm cpu Reg.Xmm.xmm1 (0x3333L, 0x4444L)
  in
  let cpu, _ = run_insns ~setup [ Insn.Aesenc (Reg.Xmm.xmm0, Reg.Xmm.xmm1) ] in
  let state = Bytes.create 16 in
  Bytes.set_int64_le state 0 0x1111L;
  Bytes.set_int64_le state 8 0x2222L;
  let rk = Bytes.create 16 in
  Bytes.set_int64_le rk 0 0x3333L;
  Bytes.set_int64_le rk 8 0x4444L;
  let expect = Crypto.Aes128.aesenc ~state ~round_key:rk in
  let lo, hi = Cpu.get_xmm cpu Reg.Xmm.xmm0 in
  Alcotest.check i64 "lo" (Bytes.get_int64_le expect 0) lo;
  Alcotest.check i64 "hi" (Bytes.get_int64_le expect 8) hi

let test_pcmpeq128 () =
  let setup cpu mem =
    Cpu.set_xmm cpu Reg.Xmm.xmm15 (0xAAL, 0xBBL);
    Memory.write_u64 mem 0x20000L 0xAAL;
    Memory.write_u64 mem 0x20008L 0xBBL
  in
  let mem_op =
    { Operand.seg_fs = false; base = None; index = None; disp = 0x20000L }
  in
  let cpu, _ = run_insns ~setup [ Insn.Pcmpeq128 (Reg.Xmm.xmm15, mem_op) ] in
  Alcotest.(check bool) "equal -> ZF" true cpu.Cpu.flags.Cpu.zf;
  let setup2 cpu mem =
    setup cpu mem;
    Memory.write_u64 mem 0x20008L 0xBCL
  in
  let cpu2, _ = run_insns ~setup:setup2 [ Insn.Pcmpeq128 (Reg.Xmm.xmm15, mem_op) ] in
  Alcotest.(check bool) "mismatch -> not ZF" false cpu2.Cpu.flags.Cpu.zf

let test_xmm_moves () =
  let setup cpu mem =
    Cpu.set cpu Reg.R12 0x12L;
    Cpu.set cpu Reg.R13 0x13L;
    Memory.write_u64 mem 0x20010L 0x99L
  in
  let _, mem =
    run_insns ~setup
      [
        Insn.Movq_to_xmm (Reg.Xmm.xmm1, Reg.R13);
        Insn.Pinsrq_high (Reg.Xmm.xmm1, Reg.R12);
        Insn.Movhps_load
          (Reg.Xmm.xmm1, { Operand.seg_fs = false; base = None; index = None; disp = 0x20010L });
        Insn.Movdqu_store
          ({ Operand.seg_fs = false; base = None; index = None; disp = 0x20020L }, Reg.Xmm.xmm1);
      ]
  in
  Alcotest.check i64 "low lane" 0x13L (Memory.read_u64 mem 0x20020L);
  Alcotest.check i64 "high lane (movhps overwrote pinsrq)" 0x99L
    (Memory.read_u64 mem 0x20028L)

let test_exec_faults_reported () =
  let cpu = Cpu.create () in
  let mem = Memory.create () in
  Memory.map mem ~addr:0x1000L ~len:4096;
  Memory.write_bytes mem 0x1000L
    (Encode.list_to_bytes [ Insn.Mov (rax, Operand.mem 0x9000000L) ]);
  cpu.Cpu.rip <- 0x1000L;
  match Exec.step env cpu mem with
  | Exec.Faulted (Fault.Segfault 0x9000000L) -> ()
  | _ -> Alcotest.fail "expected segfault"

let test_fetch_unmapped () =
  let cpu = Cpu.create () in
  let mem = Memory.create () in
  cpu.Cpu.rip <- 0x41414141L;
  match Exec.step env cpu mem with
  | Exec.Faulted (Fault.Segfault _) -> ()
  | _ -> Alcotest.fail "expected fetch fault"

let test_fetch_fault_retires_zero () =
  (* fuel pinning around a segfaulting rip: the block before the bad
     jump retires and is charged normally; the faulting fetch itself
     retires 0 instructions and charges nothing *)
  let cpu = Cpu.create () in
  let mem = Memory.create () in
  Memory.map mem ~addr:0x1000L ~len:4096;
  Memory.write_bytes mem 0x1000L
    (Encode.list_to_bytes [ Insn.Nop; Insn.Nop; Insn.Jmp (Insn.Abs 0x9000000L) ]);
  cpu.Cpu.rip <- 0x1000L;
  (match Exec.step_block env cpu mem ~max_insns:50 with
  | Exec.Running, 3 -> ()
  | _, n -> Alcotest.failf "block before the fault: %d retired, want 3" n);
  Alcotest.(check bool) "block was charged" true (cpu.Cpu.cycles > 0L);
  let cycles_at_fault = cpu.Cpu.cycles in
  (match Exec.step_block env cpu mem ~max_insns:50 with
  | Exec.Faulted (Fault.Segfault 0x9000000L), 0 -> ()
  | Exec.Faulted _, n -> Alcotest.failf "faulting fetch retired %d, want 0" n
  | _ -> Alcotest.fail "expected fetch segfault");
  Alcotest.check i64 "faulting fetch charged nothing" cycles_at_fault
    cpu.Cpu.cycles;
  (* and a whole-run over the same program still terminates *)
  let cpu2 = Cpu.create () in
  cpu2.Cpu.rip <- 0x1000L;
  match Exec.run env cpu2 mem with
  | Exec.Stopped (Exec.Faulted (Fault.Segfault 0x9000000L)) ->
    Alcotest.check i64 "run charged only the retired block" cycles_at_fault
      cpu2.Cpu.cycles
  | _ -> Alcotest.fail "run did not stop on the fetch fault"

let test_insn_tax_charged () =
  let measure tax =
    let cpu = Cpu.create () in
    cpu.Cpu.insn_tax <- tax;
    let mem = Memory.create () in
    Memory.map mem ~addr:0x1000L ~len:4096;
    Memory.write_bytes mem 0x1000L
      (Encode.list_to_bytes [ Insn.Nop; Insn.Nop; Insn.Hlt ]);
    cpu.Cpu.rip <- 0x1000L;
    let rec loop () =
      match Exec.step env cpu mem with Exec.Running -> loop () | _ -> ()
    in
    loop ();
    cpu.Cpu.cycles
  in
  Alcotest.check i64 "tax adds per insn" (Int64.add (measure 0) 15L) (measure 5)

let test_call_tax_charged () =
  let measure tax =
    let cpu = Cpu.create () in
    cpu.Cpu.call_tax <- tax;
    let mem = Memory.create () in
    Memory.map mem ~addr:0x1000L ~len:4096;
    Memory.map mem ~addr:0x70000L ~len:8192;
    Cpu.set cpu Reg.RSP 0x71000L;
    Memory.write_bytes mem 0x1000L
      (Encode.list_to_bytes [ Insn.Call (Insn.Abs 0x1100L); Insn.Hlt ]);
    Memory.write_bytes mem 0x1100L (Encode.list_to_bytes [ Insn.Ret ]);
    cpu.Cpu.rip <- 0x1000L;
    let rec loop () =
      match Exec.step env cpu mem with Exec.Running -> loop () | _ -> ()
    in
    loop ();
    cpu.Cpu.cycles
  in
  (* one call + one ret = 2 taxed instructions *)
  Alcotest.check i64 "call tax" (Int64.add (measure 0) 20L) (measure 10)

let test_run_fuel () =
  let cpu = Cpu.create () in
  let mem = Memory.create () in
  Memory.map mem ~addr:0x1000L ~len:4096;
  Memory.write_bytes mem 0x1000L (Encode.list_to_bytes [ Insn.Jmp (Insn.Abs 0x1000L) ]);
  cpu.Cpu.rip <- 0x1000L;
  match Exec.run ~max_insns:100 env cpu mem with
  | Exec.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion"

let expect_bad_instruction insns reason =
  let cpu = Cpu.create () in
  let mem = Memory.create () in
  Memory.map mem ~addr:0x1000L ~len:4096;
  Memory.write_bytes mem 0x1000L (Encode.list_to_bytes (insns @ [ Insn.Hlt ]));
  cpu.Cpu.rip <- 0x1000L;
  let rec loop () =
    match Exec.step env cpu mem with
    | Exec.Running -> loop ()
    | Exec.Faulted (Fault.Bad_instruction (_, msg)) ->
      Alcotest.(check string) "reason" reason msg
    | _ -> Alcotest.fail "expected fault"
  in
  loop ()

let test_div_overflow_faults () =
  (* INT64_MIN / -1 overflows the quotient: x86 raises #DE, same as /0. *)
  expect_bad_instruction
    [
      Insn.Mov (rax, Operand.imm Int64.min_int);
      Insn.Bin (Insn.Idiv, rax, Operand.imm (-1L));
    ]
    "division overflow";
  expect_bad_instruction
    [
      Insn.Mov (rax, Operand.imm Int64.min_int);
      Insn.Bin (Insn.Irem, rax, Operand.imm (-1L));
    ]
    "division overflow"

let test_shift_count_zero_preserves_flags () =
  let cpu, _ =
    run_insns
      [
        Insn.Mov (rax, Operand.imm (-1L));
        Insn.Bin (Insn.Cmp, rax, rax);
        (* both shifts mask to count 0: flags and destination untouched *)
        Insn.Shift (Insn.Shl, rax, 0);
        Insn.Shift (Insn.Shr, rax, 64);
      ]
  in
  Alcotest.(check bool) "ZF preserved across count-0 shifts" true
    cpu.Cpu.flags.Cpu.zf;
  Alcotest.check i64 "destination untouched" (-1L) (Cpu.get cpu Reg.RAX)

let test_neg_min_int_flags () =
  let cpu, _ =
    run_insns [ Insn.Mov (rax, Operand.imm Int64.min_int); Insn.Neg rax ]
  in
  Alcotest.(check bool) "CF set (nonzero source)" true cpu.Cpu.flags.Cpu.cf;
  Alcotest.(check bool) "OF set (INT64_MIN)" true cpu.Cpu.flags.Cpu.of_;
  Alcotest.check i64 "INT64_MIN negates to itself" Int64.min_int
    (Cpu.get cpu Reg.RAX);
  let cpu0, _ = run_insns [ Insn.Mov (rax, Operand.imm 0L); Insn.Neg rax ] in
  Alcotest.(check bool) "CF clear for zero" false cpu0.Cpu.flags.Cpu.cf;
  Alcotest.(check bool) "OF clear for zero" false cpu0.Cpu.flags.Cpu.of_

(* ---- translation cache ------------------------------------------------------ *)

let run_to_halt cpu mem =
  let rec loop n =
    if n > 10000 then Alcotest.fail "runaway program";
    match Exec.step env cpu mem with
    | Exec.Running -> loop (n + 1)
    | Exec.Halted -> ()
    | other -> ignore other; Alcotest.fail "unexpected stop"
  in
  loop 0

let test_decode_cache_invalidation () =
  let cpu = Cpu.create () in
  let mem = Memory.create () in
  Memory.map mem ~addr:0x1000L ~len:4096;
  let code v = Encode.list_to_bytes [ Insn.Mov (rax, Operand.imm v); Insn.Hlt ] in
  Memory.write_bytes mem 0x1000L (code 1L);
  cpu.Cpu.rip <- 0x1000L;
  run_to_halt cpu mem;
  Alcotest.check i64 "first run" 1L (Cpu.get cpu Reg.RAX);
  (* patch the text without invalidating: the stale decode still executes *)
  Memory.write_bytes mem 0x1000L (code 2L);
  cpu.Cpu.rip <- 0x1000L;
  run_to_halt cpu mem;
  Alcotest.check i64 "stale until invalidated" 1L (Cpu.get cpu Reg.RAX);
  Cpu.invalidate_decode cpu ~addr:0x1000L ~len:(Bytes.length (code 2L));
  cpu.Cpu.rip <- 0x1000L;
  run_to_halt cpu mem;
  Alcotest.check i64 "patched insn after invalidation" 2L (Cpu.get cpu Reg.RAX)

let test_decode_cache_clone_isolated () =
  let cpu = Cpu.create () in
  let mem = Memory.create () in
  Memory.map mem ~addr:0x1000L ~len:4096;
  let code v = Encode.list_to_bytes [ Insn.Mov (rax, Operand.imm v); Insn.Hlt ] in
  Memory.write_bytes mem 0x1000L (code 1L);
  cpu.Cpu.rip <- 0x1000L;
  run_to_halt cpu mem;
  let child = Cpu.clone cpu in
  (* flushing the child's cache must not flush the parent's *)
  Cpu.invalidate_decode_all child;
  Memory.write_bytes mem 0x1000L (code 9L);
  cpu.Cpu.rip <- 0x1000L;
  run_to_halt cpu mem;
  Alcotest.check i64 "parent keeps its cached decode" 1L (Cpu.get cpu Reg.RAX);
  child.Cpu.rip <- 0x1000L;
  run_to_halt child mem;
  Alcotest.check i64 "child re-decodes the patched text" 9L
    (Cpu.get child Reg.RAX)

let test_decode_cache_lazy_clone () =
  let cpu = Cpu.create () in
  let mem = Memory.create () in
  Memory.map mem ~addr:0x1000L ~len:4096;
  let code v = Encode.list_to_bytes [ Insn.Mov (rax, Operand.imm v); Insn.Hlt ] in
  Memory.write_bytes mem 0x1000L (code 1L);
  cpu.Cpu.rip <- 0x1000L;
  run_to_halt cpu mem;
  let warm_blocks, _ = Tcache.stats cpu.Cpu.tcache in
  let child = Cpu.clone cpu in
  Alcotest.(check bool) "tables aliased after clone" true
    (Tcache.is_shared cpu.Cpu.tcache && Tcache.is_shared child.Cpu.tcache);
  (* re-executing the parent's warm text must not materialise a copy *)
  child.Cpu.rip <- 0x1000L;
  run_to_halt child mem;
  Alcotest.check i64 "child ran the shared decode" 1L (Cpu.get child Reg.RAX);
  Alcotest.(check bool) "still shared after warm re-execution" true
    (Tcache.is_shared child.Cpu.tcache);
  (* a fresh decode in the parent privatises the parent's table only *)
  Memory.write_bytes mem 0x1800L (code 7L);
  cpu.Cpu.rip <- 0x1800L;
  run_to_halt cpu mem;
  Alcotest.(check bool) "parent owns a private table" false
    (Tcache.is_shared cpu.Cpu.tcache);
  Alcotest.(check bool) "child still on the shared table" true
    (Tcache.is_shared child.Cpu.tcache);
  let parent_blocks, _ = Tcache.stats cpu.Cpu.tcache in
  let child_blocks, _ = Tcache.stats child.Cpu.tcache in
  Alcotest.(check bool) "parent gained blocks" true (parent_blocks > warm_blocks);
  Alcotest.(check int) "child did not" warm_blocks child_blocks

let test_cow_patch_text_isolation () =
  (* forked address spaces share text pages CoW; a patch (write +
     decode invalidation) on either side must leave the other running
     its original code *)
  let cpu = Cpu.create () in
  let mem = Memory.create () in
  Memory.map mem ~addr:0x1000L ~len:4096;
  let code v = Encode.list_to_bytes [ Insn.Mov (rax, Operand.imm v); Insn.Hlt ] in
  let len = Bytes.length (code 1L) in
  Memory.write_bytes mem 0x1000L (code 1L);
  cpu.Cpu.rip <- 0x1000L;
  run_to_halt cpu mem;
  (* fork: clone the address space and the cpu, as Kernel.fork_child does *)
  let cmem = Memory.clone mem in
  let ccpu = Cpu.clone cpu in
  Memory.write_bytes mem 0x1000L (code 2L);
  Cpu.invalidate_decode cpu ~addr:0x1000L ~len;
  cpu.Cpu.rip <- 0x1000L;
  run_to_halt cpu mem;
  Alcotest.check i64 "parent executes its patch" 2L (Cpu.get cpu Reg.RAX);
  ccpu.Cpu.rip <- 0x1000L;
  run_to_halt ccpu cmem;
  Alcotest.check i64 "child still runs pre-fork code" 1L (Cpu.get ccpu Reg.RAX);
  Memory.write_bytes cmem 0x1000L (code 3L);
  Cpu.invalidate_decode ccpu ~addr:0x1000L ~len;
  ccpu.Cpu.rip <- 0x1000L;
  run_to_halt ccpu cmem;
  Alcotest.check i64 "child executes its patch" 3L (Cpu.get ccpu Reg.RAX);
  cpu.Cpu.rip <- 0x1000L;
  run_to_halt cpu mem;
  Alcotest.check i64 "parent keeps its own patch" 2L (Cpu.get cpu Reg.RAX)

let test_exec_telemetry () =
  (* the hit/miss/compile/invalidate counters feed the deterministic
     --mem-stats line; pin their exact values on a tiny program *)
  let cpu = Cpu.create () in
  let mem = Memory.create () in
  Memory.map mem ~addr:0x1000L ~len:4096;
  Memory.write_bytes mem 0x1000L (Encode.list_to_bytes [ Insn.Nop; Insn.Hlt ]);
  let snap () = Tcache.exec_stats cpu.Cpu.tcache in
  let run_blocks cpu mem =
    cpu.Cpu.rip <- 0x1000L;
    match Exec.run env cpu mem with
    | Exec.Stopped Exec.Halted -> ()
    | _ -> Alcotest.fail "expected hlt"
  in
  Alcotest.(check int) "fresh cache: no misses" 0 (snap ()).Tcache.misses;
  run_blocks cpu mem;
  let first = snap () in
  Alcotest.(check int) "one decode" 1 first.Tcache.misses;
  Alcotest.(check int) "no hits yet" 0 first.Tcache.hits;
  if Compile.tier () > 0 then
    Alcotest.(check int) "block compiled once" 1 first.Tcache.compiles;
  run_blocks cpu mem;
  let second = snap () in
  Alcotest.(check int) "re-run hits the cache" 1 second.Tcache.hits;
  Alcotest.(check int) "no second decode" 1 second.Tcache.misses;
  Alcotest.(check int) "no recompilation" first.Tcache.compiles
    second.Tcache.compiles;
  Cpu.invalidate_decode_all cpu;
  Alcotest.(check int) "invalidation counted" 1 (snap ()).Tcache.invalidated;
  (* the stats record is family-wide: a fork child's decode shows up *)
  let ccpu = Cpu.clone cpu in
  let cmem = Memory.clone mem in
  run_blocks ccpu cmem;
  Alcotest.(check int) "child's decode visible in family stats" 2
    (snap ()).Tcache.misses

let test_cost_model_anchors () =
  Alcotest.(check bool) "rdrand is expensive" true
    (Cost.cycles (Insn.Rdrand Reg.RAX) > 300);
  Alcotest.(check int) "mov is cheap" 1 (Cost.cycles (Insn.Mov (rax, rbx)));
  Alcotest.(check bool) "aes helper cost near AES-NI"
    true
    (Cost.aes_encrypt_call_cycles > 50 && Cost.aes_encrypt_call_cycles < 200)

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "vm64"
    [
      ( "memory",
        [
          Alcotest.test_case "read/write" `Quick test_mem_rw;
          Alcotest.test_case "u32" `Quick test_mem_u32;
          Alcotest.test_case "cross-page access" `Quick test_mem_cross_page;
          Alcotest.test_case "unmapped faults" `Quick test_mem_unmapped_faults;
          Alcotest.test_case "clone isolation" `Quick test_mem_clone_isolated;
          Alcotest.test_case "cross-page u32/u64 slow paths" `Quick
            test_mem_cross_page_u32_u64;
          Alcotest.test_case "cross-page partial-write fault" `Quick
            test_mem_cross_page_fault_partial;
          Alcotest.test_case "mapped bytes" `Quick test_mapped_bytes;
          Alcotest.test_case "cstr_len" `Quick test_cstr_len;
          qc prop_mem_roundtrip;
        ] );
      ( "cow",
        [
          Alcotest.test_case "isolation both directions" `Quick
            test_cow_isolation_both_directions;
          Alcotest.test_case "fork-of-fork chain" `Quick test_cow_fork_chain;
          Alcotest.test_case "memoized-page write-through" `Quick
            test_cow_memoized_page_write_through;
          Alcotest.test_case "resident/shared accounting" `Quick
            test_cow_accounting;
        ] );
      ( "demand-zero",
        [
          Alcotest.test_case "unwritten pages read zero, count resident"
            `Quick test_demand_zero_reads;
          Alcotest.test_case "first write fills, no CoW break" `Quick
            test_demand_zero_first_write;
          Alcotest.test_case "first write after clone: one CoW break" `Quick
            test_demand_zero_after_clone;
          Alcotest.test_case "writes never leak through the zero page" `Quick
            test_demand_zero_no_leak;
          Alcotest.test_case "re-decode after first write (interpreter)"
            `Quick (test_demand_zero_redecode 0);
          Alcotest.test_case "re-decode after first write (compiled)" `Quick
            (test_demand_zero_redecode 3);
        ] );
      ( "directory",
        [
          Alcotest.test_case "map is bounded by the guest top" `Quick test_map_bounded;
          Alcotest.test_case "clone allocates nothing in the major heap" `Quick
            test_clone_allocation;
          qc prop_directory_model;
        ] );
      ( "alu",
        [
          Alcotest.test_case "mov imm" `Quick test_mov_imm;
          Alcotest.test_case "arith chain" `Quick test_arith;
          Alcotest.test_case "div by zero" `Quick test_div_by_zero_faults;
          Alcotest.test_case "div overflow" `Quick test_div_overflow_faults;
          Alcotest.test_case "shift count 0 keeps flags" `Quick
            test_shift_count_zero_preserves_flags;
          Alcotest.test_case "neg min_int flags" `Quick test_neg_min_int_flags;
          Alcotest.test_case "signed conditions" `Quick test_flags_and_setcc;
          Alcotest.test_case "unsigned conditions" `Quick test_unsigned_conditions;
          Alcotest.test_case "movb merges" `Quick test_movb_merges;
          Alcotest.test_case "movl zero-extends" `Quick test_movl_zero_extends;
          Alcotest.test_case "lea addressing" `Quick test_lea_addressing;
        ] );
      ( "control",
        [
          Alcotest.test_case "push/pop" `Quick test_push_pop_stack;
          Alcotest.test_case "call/ret" `Quick test_call_ret;
          Alcotest.test_case "builtin trap" `Quick test_builtin_call_traps;
          Alcotest.test_case "leave" `Quick test_leave;
          Alcotest.test_case "fuel" `Quick test_run_fuel;
        ] );
      ( "special",
        [
          Alcotest.test_case "fs segment" `Quick test_fs_segment;
          Alcotest.test_case "rdrand sets CF" `Quick test_rdrand_sets_cf;
          Alcotest.test_case "rdrand deterministic per seed" `Quick
            test_rdrand_deterministic_per_seed;
          Alcotest.test_case "rdtsc composition" `Quick test_rdtsc_composition;
          Alcotest.test_case "aesenc = crypto" `Quick test_aesenc_matches_crypto;
          Alcotest.test_case "pcmpeq128" `Quick test_pcmpeq128;
          Alcotest.test_case "xmm moves" `Quick test_xmm_moves;
        ] );
      ( "faults+cost",
        [
          Alcotest.test_case "data segfault" `Quick test_exec_faults_reported;
          Alcotest.test_case "fetch segfault" `Quick test_fetch_unmapped;
          Alcotest.test_case "fetch fault retires zero" `Quick
            test_fetch_fault_retires_zero;
          Alcotest.test_case "insn tax" `Quick test_insn_tax_charged;
          Alcotest.test_case "call tax" `Quick test_call_tax_charged;
          Alcotest.test_case "cost anchors" `Quick test_cost_model_anchors;
        ] );
      ( "tcache",
        [
          Alcotest.test_case "invalidation picks up patches" `Quick
            test_decode_cache_invalidation;
          Alcotest.test_case "clone cache isolated" `Quick
            test_decode_cache_clone_isolated;
          Alcotest.test_case "clone is lazy until first mutation" `Quick
            test_decode_cache_lazy_clone;
          Alcotest.test_case "patch_text under CoW fork" `Quick
            test_cow_patch_text_isolation;
          Alcotest.test_case "hit/miss/compile/invalidate telemetry" `Quick
            test_exec_telemetry;
        ] );
    ]
