let page_size = 4096
let page_bits = 12

(* Copy-on-write page store over a two-level page directory.

   Pages live in fixed 64-page chunks, and chunks in fixed 16-chunk
   nodes (4 MiB of guest space each); a space holds a short array of
   nodes, so address translation is three array loads (no hashing) and
   [clone] — the fork primitive — copies only that top-level array
   (32 nodes cover the fixed guest layout, a block small enough for the
   minor heap) and clears both sides' ownership marks. Ownership is
   copy-on-write one level at a time: a space that writes through a
   node it does not own first copies the node's chunk slots, then gives
   itself fresh page *records* (per-space payload + privacy flag) for
   the chunk; until it owns a chunk it only reads through the records,
   which relatives may share. Payloads themselves stay copy-on-write: a
   write to a page whose payload may be aliased first replaces it with
   a private copy.

   Invariants:
   - Nothing reachable through an unowned slot is ever mutated: not a
     node's chunk slots, not a record's payload bytes or fields. Every
     write path calls [own] first, which gives this space its own node
     (chunks all unowned) and then fresh records for the chunk whose
     [private_] flags are cleared (a clone happened since the chunk was
     last owned, so every payload in it is aliased by construction).
   - An owned node or chunk is never a sentinel: [own_node] and
     [own_chunk] always install fresh arrays.
   - [no_page], [empty_chunk], [empty_node] and [zero_page] are
     immutable sentinels, shared by all spaces and domains.
   - Mapping is demand-zero: a freshly mapped page's record holds the
     shared [zero_page] payload with [private_] set, and [rw_page]
     swaps in a fresh zeroed page on its first write. [zero_page] is
     therefore never written, so payload identity still implies byte
     identity (the Tcache anchor contract).
   - Nothing at or above [Layout.guest_top] is ever mapped, so the
     directory stays bounded whatever base an image asks for. *)
type page = {
  mutable data : bytes;
  mutable private_ : bool;  (* sole owner of [data]; safe to write in place *)
}

(* Fork-path telemetry, shared by every space in one clone family so the
   numbers survive children being reaped. *)
type family_stats = {
  mutable clones : int;  (* Memory.clone calls in this family *)
  mutable pages_aliased : int;  (* pages shared (not copied) at clone time *)
  mutable cow_breaks : int;  (* shared pages privatised by a write *)
  mutable zero_fills : int;  (* demand-zero pages materialised by a write *)
}

(* Process-wide totals fold over a registry of family records instead
   of hammering shared atomics from the clone/CoW hot paths (a shared
   atomic bounced between domains measurably slows [--jobs N]
   campaigns). Per-family counts are independent of scheduling, so the
   sums are too; the bench driver reads them only after worker domains
   join, which gives the happens-before edge for the plain mutable
   fields. The fold is published to the process-wide telemetry registry
   as a metric group under the [metric_*] names below. *)
let registry : family_stats list ref = ref []
let registry_mu = Mutex.create ()

let fold_families () =
  Mutex.lock registry_mu;
  let fams = !registry in
  Mutex.unlock registry_mu;
  List.fold_left
    (fun acc (f : family_stats) ->
      {
        clones = acc.clones + f.clones;
        pages_aliased = acc.pages_aliased + f.pages_aliased;
        cow_breaks = acc.cow_breaks + f.cow_breaks;
        zero_fills = acc.zero_fills + f.zero_fills;
      })
    { clones = 0; pages_aliased = 0; cow_breaks = 0; zero_fills = 0 }
    fams

let metric_clones = "vm.mem.clones"
let metric_pages_aliased = "vm.mem.pages_aliased"
let metric_cow_breaks = "vm.mem.cow_breaks"
let metric_zero_fills = "vm.mem.zero_fills"

let () =
  Telemetry.Registry.register_group
    ~reset:(fun () ->
      Mutex.lock registry_mu;
      registry := [];
      Mutex.unlock registry_mu)
    [
      (metric_clones, fun () -> (fold_families ()).clones);
      (metric_pages_aliased, fun () -> (fold_families ()).pages_aliased);
      (metric_cow_breaks, fun () -> (fold_families ()).cow_breaks);
      (metric_zero_fills, fun () -> (fold_families ()).zero_fills);
    ]

let chunk_bits = 6
let chunk_pages = 1 lsl chunk_bits (* pages per chunk *)
let node_bits = 4
let node_chunks = 1 lsl node_bits (* chunks per node *)
let node_shift = chunk_bits + node_bits (* page index -> node index *)

(* 32 nodes (128 MiB) cover the whole fixed guest layout, which ends at
   [Layout.stack_top] + the wasm spill; [map] grows the directory if
   something sits higher, up to [Layout.guest_top]. *)
let initial_nodes = 32
let max_nodes = Int64.to_int (Int64.shift_right_logical Layout.guest_top (page_bits + node_shift))

(* Per-node ownership mask: bit [k] is set when chunk [k]'s records are
   private to this space, [node_owned] when the node's chunk slots are.
   A chunk bit is only ever set under the node bit, and [clone] clears
   whole masks. *)
let node_owned = 1 lsl node_chunks

let no_page = { data = Bytes.create 0; private_ = true }
let empty_chunk : page array = Array.make chunk_pages no_page
let empty_node : page array array = Array.make node_chunks empty_chunk

(* The payload of every mapped, never-written page. *)
let zero_page = Bytes.make page_size '\000'

type t = {
  mutable top : page array array array;  (* node -> chunk -> page records *)
  mutable own : int array;  (* per-node ownership mask *)
  mutable mapped_pages : int;
  family : family_stats;
}

let create () =
  let family = { clones = 0; pages_aliased = 0; cow_breaks = 0; zero_fills = 0 } in
  Mutex.lock registry_mu;
  registry := family :: !registry;
  Mutex.unlock registry_mu;
  {
    top = Array.make initial_nodes empty_node;
    own = Array.make initial_nodes 0;
    mapped_pages = 0;
    family;
  }

(* Never negative: the shift is logical, so [idx lsr node_shift] is an
   in-range node index exactly when it is below the directory length. *)
let page_of addr = Int64.to_int (Int64.shift_right_logical addr page_bits)
let offset_of addr = Int64.to_int (Int64.logand addr 0xFFFL)
let chunk_in_node idx = (idx lsr chunk_bits) land (node_chunks - 1)

(* Give this space its own chunk slots for node [n] (a copy, so never
   [empty_node]), with every chunk unowned. The old slot array is left
   untouched for whatever relatives still read through it. *)
let own_node t n =
  t.top.(n) <- Array.copy (Array.unsafe_get t.top n);
  t.own.(n) <- node_owned

(* Give this space its own records for chunk [k] of (owned) node [n]
   (a fresh array, so never [empty_chunk]). The fresh records alias the
   payloads with [private_] cleared: this only runs when the chunk is
   unowned, i.e. after a clone, when every payload in it is shared by
   construction. *)
let own_chunk t n k =
  let node = Array.unsafe_get t.top n in
  let ch = Array.unsafe_get node k in
  let fresh = Array.make chunk_pages no_page in
  for i = 0 to chunk_pages - 1 do
    let p = Array.unsafe_get ch i in
    if p != no_page then Array.unsafe_set fresh i { data = p.data; private_ = false }
  done;
  node.(k) <- fresh;
  t.own.(n) <- t.own.(n) lor (1 lsl k)

(* Own chunk [k] of node [n], node first. Every mutation goes through
   here; inlined, so an owned chunk costs [rw_page] one mask test. *)
let[@inline] own t n k =
  let m = Array.unsafe_get t.own n in
  if m land (1 lsl k) = 0 then begin
    if m land node_owned = 0 then own_node t n;
    own_chunk t n k
  end

let grow t nodes_needed =
  let old = Array.length t.top in
  let n = min max_nodes (max nodes_needed (2 * old)) in
  let top = Array.make n empty_node in
  Array.blit t.top 0 top 0 old;
  let own = Array.make n 0 in
  Array.blit t.own 0 own 0 old;
  t.top <- top;
  t.own <- own

let map t ~addr ~len =
  if len <= 0 then invalid_arg "Memory.map: nonpositive length";
  let last_addr = Int64.add addr (Int64.of_int (len - 1)) in
  (* checked before anything is allocated; [last_addr < addr] means the
     range wraps past 2^64 *)
  if
    Int64.unsigned_compare last_addr addr < 0
    || Int64.unsigned_compare last_addr Layout.guest_top >= 0
  then
    invalid_arg
      (Printf.sprintf "Memory.map: [0x%Lx, +0x%x) reaches past the guest space (0x%Lx)"
         addr len Layout.guest_top);
  let first = page_of addr and last = page_of last_addr in
  if last lsr node_shift >= Array.length t.top then grow t ((last lsr node_shift) + 1);
  for idx = first to last do
    let n = idx lsr node_shift and k = chunk_in_node idx in
    own t n k;
    let ch = Array.unsafe_get (Array.unsafe_get t.top n) k in
    let s = idx land (chunk_pages - 1) in
    if Array.unsafe_get ch s == no_page then begin
      Array.unsafe_set ch s { data = zero_page; private_ = true };
      t.mapped_pages <- t.mapped_pages + 1
    end
  done

(* Record under [addr], or [no_page] if unmapped — never raises.
   Inlined, like [page_exn], into every read path (loads, instruction
   fetch, the Tcache anchor check): the call saved pays for the extra
   load of the directory's second level. *)
let[@inline] page_at t addr =
  let idx = page_of addr in
  let n = idx lsr node_shift in
  if n >= Array.length t.top then no_page
  else
    Array.unsafe_get
      (Array.unsafe_get (Array.unsafe_get t.top n) (chunk_in_node idx))
      (idx land (chunk_pages - 1))

let is_mapped t addr = page_at t addr != no_page

let[@inline] page_exn t addr =
  let p = page_at t addr in
  if p == no_page then raise (Fault.Trap (Fault.Segfault addr));
  p

(* Read path: the payload as-is, shared or not. *)
let ro_page t addr = (page_exn t addr).data

(* Write path: own the node and the chunk, then break payload sharing
   with a private copy on first dirty, or give a private demand-zero
   page its own zeroed payload on first write. An unmapped address
   faults before any sharing is broken (node and chunk materialisation
   is invisible: no payload is copied and no counter moves). A page
   first written after a clone takes the copy path, so it counts one
   CoW break and no zero fill. *)
let rw_page t addr =
  let idx = page_of addr in
  let n = idx lsr node_shift in
  if n >= Array.length t.top then raise (Fault.Trap (Fault.Segfault addr));
  let k = chunk_in_node idx in
  own t n k;
  let p =
    Array.unsafe_get (Array.unsafe_get (Array.unsafe_get t.top n) k) (idx land (chunk_pages - 1))
  in
  if p == no_page then raise (Fault.Trap (Fault.Segfault addr));
  if p.private_ then begin
    let d = p.data in
    if d != zero_page then d
    else begin
      let d = Bytes.make page_size '\000' in
      p.data <- d;
      t.family.zero_fills <- t.family.zero_fills + 1;
      d
    end
  end
  else begin
    let d = Bytes.copy p.data in
    p.data <- d;
    p.private_ <- true;
    t.family.cow_breaks <- t.family.cow_breaks + 1;
    d
  end

(* Decode-path window: the page payload under [addr] plus the offset
   into it, without raising. The caller must treat the payload as
   read-only — handing out the live bytes (shared or not) is exactly
   what makes zero-copy instruction fetch possible; any write through
   it would bypass CoW. *)
let code_window t addr =
  let p = page_at t addr in
  if p == no_page then None else Some (p.data, offset_of addr)

(* The page's payload may be aliased by a fork relative: either its
   chunk is still unowned (shared records, shared payloads), or our own
   record has not privatised its payload. *)
let payload_shared t addr =
  let p = page_at t addr in
  p != no_page
  &&
  let idx = page_of addr in
  Array.unsafe_get t.own (idx lsr node_shift) land (1 lsl chunk_in_node idx) = 0
  || not p.private_

let read_u8 t addr = Char.code (Bytes.get (ro_page t addr) (offset_of addr))

let write_u8 t addr v =
  Bytes.set (rw_page t addr) (offset_of addr) (Char.chr (v land 0xFF))

(* Multi-byte accesses take the fast path when they fit in one page. *)
let read_u64 t addr =
  let off = offset_of addr in
  if off + 8 <= page_size then Bytes.get_int64_le (ro_page t addr) off
  else begin
    let v = ref 0L in
    for i = 7 downto 0 do
      let b = read_u8 t (Int64.add addr (Int64.of_int i)) in
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int b)
    done;
    !v
  end

let write_u64 t addr v =
  let off = offset_of addr in
  if off + 8 <= page_size then Bytes.set_int64_le (rw_page t addr) off v
  else
    for i = 0 to 7 do
      let b = Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL) in
      write_u8 t (Int64.add addr (Int64.of_int i)) b
    done

let read_u32 t addr =
  let off = offset_of addr in
  if off + 4 <= page_size then
    Int64.logand (Int64.of_int32 (Bytes.get_int32_le (ro_page t addr) off)) 0xFFFFFFFFL
  else begin
    let v = ref 0L in
    for i = 3 downto 0 do
      let b = read_u8 t (Int64.add addr (Int64.of_int i)) in
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int b)
    done;
    !v
  end

let write_u32 t addr v =
  let off = offset_of addr in
  if off + 4 <= page_size then
    Bytes.set_int32_le (rw_page t addr) off (Int64.to_int32 v)
  else
    for i = 0 to 3 do
      let b = Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL) in
      write_u8 t (Int64.add addr (Int64.of_int i)) b
    done

let read_bytes t addr len =
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let a = Int64.add addr (Int64.of_int !pos) in
    let off = offset_of a in
    let chunk = Stdlib.min (len - !pos) (page_size - off) in
    Bytes.blit (ro_page t a) off out !pos chunk;
    pos := !pos + chunk
  done;
  out

(* Pages are processed in address order and [rw_page] faults on an
   unmapped page before breaking any sharing on it, so a spanning write
   that hits an unmapped page leaves exactly the prefix a per-byte loop
   would have written (and has CoW-broken only those prefix pages). *)
let write_bytes t addr src =
  let len = Bytes.length src in
  let pos = ref 0 in
  while !pos < len do
    let a = Int64.add addr (Int64.of_int !pos) in
    let off = offset_of a in
    let chunk = Stdlib.min (len - !pos) (page_size - off) in
    Bytes.blit src !pos (rw_page t a) off chunk;
    pos := !pos + chunk
  done

(* Bytes until the first NUL at [addr] (page-aware strlen); faults at
   the first unmapped byte reached before a NUL, like a byte loop. *)
let cstr_len t addr =
  let rec scan a acc =
    let off = offset_of a in
    let d = ro_page t a in
    match Bytes.index_from_opt d off '\000' with
    | Some i -> acc + (i - off)
    | None -> scan (Int64.add a (Int64.of_int (page_size - off))) (acc + (page_size - off))
  in
  scan addr 0

(* O(nodes), not O(pages): the child aliases our nodes and both sides
   drop ownership, so slot, record (and payload) copies happen lazily,
   per node and per chunk, on first write in either space. The copied
   directory is 33 words for the fixed guest layout, so a fork
   allocates in the minor heap only. *)
let clone t =
  let n = t.mapped_pages in
  Array.fill t.own 0 (Array.length t.own) 0;
  t.family.clones <- t.family.clones + 1;
  t.family.pages_aliased <- t.family.pages_aliased + n;
  {
    top = Array.copy t.top;
    own = Array.make (Array.length t.top) 0;
    mapped_pages = n;
    family = t.family;
  }

let mapped_bytes t = t.mapped_pages * page_size

let resident_bytes t =
  let acc = ref 0 in
  Array.iteri
    (fun n node ->
      let m = t.own.(n) in
      Array.iteri
        (fun k ch ->
          if m land (1 lsl k) <> 0 then
            Array.iter (fun p -> if p != no_page && p.private_ then acc := !acc + page_size) ch)
        node)
    t.top;
  !acc

let shared_bytes t = mapped_bytes t - resident_bytes t

let family_stats t =
  {
    clones = t.family.clones;
    pages_aliased = t.family.pages_aliased;
    cow_breaks = t.family.cow_breaks;
    zero_fills = t.family.zero_fills;
  }
