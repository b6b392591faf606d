let page_size = 4096
let page_bits = 12

(* Copy-on-write page store over a chunked flat table.

   Pages live in fixed 64-page chunks; a space holds an array of chunk
   records, so address translation is two array loads (no hashing) and
   [clone] — the fork primitive — is O(chunks): copy the top-level
   array and clear both sides' chunk-ownership bytes. Page *records*
   (per-space payload + privacy flag) are then materialised per chunk,
   lazily, on the first mutating access after a clone; until a space
   owns a chunk it only reads through the records, which relatives may
   share. Payloads themselves stay copy-on-write exactly as before: a
   write to a page whose payload may be aliased first replaces it with
   a private copy.

   Invariants:
   - A record reachable through an unowned chunk is never mutated (not
     its payload bytes, not its fields) — every write path calls
     [own_chunk] first, which gives this space fresh records whose
     [private_] flags are cleared (a clone happened since the chunk was
     last owned, so every payload in it is aliased by construction).
   - [no_page], [empty_chunk] and [zero_page] are immutable sentinels,
     shared by all spaces and domains.
   - Mapping is demand-zero: a freshly mapped page's record holds the
     shared [zero_page] payload with [private_] set, and [rw_page]
     swaps in a fresh zeroed page on its first write. [zero_page] is
     therefore never written, so payload identity still implies byte
     identity (the Tcache anchor contract). *)
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

(* 512 chunks cover the whole fixed guest layout (stack_top is page
   0x7FF0); [map] grows the table if something ever sits higher. *)
let initial_chunks = 512

let no_page = { data = Bytes.create 0; private_ = true }
let empty_chunk : page array = Array.make chunk_pages no_page

(* The payload of every mapped, never-written page. *)
let zero_page = Bytes.make page_size '\000'

type t = {
  mutable top : page array array;  (* chunk index -> page records *)
  mutable owned : Bytes.t;  (* '\001' per chunk: records are private to us *)
  mutable mapped_pages : int;
  family : family_stats;
}

let create () =
  let family = { clones = 0; pages_aliased = 0; cow_breaks = 0; zero_fills = 0 } in
  Mutex.lock registry_mu;
  registry := family :: !registry;
  Mutex.unlock registry_mu;
  {
    top = Array.make initial_chunks empty_chunk;
    owned = Bytes.make initial_chunks '\001';
    mapped_pages = 0;
    family;
  }

let page_of addr = Int64.to_int (Int64.shift_right_logical addr page_bits)
let offset_of addr = Int64.to_int (Int64.logand addr 0xFFFL)

(* Give this space its own records for chunk [c]. The fresh records
   alias the payloads with [private_] cleared: this only runs when the
   chunk is unowned, i.e. after a clone, when every payload in it is
   shared by construction. The old records are left untouched for
   whatever relatives still read through them. *)
let own_chunk t c =
  let ch = Array.unsafe_get t.top c in
  if ch == empty_chunk then t.top.(c) <- Array.make chunk_pages no_page
  else begin
    let fresh = Array.make chunk_pages no_page in
    for i = 0 to chunk_pages - 1 do
      let p = Array.unsafe_get ch i in
      if p != no_page then
        Array.unsafe_set fresh i { data = p.data; private_ = false }
    done;
    t.top.(c) <- fresh
  end;
  Bytes.unsafe_set t.owned c '\001'

let grow t chunks_needed =
  let old = Array.length t.top in
  let n = max chunks_needed (2 * old) in
  let top = Array.make n empty_chunk in
  Array.blit t.top 0 top 0 old;
  let owned = Bytes.make n '\001' in
  Bytes.blit t.owned 0 owned 0 old;
  t.top <- top;
  t.owned <- owned

let map t ~addr ~len =
  if len <= 0 then invalid_arg "Memory.map: nonpositive length";
  let first = page_of addr in
  let last = page_of (Int64.add addr (Int64.of_int (len - 1))) in
  for idx = first to last do
    let c = idx lsr chunk_bits in
    if c >= Array.length t.top then grow t (c + 1);
    if Bytes.unsafe_get t.owned c <> '\001' then own_chunk t c
    else if Array.unsafe_get t.top c == empty_chunk then
      t.top.(c) <- Array.make chunk_pages no_page;
    let ch = Array.unsafe_get t.top c in
    let s = idx land (chunk_pages - 1) in
    if Array.unsafe_get ch s == no_page then begin
      Array.unsafe_set ch s { data = zero_page; private_ = true };
      t.mapped_pages <- t.mapped_pages + 1
    end
  done

(* Record under [addr], or [no_page] if unmapped — never raises. *)
let page_at t addr =
  let idx = page_of addr in
  let c = idx lsr chunk_bits in
  if c >= Array.length t.top || c < 0 then no_page
  else
    Array.unsafe_get (Array.unsafe_get t.top c) (idx land (chunk_pages - 1))

let is_mapped t addr = page_at t addr != no_page

let page_exn t addr =
  let p = page_at t addr in
  if p == no_page then raise (Fault.Trap (Fault.Segfault addr));
  p

(* Read path: the payload as-is, shared or not. *)
let ro_page t addr = (page_exn t addr).data

(* Write path: own the chunk's records, then break payload sharing with
   a private copy on first dirty, or give a private demand-zero page its
   own zeroed payload on first write. An unmapped address faults before
   any sharing is broken (chunk materialisation is invisible: no payload
   is copied and no counter moves). A page first written after a clone
   takes the copy path, so it counts one CoW break and no zero fill. *)
let rw_page t addr =
  let idx = page_of addr in
  let c = idx lsr chunk_bits in
  if c >= Array.length t.top || c < 0 then
    raise (Fault.Trap (Fault.Segfault addr));
  if Bytes.unsafe_get t.owned c <> '\001' then own_chunk t c;
  let p = Array.unsafe_get (Array.unsafe_get t.top c) (idx land (chunk_pages - 1)) in
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

(* The page's payload may be aliased by a fork relative: either the
   whole chunk is still unowned (shared records, shared payloads), or
   our own record has not privatised its payload. *)
let payload_shared t addr =
  let idx = page_of addr in
  let c = idx lsr chunk_bits in
  if c >= Array.length t.top || c < 0 then false
  else begin
    let p = Array.unsafe_get (Array.unsafe_get t.top c) (idx land (chunk_pages - 1)) in
    p != no_page && (Bytes.unsafe_get t.owned c <> '\001' || not p.private_)
  end

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

(* O(chunks), not O(pages): the child aliases our chunk records and
   both sides drop ownership, so record (and payload) copies happen
   lazily, per chunk, on first write in either space. *)
let clone t =
  let n = t.mapped_pages in
  Bytes.fill t.owned 0 (Bytes.length t.owned) '\000';
  t.family.clones <- t.family.clones + 1;
  t.family.pages_aliased <- t.family.pages_aliased + n;
  {
    top = Array.copy t.top;
    owned = Bytes.make (Array.length t.top) '\000';
    mapped_pages = n;
    family = t.family;
  }

let mapped_bytes t = t.mapped_pages * page_size

let resident_bytes t =
  let acc = ref 0 in
  Array.iteri
    (fun c ch ->
      if Bytes.get t.owned c = '\001' && ch != empty_chunk then
        Array.iter (fun p -> if p != no_page && p.private_ then acc := !acc + page_size) ch)
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
