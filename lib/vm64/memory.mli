(** Byte-addressable paged memory for one simulated address space, with
    copy-on-write fork.

    Pages must be explicitly mapped (the OS layer maps text, data, stack
    and TLS regions); any access to an unmapped address raises
    [Fault.Trap (Segfault _)] — which is precisely the signal the
    byte-by-byte attacker observes as a child crash.

    {!clone} (the [fork] primitive) is O(directory top level), not
    O(pages or bytes): pages live in fixed 64-page chunks, chunks in
    16-chunk nodes, and the child copies only the short node array (32
    entries for the fixed guest layout, small enough for the minor
    heap). Node slots and page records are re-materialised lazily, node
    and chunk at a time, on the first write in either space; the first
    write to a page whose payload may be aliased then breaks the
    sharing with a private copy (see DESIGN.md §5 for the invariants).
    Reads never copy.

    Nothing at or above [Layout.guest_top] is ever mapped, which bounds
    the directory. *)

type t

val create : unit -> t

val page_size : int

val map : t -> addr:int64 -> len:int -> unit
(** Map all pages covering [addr, addr+len) as demand-zero: each new
    page reads as zeros and counts as resident, but holds one shared,
    never-written zero payload until its first write materialises a
    private zeroed page ([zero_fills]). No page payload is allocated
    here. Already mapped pages are left untouched. Raises
    [Invalid_argument], before allocating anything, when [len <= 0] or
    when any page of the range is at or above [Layout.guest_top]
    (including a range whose end wraps past 2{^64}). *)

val is_mapped : t -> int64 -> bool

val read_u8 : t -> int64 -> int
val write_u8 : t -> int64 -> int -> unit

val read_u64 : t -> int64 -> int64
(** Little-endian, no alignment requirement. *)

val write_u64 : t -> int64 -> int64 -> unit

val read_u32 : t -> int64 -> int64
(** Zero-extended 32-bit load. *)

val write_u32 : t -> int64 -> int64 -> unit

val read_bytes : t -> int64 -> int -> bytes
val write_bytes : t -> int64 -> bytes -> unit

val code_window : t -> int64 -> (bytes * int) option
(** [(payload, offset)] of the page under the address, or [None] when
    unmapped — the zero-copy instruction-fetch window. The payload is
    the live (possibly CoW-shared) page: callers MUST NOT write through
    it, and must not hold it across a [write_*] to the same page (a CoW
    break swaps the payload). Valid from [offset] to the page end. *)

val cstr_len : t -> int64 -> int
(** Bytes before the first NUL at the address (page-aware strlen).
    Faults at the first unmapped byte reached before a NUL, exactly
    where a byte-at-a-time scan would. *)

val payload_shared : t -> int64 -> bool
(** The page under the address is mapped and its payload may be aliased
    by a fork relative (i.e. the bytes this space reads there are the
    bytes relatives read, until someone writes). This is the publish
    guard for {!Tcache.add}: a block decoded entirely from shared
    payloads describes bytes every current relative agrees on. *)

val clone : t -> t
(** The [fork] primitive's address-space clone. Copies one short array
    (the directory's node array); the child aliases the parent's node
    slots, page records and page payloads, each of which either space
    copies lazily on its first write there. Observable behaviour is
    identical to a deep copy — writes in either space never become
    visible in the other. *)

val mapped_bytes : t -> int
(** Total bytes of mapped address space (resident + shared), for the
    memory-usage columns of Table IV. *)

val resident_bytes : t -> int
(** Bytes whose page payload this space privately owns. Summing
    [mapped_bytes] over a fork family double-counts aliased pages;
    parent [mapped_bytes] + children [resident_bytes] does not. *)

val shared_bytes : t -> int
(** Bytes whose page payload may be aliased by a relative
    ([mapped_bytes t = resident_bytes t + shared_bytes t]). *)

(** Fork-path telemetry. *)
type family_stats = {
  mutable clones : int;  (** {!clone} calls *)
  mutable pages_aliased : int;  (** pages shared instead of copied at clone *)
  mutable cow_breaks : int;  (** shared pages privatised by a first write *)
  mutable zero_fills : int;
      (** demand-zero pages materialised by their first write. A page
          first written after a clone counts as a CoW break instead, so
          every page allocation after {!map} is counted exactly once. *)
}

val family_stats : t -> family_stats
(** Counters for this space's clone family (shared by parent and all
    descendants, so they survive children being reaped). Returns a
    snapshot. *)

val metric_clones : string
val metric_pages_aliased : string
val metric_cow_breaks : string
val metric_zero_fills : string
(** Names under which the process-wide page-path totals are published to
    {!Telemetry.Registry} (one metric group; resetting any of them
    resets all four). Read process-wide totals with
    [Telemetry.Registry.read_int] on these names. *)
