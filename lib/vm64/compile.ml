(* Closure compilation of Tcache blocks, lowered from the explicit
   {!Ir} in passes (lift -> normalize -> fuse -> emit): every decision
   that depends only on the instruction encoding — operand shape,
   immediate values, addressing mode, builtin resolution for direct
   calls — is taken once here. A translation is a continuation chain
   ([emit3]) that caches the hottest guest registers in closure
   "locals"; the spill protocol notes on [emit3] explain why faults
   still observe exact architectural state. Cycle charging and rip
   updates are deferred to the chain's exit (see [charge_exit]).

   [run_chain] chains translations through their exits — a
   taken/fall-through/return transfer jumps straight into the
   successor's translation instead of returning to [Exec.step_block]'s
   dispatch loop — and fuses hot unconditional chains into superblock
   translations. See the link-validity notes on [link_live] for how
   invalidation and CoW forks unlink stale successors. A chain has no
   fuel boundary inside it: when the remaining fuel does not cover a
   translation, the interpreter retires that block instead. *)

module I = Isa.Insn
module O = Isa.Operand

type outcome = Compiled.outcome =
  | Running
  | Builtin of string
  | Syscall_trap
  | Halted
  | Faulted of Fault.t

type op = Cpu.t -> Memory.t -> outcome

type builtin_fn = Cpu.t -> Memory.t -> int64

(* A patched exit: the successor translation this code may enter
   directly, valid only for the address space and invalidation epoch it
   was resolved under (a fork relative or a post-invalidation run must
   re-resolve — see [link_live]). *)
type link = {
  mutable l_space : Tcache.t option;  (* the space the link was resolved in *)
  mutable l_epoch : int;
  mutable l_addr : int64;  (* entry rip the target translates *)
  mutable l_target : code option;
}

and code = {
  length : int;  (* instructions the translation retires when run to its exit *)
  csum : int array;  (* csum.(k) = static cycles of the first k insns *)
  crsum : int array;  (* crsum.(k) = call/ret insns among the first k *)
  exit_ : Ir.exit_shape;
  blocks : Tcache.block array;  (* constituent blocks, head first *)
  starts : int array;  (* first instruction index of each constituent *)
  key : int64 -> string option;
      (* the [is_builtin] the code was specialized against; compare with
         (==) — code compiled for another environment must be rebuilt *)
  mutable hot : int;  (* entry count, drives superblock formation *)
  mutable fuse_tried : bool;
  link_a : link;  (* taken / unconditional / dynamic target cache *)
  link_b : link;  (* fall-through side of a two-way branch *)
  cached : int array;  (* gpr indices the chain caches, hottest first *)
  run : Cpu.t -> Memory.t -> outcome * int;
      (* the register-caching chain: runs the whole translation (no fuel
         boundary inside, so only entered with fuel >= length), returning
         the last outcome and the retire count — the caller settles
         cycles with [charge_exit] *)
}

type Compiled.slot += Code of code

(* Tier switch, read once per block dispatch. Atomic so bench/tests can
   force the interpreter while campaign domains are quiescent.
   0 = interpreter, 3 = compiled (default). *)
let tier_flag = Atomic.make 3

let set_tier n =
  if n <> 0 && n <> 3 then invalid_arg "Compile.set_tier: expected 0 or 3";
  Atomic.set tier_flag n

let tier () = Atomic.get tier_flag

(* Entries before a code becomes a superblock-formation candidate.
   Tests force 1 to fuse immediately; the default keeps cold paths out
   of the fused store. *)
let fuse_threshold = Atomic.make 16
let set_fuse_threshold n = Atomic.set fuse_threshold (Stdlib.max 1 n)
let get_fuse_threshold () = Atomic.get fuse_threshold

(* ---- Semantics helpers shared with the interpreter tier ------------ *)
(* [Exec] aliases these; keeping one definition means the two tiers
   cannot drift on flag arithmetic or stack discipline. *)

let set_logic_flags (f : Cpu.flags) r =
  f.zf <- Int64.equal r 0L;
  f.sf <- Int64.compare r 0L < 0;
  f.cf <- false;
  f.of_ <- false

let set_add_flags (f : Cpu.flags) a b r =
  f.zf <- Int64.equal r 0L;
  f.sf <- Int64.compare r 0L < 0;
  f.cf <- Int64.unsigned_compare r a < 0;
  f.of_ <- Int64.compare a 0L < 0 = (Int64.compare b 0L < 0)
           && Int64.compare r 0L < 0 <> (Int64.compare a 0L < 0)

let set_sub_flags (f : Cpu.flags) a b r =
  f.zf <- Int64.equal r 0L;
  f.sf <- Int64.compare r 0L < 0;
  f.cf <- Int64.unsigned_compare a b < 0;
  f.of_ <- Int64.compare a 0L < 0 <> (Int64.compare b 0L < 0)
           && Int64.compare r 0L < 0 <> (Int64.compare a 0L < 0)

let cond_holds (f : Cpu.flags) = function
  | I.E -> f.zf
  | NE -> not f.zf
  | L -> f.sf <> f.of_
  | LE -> f.zf || f.sf <> f.of_
  | G -> (not f.zf) && f.sf = f.of_
  | GE -> f.sf = f.of_
  | B -> f.cf
  | BE -> f.cf || f.zf
  | A -> (not f.cf) && not f.zf
  | AE -> not f.cf
  | S -> f.sf
  | NS -> not f.sf

let push cpu mem v =
  let rsp = Int64.sub (Cpu.get cpu Isa.Reg.RSP) 8L in
  Cpu.set cpu Isa.Reg.RSP rsp;
  Memory.write_u64 mem rsp v

let pop cpu mem =
  let rsp = Cpu.get cpu Isa.Reg.RSP in
  let v = Memory.read_u64 mem rsp in
  Cpu.set cpu Isa.Reg.RSP (Int64.add rsp 8L);
  v

let xmm_to_bytes (lo, hi) =
  let b = Bytes.create 16 in
  Bytes.set_int64_le b 0 lo;
  Bytes.set_int64_le b 8 hi;
  b

let xmm_of_bytes b = (Bytes.get_int64_le b 0, Bytes.get_int64_le b 8)

(* ---- Operand specialization ---------------------------------------- *)

let rsp_i = Isa.Reg.index Isa.Reg.RSP
let rbp_i = Isa.Reg.index Isa.Reg.RBP
let rax_i = Isa.Reg.index Isa.Reg.RAX
let rdx_i = Isa.Reg.index Isa.Reg.RDX

(* Effective address, one closure per addressing mode. Int64 addition is
   associative modulo 2^64, so the specialized sums equal the
   interpreter's seg + base + (index*scale + disp). *)
let rec ea_of (m : O.mem) : Cpu.t -> int64 =
  match (m.O.seg_fs, m.O.base, m.O.index) with
  | true, None, None ->
    let d = m.O.disp in
    fun cpu -> Int64.add cpu.Cpu.fs_base d
  | true, _, _ ->
    let inner = ea_of { m with O.seg_fs = false } in
    fun cpu -> Int64.add cpu.Cpu.fs_base (inner cpu)
  | false, None, None ->
    let d = m.O.disp in
    fun _ -> d
  | false, Some b, None ->
    let b = Isa.Reg.index b and d = m.O.disp in
    fun cpu -> Int64.add (Array.unsafe_get cpu.Cpu.gprs b) d
  | false, None, Some (x, s) ->
    let x = Isa.Reg.index x in
    let s = Int64.of_int (O.scale_factor s) and d = m.O.disp in
    fun cpu -> Int64.add (Int64.mul (Array.unsafe_get cpu.Cpu.gprs x) s) d
  | false, Some b, Some (x, s) ->
    let b = Isa.Reg.index b and x = Isa.Reg.index x in
    let s = Int64.of_int (O.scale_factor s) and d = m.O.disp in
    fun cpu ->
      Int64.add
        (Array.unsafe_get cpu.Cpu.gprs b)
        (Int64.add (Int64.mul (Array.unsafe_get cpu.Cpu.gprs x) s) d)

let store_to_imm addr = Fault.Trap (Fault.Bad_instruction (addr, "store to immediate"))

let read64_of : O.t -> Cpu.t -> Memory.t -> int64 = function
  | O.Reg r ->
    let i = Isa.Reg.index r in
    fun cpu _ -> Array.unsafe_get cpu.Cpu.gprs i
  | O.Imm v -> fun _ _ -> v
  | O.Mem m ->
    let ea = ea_of m in
    fun cpu mem -> Memory.read_u64 mem (ea cpu)

let write64_of addr : O.t -> Cpu.t -> Memory.t -> int64 -> unit = function
  | O.Reg r ->
    let i = Isa.Reg.index r in
    fun cpu _ v -> Array.unsafe_set cpu.Cpu.gprs i v
  | O.Mem m ->
    let ea = ea_of m in
    fun cpu mem v -> Memory.write_u64 mem (ea cpu) v
  | O.Imm _ -> fun _ _ _ -> raise (store_to_imm addr)

let read8_of : O.t -> Cpu.t -> Memory.t -> int = function
  | O.Reg r ->
    let i = Isa.Reg.index r in
    fun cpu _ -> Int64.to_int (Int64.logand (Array.unsafe_get cpu.Cpu.gprs i) 0xFFL)
  | O.Imm v ->
    let v = Int64.to_int (Int64.logand v 0xFFL) in
    fun _ _ -> v
  | O.Mem m ->
    let ea = ea_of m in
    fun cpu mem -> Memory.read_u8 mem (ea cpu)

let write8_of addr : O.t -> Cpu.t -> Memory.t -> int -> unit = function
  | O.Reg r ->
    let i = Isa.Reg.index r in
    fun cpu _ v ->
      (* Low-byte merge, like real mov to an 8-bit subregister. *)
      let old = Array.unsafe_get cpu.Cpu.gprs i in
      Array.unsafe_set cpu.Cpu.gprs i
        (Int64.logor (Int64.logand old (-256L)) (Int64.of_int (v land 0xFF)))
  | O.Mem m ->
    let ea = ea_of m in
    fun cpu mem v -> Memory.write_u8 mem (ea cpu) v
  | O.Imm _ -> fun _ _ _ -> raise (store_to_imm addr)

let read32_of : O.t -> Cpu.t -> Memory.t -> int64 = function
  | O.Reg r ->
    let i = Isa.Reg.index r in
    fun cpu _ -> Int64.logand (Array.unsafe_get cpu.Cpu.gprs i) 0xFFFFFFFFL
  | O.Imm v ->
    let v = Int64.logand v 0xFFFFFFFFL in
    fun _ _ -> v
  | O.Mem m ->
    let ea = ea_of m in
    fun cpu mem -> Memory.read_u32 mem (ea cpu)

let write32_of addr : O.t -> Cpu.t -> Memory.t -> int64 -> unit = function
  | O.Reg r ->
    let i = Isa.Reg.index r in
    fun cpu _ v -> Array.unsafe_set cpu.Cpu.gprs i (Int64.logand v 0xFFFFFFFFL)
  | O.Mem m ->
    let ea = ea_of m in
    fun cpu mem v -> Memory.write_u32 mem (ea cpu) v
  | O.Imm _ -> fun _ _ _ -> raise (store_to_imm addr)

let cond_test : I.cond -> Cpu.flags -> bool = function
  | I.E -> fun f -> f.Cpu.zf
  | I.NE -> fun f -> not f.Cpu.zf
  | I.L -> fun f -> f.Cpu.sf <> f.Cpu.of_
  | I.LE -> fun f -> f.Cpu.zf || f.Cpu.sf <> f.Cpu.of_
  | I.G -> fun f -> (not f.Cpu.zf) && f.Cpu.sf = f.Cpu.of_
  | I.GE -> fun f -> f.Cpu.sf = f.Cpu.of_
  | I.B -> fun f -> f.Cpu.cf
  | I.BE -> fun f -> f.Cpu.cf || f.Cpu.zf
  | I.A -> fun f -> (not f.Cpu.cf) && not f.Cpu.zf
  | I.AE -> fun f -> not f.Cpu.cf
  | I.S -> fun f -> f.Cpu.sf
  | I.NS -> fun f -> not f.Cpu.sf

(* ---- Per-instruction closures: the generic fallback ----------------- *)

(* One closure per instruction, reading and writing [Cpu.gprs] directly:
   [emit3]'s generic wrapper runs these for the shapes it does not
   specialize against cached registers. [addr] is the instruction's own
   address (what cpu.rip reads during its interpretation — rip itself
   is stale while compiled code runs), [next] its fall-through rip.
   Each closure must mutate state in the
   interpreter's order so a fault mid-instruction leaves identical
   partial state; comments call out the spots where that order is
   load-bearing. *)
let insn_op ~is_builtin ~inline ~addr ~next (insn : I.t) : op =
  match insn with
  | I.Nop -> fun _ _ -> Running
  | I.Mov (dst, src) ->
    let rd = read64_of src and wr = write64_of addr dst in
    fun cpu mem ->
      (* source read faults before a store-to-immediate traps *)
      let v = rd cpu mem in
      wr cpu mem v;
      Running
  | I.Movb (dst, src) ->
    let rd = read8_of src and wr = write8_of addr dst in
    fun cpu mem ->
      let v = rd cpu mem in
      wr cpu mem v;
      Running
  | I.Movl (dst, src) ->
    let rd = read32_of src and wr = write32_of addr dst in
    fun cpu mem ->
      let v = rd cpu mem in
      wr cpu mem v;
      Running
  | I.Lea (r, m) ->
    let r = Isa.Reg.index r and ea = ea_of m in
    fun cpu _ ->
      Array.unsafe_set cpu.Cpu.gprs r (ea cpu);
      Running
  | I.Push op ->
    let rd = read64_of op in
    fun cpu mem ->
      let v = rd cpu mem in
      push cpu mem v;
      Running
  | I.Pop op ->
    let wr = write64_of addr op in
    fun cpu mem ->
      let v = pop cpu mem in
      wr cpu mem v;
      Running
  | I.Bin (bop, dst, src) -> (
    let rd_d = read64_of dst and rd_s = read64_of src in
    match bop with
    | I.Add ->
      let wr = write64_of addr dst in
      fun cpu mem ->
        let a = rd_d cpu mem in
        let b = rd_s cpu mem in
        let r = Int64.add a b in
        (* flags settle before the destination write, so a faulting
           mem-dst store still leaves them updated (as interpreted) *)
        set_add_flags cpu.Cpu.flags a b r;
        wr cpu mem r;
        Running
    | I.Sub ->
      let wr = write64_of addr dst in
      fun cpu mem ->
        let a = rd_d cpu mem in
        let b = rd_s cpu mem in
        let r = Int64.sub a b in
        set_sub_flags cpu.Cpu.flags a b r;
        wr cpu mem r;
        Running
    | I.Xor ->
      let wr = write64_of addr dst in
      fun cpu mem ->
        let a = rd_d cpu mem in
        let b = rd_s cpu mem in
        let r = Int64.logxor a b in
        set_logic_flags cpu.Cpu.flags r;
        wr cpu mem r;
        Running
    | I.And ->
      let wr = write64_of addr dst in
      fun cpu mem ->
        let a = rd_d cpu mem in
        let b = rd_s cpu mem in
        let r = Int64.logand a b in
        set_logic_flags cpu.Cpu.flags r;
        wr cpu mem r;
        Running
    | I.Or ->
      let wr = write64_of addr dst in
      fun cpu mem ->
        let a = rd_d cpu mem in
        let b = rd_s cpu mem in
        let r = Int64.logor a b in
        set_logic_flags cpu.Cpu.flags r;
        wr cpu mem r;
        Running
    | I.Cmp ->
      fun cpu mem ->
        let a = rd_d cpu mem in
        let b = rd_s cpu mem in
        set_sub_flags cpu.Cpu.flags a b (Int64.sub a b);
        Running
    | I.Test ->
      fun cpu mem ->
        let a = rd_d cpu mem in
        let b = rd_s cpu mem in
        set_logic_flags cpu.Cpu.flags (Int64.logand a b);
        Running
    | I.Imul ->
      let wr = write64_of addr dst in
      fun cpu mem ->
        let a = rd_d cpu mem in
        let b = rd_s cpu mem in
        let r = Int64.mul a b in
        set_logic_flags cpu.Cpu.flags r;
        wr cpu mem r;
        Running
    | I.Idiv ->
      let wr = write64_of addr dst in
      fun cpu mem ->
        let a = rd_d cpu mem in
        let b = rd_s cpu mem in
        if Int64.equal b 0L then
          raise (Fault.Trap (Fault.Bad_instruction (addr, "division by zero")));
        if Int64.equal a Int64.min_int && Int64.equal b (-1L) then
          raise (Fault.Trap (Fault.Bad_instruction (addr, "division overflow")));
        let r = Int64.div a b in
        set_logic_flags cpu.Cpu.flags r;
        wr cpu mem r;
        Running
    | I.Irem ->
      let wr = write64_of addr dst in
      fun cpu mem ->
        let a = rd_d cpu mem in
        let b = rd_s cpu mem in
        if Int64.equal b 0L then
          raise (Fault.Trap (Fault.Bad_instruction (addr, "division by zero")));
        if Int64.equal a Int64.min_int && Int64.equal b (-1L) then
          raise (Fault.Trap (Fault.Bad_instruction (addr, "division overflow")));
        let r = Int64.rem a b in
        set_logic_flags cpu.Cpu.flags r;
        wr cpu mem r;
        Running)
  | I.Shift (sop, dst, k) -> (
    match k land 63 with
    (* masked count 0: no read, no flag or destination change *)
    | 0 -> fun _ _ -> Running
    | k ->
      let rd = read64_of dst and wr = write64_of addr dst in
      let shift =
        match sop with
        | I.Shl -> fun a -> Int64.shift_left a k
        | I.Shr -> fun a -> Int64.shift_right_logical a k
        | I.Sar -> fun a -> Int64.shift_right a k
      in
      fun cpu mem ->
        let r = shift (rd cpu mem) in
        set_logic_flags cpu.Cpu.flags r;
        wr cpu mem r;
        Running)
  | I.Neg op ->
    let rd = read64_of op and wr = write64_of addr op in
    fun cpu mem ->
      let a = rd cpu mem in
      let r = Int64.neg a in
      let flags = cpu.Cpu.flags in
      set_logic_flags flags r;
      flags.Cpu.cf <- not (Int64.equal a 0L);
      flags.Cpu.of_ <- Int64.equal a Int64.min_int;
      wr cpu mem r;
      Running
  | I.Not op ->
    let rd = read64_of op and wr = write64_of addr op in
    fun cpu mem ->
      let v = Int64.lognot (rd cpu mem) in
      wr cpu mem v;
      Running
  | I.Setcc (c, r) ->
    let test = cond_test c and r = Isa.Reg.index r in
    fun cpu _ ->
      Array.unsafe_set cpu.Cpu.gprs r (if test cpu.Cpu.flags then 1L else 0L);
      Running
  (* control transfers: the only closures that write rip *)
  | I.Jmp (I.Abs a) ->
    fun cpu _ ->
      cpu.Cpu.rip <- a;
      Running
  | I.Jmp (I.Sym s) -> fun _ _ -> raise (Isa.Encode.Unresolved_symbol s)
  | I.Jcc (c, I.Abs a) ->
    let test = cond_test c in
    fun cpu _ ->
      cpu.Cpu.rip <- (if test cpu.Cpu.flags then a else next);
      Running
  | I.Jcc (c, I.Sym s) ->
    let test = cond_test c in
    fun cpu _ ->
      (* symbolic target only resolves (and faults) when taken *)
      if test cpu.Cpu.flags then raise (Isa.Encode.Unresolved_symbol s)
      else begin
        cpu.Cpu.rip <- next;
        Running
      end
  | I.Call (I.Sym s) -> fun _ _ -> raise (Isa.Encode.Unresolved_symbol s)
  | I.Call (I.Abs a) -> (
    (* direct calls resolve the builtin table once, here; [code.key]
       guards against running under a different environment *)
    match is_builtin a with
    | Some name -> (
      match inline name with
      | Some f ->
        (* builtin inlining: the pure core runs inside the block and
           control falls through, so chains and superblocks continue
           straight across the call. Protocol match with the OS path:
           rip advances past the call before the body runs (the kernel
           dispatches after the call retired), the return value lands
           in rax, and a fault inside the body kills with rip already
           past the call — which is why the Trap is consumed here and
           not left to [emit3]'s generic handler (that would rewind rip
           to the call itself). Cycle charges happen inside [f], exactly
           as the OS dispatch would have charged them. *)
        fun cpu mem ->
          cpu.Cpu.rip <- next;
          (match f cpu mem with
          | v ->
            Array.unsafe_set cpu.Cpu.gprs rax_i v;
            Running
          | exception Fault.Trap fault -> Faulted fault)
      | None ->
        fun cpu _ ->
          cpu.Cpu.rip <- next;
          Builtin name)
    | None ->
      fun cpu mem ->
        push cpu mem next;
        cpu.Cpu.rip <- a;
        Running)
  | I.Call_ind op ->
    let rd = read64_of op in
    fun cpu mem ->
      let a = rd cpu mem in
      (match is_builtin a with
      | Some name ->
        cpu.Cpu.rip <- next;
        Builtin name
      | None ->
        push cpu mem next;
        cpu.Cpu.rip <- a;
        Running)
  | I.Ret ->
    fun cpu mem ->
      let a = pop cpu mem in
      cpu.Cpu.rip <- a;
      Running
  | I.Leave ->
    fun cpu mem ->
      Array.unsafe_set cpu.Cpu.gprs rsp_i (Array.unsafe_get cpu.Cpu.gprs rbp_i);
      let rbp = pop cpu mem in
      Array.unsafe_set cpu.Cpu.gprs rbp_i rbp;
      Running
  | I.Rdrand r ->
    let r = Isa.Reg.index r in
    fun cpu _ ->
      Array.unsafe_set cpu.Cpu.gprs r (Util.Prng.next64 cpu.Cpu.rng);
      let flags = cpu.Cpu.flags in
      flags.Cpu.cf <- true;
      flags.Cpu.zf <- false;
      Running
  | I.Pac (d, m) ->
    let d = Isa.Reg.index d and m = Isa.Reg.index m in
    fun cpu _ ->
      let value = Array.unsafe_get cpu.Cpu.gprs d in
      let modifier = Array.unsafe_get cpu.Cpu.gprs m in
      Array.unsafe_set cpu.Cpu.gprs d (Cpu.pac_sign cpu ~value ~modifier);
      Running
  | I.Aut (d, m) ->
    let d = Isa.Reg.index d and m = Isa.Reg.index m in
    fun cpu _ ->
      let value = Array.unsafe_get cpu.Cpu.gprs d in
      let modifier = Array.unsafe_get cpu.Cpu.gprs m in
      let flags = cpu.Cpu.flags in
      flags.Cpu.zf <- Cpu.pac_auth cpu ~value ~modifier;
      flags.Cpu.sf <- false;
      flags.Cpu.cf <- false;
      flags.Cpu.of_ <- false;
      Array.unsafe_set cpu.Cpu.gprs d (Cpu.pac_strip value);
      Running
  | I.Rdtsc ->
    (* reads cpu.cycles mid-block, which deferred charging leaves at the
       block-entry value; [emit3] intercepts it with a closure that adds
       the retired prefix's static charge (it needs the prefix sums this
       per-insn lowering does not see) *)
    assert false
  | I.Syscall ->
    fun cpu _ ->
      cpu.Cpu.rip <- next;
      Syscall_trap
  | I.Hlt ->
    fun cpu _ ->
      (* the interpreter leaves rip at the hlt itself *)
      cpu.Cpu.rip <- addr;
      Halted
  | I.Movq_to_xmm (x, r) ->
    let x = Isa.Reg.Xmm.index x and r = Isa.Reg.index r in
    fun cpu _ ->
      Array.unsafe_set cpu.Cpu.xmms x (Array.unsafe_get cpu.Cpu.gprs r, 0L);
      Running
  | I.Movq_from_xmm (r, x) ->
    let r = Isa.Reg.index r and x = Isa.Reg.Xmm.index x in
    fun cpu _ ->
      let lo, _ = Array.unsafe_get cpu.Cpu.xmms x in
      Array.unsafe_set cpu.Cpu.gprs r lo;
      Running
  | I.Pinsrq_high (x, r) ->
    let x = Isa.Reg.Xmm.index x and r = Isa.Reg.index r in
    fun cpu _ ->
      let lo, _ = Array.unsafe_get cpu.Cpu.xmms x in
      Array.unsafe_set cpu.Cpu.xmms x (lo, Array.unsafe_get cpu.Cpu.gprs r);
      Running
  | I.Movhps_load (x, m) ->
    let x = Isa.Reg.Xmm.index x and ea = ea_of m in
    fun cpu mem ->
      let lo, _ = Array.unsafe_get cpu.Cpu.xmms x in
      let hi = Memory.read_u64 mem (ea cpu) in
      Array.unsafe_set cpu.Cpu.xmms x (lo, hi);
      Running
  | I.Movq_store (m, x) ->
    let ea = ea_of m and x = Isa.Reg.Xmm.index x in
    fun cpu mem ->
      let lo, _ = Array.unsafe_get cpu.Cpu.xmms x in
      Memory.write_u64 mem (ea cpu) lo;
      Running
  | I.Movdqu_load (x, m) ->
    let x = Isa.Reg.Xmm.index x and ea = ea_of m in
    fun cpu mem ->
      let a = ea cpu in
      (* high qword first, matching the interpreter's read order, so a
         half-unmapped access faults at the same address *)
      let hi = Memory.read_u64 mem (Int64.add a 8L) in
      let lo = Memory.read_u64 mem a in
      Array.unsafe_set cpu.Cpu.xmms x (lo, hi);
      Running
  | I.Movdqu_store (m, x) ->
    let ea = ea_of m and x = Isa.Reg.Xmm.index x in
    fun cpu mem ->
      let a = ea cpu in
      let lo, hi = Array.unsafe_get cpu.Cpu.xmms x in
      Memory.write_u64 mem a lo;
      Memory.write_u64 mem (Int64.add a 8L) hi;
      Running
  | I.Aesenc (dst, src) ->
    let d = Isa.Reg.Xmm.index dst and s = Isa.Reg.Xmm.index src in
    fun cpu _ ->
      let state = xmm_to_bytes (Array.unsafe_get cpu.Cpu.xmms d) in
      let round_key = xmm_to_bytes (Array.unsafe_get cpu.Cpu.xmms s) in
      Array.unsafe_set cpu.Cpu.xmms d
        (xmm_of_bytes (Crypto.Aes128.aesenc ~state ~round_key));
      Running
  | I.Aesenclast (dst, src) ->
    let d = Isa.Reg.Xmm.index dst and s = Isa.Reg.Xmm.index src in
    fun cpu _ ->
      let state = xmm_to_bytes (Array.unsafe_get cpu.Cpu.xmms d) in
      let round_key = xmm_to_bytes (Array.unsafe_get cpu.Cpu.xmms s) in
      Array.unsafe_set cpu.Cpu.xmms d
        (xmm_of_bytes (Crypto.Aes128.aesenclast ~state ~round_key));
      Running
  | I.Pcmpeq128 (x, m) ->
    let x = Isa.Reg.Xmm.index x and ea = ea_of m in
    fun cpu mem ->
      let lo, hi = Array.unsafe_get cpu.Cpu.xmms x in
      let a = ea cpu in
      let mlo = Memory.read_u64 mem a in
      let mhi = Memory.read_u64 mem (Int64.add a 8L) in
      let flags = cpu.Cpu.flags in
      flags.Cpu.zf <- Int64.equal lo mlo && Int64.equal hi mhi;
      flags.Cpu.sf <- false;
      flags.Cpu.cf <- false;
      flags.Cpu.of_ <- false;
      Running

(* ---- Translation: guest-register caching in closure locals ---------- *)

(* A translation threads its hottest guest registers (picked by
   [Ir.cache_plan]) through the emitted code as plain int64 arguments
   instead of routing every access through the [Cpu.gprs] array. OCaml
   has no mutable locals that survive closure boundaries without
   boxing, so the "locals" are the arguments of a continuation chain:
   step [i]'s closure computes its effect on the cached values and
   tail-calls step [i+1] with the results. Exact-arity indirect tail
   calls keep the chain flat on the stack, and an unchanged boxed-int64
   argument is a pointer pass — no re-boxing and no caml_modify write
   barrier. A translation whose plan is empty still runs as a chain:
   every register stays in [Cpu.gprs] and the two arguments ride along
   unused.

   Spill protocol (the correctness core): [Cpu.gprs] is stale for the
   cached registers while the chain runs, so every point where the
   architectural state becomes observable must first write the cached
   values back:

   - faults: each specialized step with a fault point carries its own
     handler that spills, settles rip to the step's address and returns
     [Faulted] — with the values architecturally current at that fault
     point (a push that faults on its store spills the
     already-decremented rsp, exactly the interpreter's partial state);
   - exits and chain transfers: the exit continuation spills before
     control returns to [run_chain] or the dispatcher;
   - kernel-visible outcomes (syscall, hlt, non-inlined builtin calls)
     and steps the emitter does not specialize (xmm traffic, byte/word
     moves, division, inlined builtin bodies, dynamic calls): a generic
     wrapper spills, runs the [insn_op] closure — which reads and writes
     [Cpu.gprs] directly, so [Os.Glibc] and builtin cores see exact
     registers — and reloads the cached values on the way back in.

   Spilling every slot unconditionally (clean or dirty) keeps the
   protocol one plain store per slot; clean spills rewrite the same
   value. The plan is a heuristic only: registers outside it simply
   stay in [Cpu.gprs], and unspecialized shapes run through the generic
   wrapper, so plan quality affects speed, never semantics.

   Each specialized shape keeps one arm per register location (SA, SB,
   SN) rather than one arm branching on the location at run time: an
   arm's machine code is shared by every translation, so a run-time
   branch on the per-closure location predicts poorly — that rewrite
   measured 21-33% slower on SPEC-like runs. *)

(* Emit-time telemetry: registers cached per translation, and static
   spill/reload sites emitted (fault handlers, generic-wrapper
   crossings, chain entry/exit) by translations that cache any. *)
let g_regs_cached = Telemetry.Registry.counter "vm.compile.regs_cached"
let g_spills = Telemetry.Registry.counter "vm.compile.spills"
let g_reloads = Telemetry.Registry.counter "vm.compile.reloads"

type k3 = Cpu.t -> Memory.t -> int64 -> int64 -> outcome * int

(* Where a register lives during the chain: slot A / slot B (the two
   threaded arguments) or its [Cpu.gprs] cell. *)
type slot = SA | SB | SN of int

let emit3 ~is_builtin ~inline (ir : Ir.t) ~(csum : int array) ~(crsum : int array)
    : int array * (Cpu.t -> Memory.t -> outcome * int) =
  let plan = Ir.cache_plan ir in
  let steps = ir.Ir.steps in
  let n = Array.length steps in
  let addr i = (Array.unsafe_get steps i).Ir.addr in
  let ra = if Array.length plan > 0 then plan.(0) else -1 in
  let rb = if Array.length plan > 1 then plan.(1) else -1 in
  let sloti i = if i = ra then SA else if i = rb then SB else SN i in
  let slot r = sloti (Isa.Reg.index r) in
  (* static spill/reload sites, counted as they are emitted *)
  let spills = ref 0 and reloads = ref 0 in
  let spill cpu va vb =
    if ra >= 0 then Array.unsafe_set cpu.Cpu.gprs ra va;
    if rb >= 0 then Array.unsafe_set cpu.Cpu.gprs rb vb
  in
  (* fault exit for step [i]: flush, rip at the faulting instruction *)
  let faulted i =
    incr spills;
    let a = addr i in
    fun f cpu va vb ->
      spill cpu va vb;
      cpu.Cpu.rip <- a;
      (Faulted f, i + 1)
  in
  (* the [insn_op] closure for step [i] *)
  let generic_op i : op =
    let s = Array.unsafe_get steps i in
    match s.Ir.uop with
    | Ir.Exec I.Rdtsc ->
      (* Deferred charging leaves cpu.cycles at the block-entry value
         while compiled code runs, but the interpreter charges
         instruction [i] before executing it — so the tsc it would read
         here is the entry cycles plus the retired prefix's static
         charge, all known at translation time. *)
      let static = csum.(i + 1) and calls = crsum.(i + 1) in
      let retired = i + 1 in
      fun cpu _ ->
        let tsc =
          Int64.add cpu.Cpu.cycles
            (Int64.of_int
               (static + (retired * cpu.Cpu.insn_tax) + (calls * cpu.Cpu.call_tax)))
        in
        Array.unsafe_set cpu.Cpu.gprs rax_i (Int64.logand tsc 0xFFFFFFFFL);
        Array.unsafe_set cpu.Cpu.gprs rdx_i (Int64.shift_right_logical tsc 32);
        Running
    | Ir.Exec insn ->
      insn_op ~is_builtin ~inline ~addr:s.Ir.addr ~next:s.Ir.next insn
    | Ir.Zero _ | Ir.Nop_cost -> assert false (* specialized by [step3] *)
  in
  (* universal fallback: flush, run the [insn_op] closure against
     [Cpu.gprs], reload on the way back in *)
  let generic i (k : k3) : k3 =
    incr spills;
    incr reloads;
    let op = generic_op i in
    let addr = addr i in
    fun cpu mem va vb ->
      spill cpu va vb;
      (match op cpu mem with
      | Running ->
        let va' = if ra >= 0 then Array.unsafe_get cpu.Cpu.gprs ra else va in
        let vb' = if rb >= 0 then Array.unsafe_get cpu.Cpu.gprs rb else vb in
        k cpu mem va' vb'
      | outcome -> (outcome, i + 1)
      | exception Fault.Trap f ->
        cpu.Cpu.rip <- addr;
        (Faulted f, i + 1)
      | exception Isa.Encode.Unresolved_symbol s ->
        cpu.Cpu.rip <- addr;
        (Faulted (Fault.Bad_instruction (addr, "unresolved symbol " ^ s)), i + 1))
  in
  (* effective address against the cached values. [None] bounces the
     step to the generic wrapper — only fs-segment or scaled-index
     uses of a *cached* register are left unspecialized. *)
  let ea3 (m : O.mem) : (Cpu.t -> int64 -> int64 -> int64) option =
    let is_cached r = match slot r with SN _ -> false | _ -> true in
    let base_cached =
      match m.O.base with Some r -> is_cached r | None -> false
    in
    let index_cached =
      match m.O.index with Some (r, _) -> is_cached r | None -> false
    in
    if not (base_cached || index_cached) then
      let ea = ea_of m in
      Some (fun cpu _ _ -> ea cpu)
    else if m.O.seg_fs || index_cached then None
    else
      match (m.O.base, m.O.index) with
      | Some b, None -> (
        let d = m.O.disp in
        match slot b with
        | SA -> Some (fun _ va _ -> Int64.add va d)
        | SB -> Some (fun _ _ vb -> Int64.add vb d)
        | SN _ -> None)
      | Some b, Some (x, s) -> (
        let x = Isa.Reg.index x in
        let s = Int64.of_int (O.scale_factor s) and d = m.O.disp in
        match slot b with
        | SA ->
          Some
            (fun cpu va _ ->
              Int64.add va
                (Int64.add (Int64.mul (Array.unsafe_get cpu.Cpu.gprs x) s) d))
        | SB ->
          Some
            (fun cpu _ vb ->
              Int64.add vb
                (Int64.add (Int64.mul (Array.unsafe_get cpu.Cpu.gprs x) s) d))
        | SN _ -> None)
      | None, _ -> None
  in
  (* a 64-bit source read against the cached values *)
  let src64 : O.t -> (Cpu.t -> Memory.t -> int64 -> int64 -> int64) option =
    function
    | O.Reg r -> (
      match slot r with
      | SA -> Some (fun _ _ va _ -> va)
      | SB -> Some (fun _ _ _ vb -> vb)
      | SN j -> Some (fun cpu _ _ _ -> Array.unsafe_get cpu.Cpu.gprs j))
    | O.Imm v -> Some (fun _ _ _ _ -> v)
    | O.Mem m -> (
      match ea3 m with
      | None -> None
      | Some ea ->
        Some (fun cpu mem va vb -> Memory.read_u64 mem (ea cpu va vb)))
  in
  (* chain exit: flush, settle rip to the fall-through unless the last
     step already wrote it (in a superblock, jmp/call steps sit mid-chain
     too), bounce to the chain/dispatch logic *)
  let exit_k : k3 =
    incr spills;
    let last = Array.unsafe_get steps (n - 1) in
    let last_sets = last.Ir.sets_rip and fall = last.Ir.next in
    fun cpu _ va vb ->
      spill cpu va vb;
      if not last_sets then cpu.Cpu.rip <- fall;
      (Running, n)
  in
  (* Per-step specialization. Every arm mutates state in the
     interpreter's order (value reads before rsp moves, flags before
     destination writes, register writes before the store that can
     fault), so the spilled state at any fault point is exactly the
     interpreted partial state. *)
  let step3 i (k : k3) : k3 =
    match (Array.unsafe_get steps i).Ir.uop with
    | Ir.Nop_cost | Ir.Exec I.Nop -> k
    | Ir.Zero r -> (
      let set0 (f : Cpu.flags) =
        f.Cpu.zf <- true;
        f.Cpu.sf <- false;
        f.Cpu.cf <- false;
        f.Cpu.of_ <- false
      in
      match sloti r with
      | SA ->
        fun cpu mem _ vb ->
          set0 cpu.Cpu.flags;
          k cpu mem 0L vb
      | SB ->
        fun cpu mem va _ ->
          set0 cpu.Cpu.flags;
          k cpu mem va 0L
      | SN j ->
        fun cpu mem va vb ->
          Array.unsafe_set cpu.Cpu.gprs j 0L;
          set0 cpu.Cpu.flags;
          k cpu mem va vb)
    | Ir.Exec (I.Mov (O.Reg d, O.Imm v)) -> (
      match slot d with
      | SA -> fun cpu mem _ vb -> k cpu mem v vb
      | SB -> fun cpu mem va _ -> k cpu mem va v
      | SN j ->
        fun cpu mem va vb ->
          Array.unsafe_set cpu.Cpu.gprs j v;
          k cpu mem va vb)
    | Ir.Exec (I.Mov (O.Reg d, O.Reg sr)) -> (
      match (slot d, slot sr) with
      | SA, SA | SB, SB -> k
      | SA, SB -> fun cpu mem _ vb -> k cpu mem vb vb
      | SB, SA -> fun cpu mem va _ -> k cpu mem va va
      | SA, SN j ->
        fun cpu mem _ vb -> k cpu mem (Array.unsafe_get cpu.Cpu.gprs j) vb
      | SB, SN j ->
        fun cpu mem va _ -> k cpu mem va (Array.unsafe_get cpu.Cpu.gprs j)
      | SN j, SA ->
        fun cpu mem va vb ->
          Array.unsafe_set cpu.Cpu.gprs j va;
          k cpu mem va vb
      | SN j, SB ->
        fun cpu mem va vb ->
          Array.unsafe_set cpu.Cpu.gprs j vb;
          k cpu mem va vb
      | SN j, SN j' ->
        fun cpu mem va vb ->
          Array.unsafe_set cpu.Cpu.gprs j (Array.unsafe_get cpu.Cpu.gprs j');
          k cpu mem va vb)
    | Ir.Exec (I.Mov (O.Reg d, O.Mem m)) -> (
      match ea3 m with
      | None -> generic i k
      | Some ea -> (
        let fault = faulted i in
        match slot d with
        | SA -> (
          fun cpu mem va vb ->
            match Memory.read_u64 mem (ea cpu va vb) with
            | v -> k cpu mem v vb
            | exception Fault.Trap f -> fault f cpu va vb)
        | SB -> (
          fun cpu mem va vb ->
            match Memory.read_u64 mem (ea cpu va vb) with
            | v -> k cpu mem va v
            | exception Fault.Trap f -> fault f cpu va vb)
        | SN j -> (
          fun cpu mem va vb ->
            match Memory.read_u64 mem (ea cpu va vb) with
            | v ->
              Array.unsafe_set cpu.Cpu.gprs j v;
              k cpu mem va vb
            | exception Fault.Trap f -> fault f cpu va vb)))
    | Ir.Exec (I.Mov (O.Mem m, ((O.Reg _ | O.Imm _) as src))) -> (
      match (ea3 m, src64 src) with
      | Some ea, Some rd -> (
        let fault = faulted i in
        fun cpu mem va vb ->
          let v = rd cpu mem va vb in
          match Memory.write_u64 mem (ea cpu va vb) v with
          | () -> k cpu mem va vb
          | exception Fault.Trap f -> fault f cpu va vb)
      | _ -> generic i k)
    | Ir.Exec (I.Lea (r, m)) -> (
      match ea3 m with
      | None -> generic i k
      | Some ea -> (
        match slot r with
        | SA -> fun cpu mem va vb -> k cpu mem (ea cpu va vb) vb
        | SB -> fun cpu mem va vb -> k cpu mem va (ea cpu va vb)
        | SN j ->
          fun cpu mem va vb ->
            Array.unsafe_set cpu.Cpu.gprs j (ea cpu va vb);
            k cpu mem va vb))
    | Ir.Exec (I.Push ((O.Reg _ | O.Imm _) as src)) -> (
      match src64 src with
      | None -> generic i k
      | Some rd -> (
        let fault = faulted i in
        match sloti rsp_i with
        | SA -> (
          fun cpu mem va vb ->
            (* value read before rsp moves: push rsp stores old rsp *)
            let v = rd cpu mem va vb in
            let rsp = Int64.sub va 8L in
            match Memory.write_u64 mem rsp v with
            | () -> k cpu mem rsp vb
            | exception Fault.Trap f -> fault f cpu rsp vb)
        | SB -> (
          fun cpu mem va vb ->
            let v = rd cpu mem va vb in
            let rsp = Int64.sub vb 8L in
            match Memory.write_u64 mem rsp v with
            | () -> k cpu mem va rsp
            | exception Fault.Trap f -> fault f cpu va rsp)
        | SN j -> (
          fun cpu mem va vb ->
            let v = rd cpu mem va vb in
            let rsp = Int64.sub (Array.unsafe_get cpu.Cpu.gprs j) 8L in
            Array.unsafe_set cpu.Cpu.gprs j rsp;
            match Memory.write_u64 mem rsp v with
            | () -> k cpu mem va vb
            | exception Fault.Trap f -> fault f cpu va vb)))
    | Ir.Exec (I.Pop (O.Reg d)) -> (
      let fault = faulted i in
      (* rsp bump before the destination write: pop rsp ends at v *)
      match (sloti rsp_i, slot d) with
      | SA, SA -> (
        fun cpu mem va vb ->
          match Memory.read_u64 mem va with
          | v -> k cpu mem v vb
          | exception Fault.Trap f -> fault f cpu va vb)
      | SA, SB -> (
        fun cpu mem va vb ->
          match Memory.read_u64 mem va with
          | v -> k cpu mem (Int64.add va 8L) v
          | exception Fault.Trap f -> fault f cpu va vb)
      | SA, SN j -> (
        fun cpu mem va vb ->
          match Memory.read_u64 mem va with
          | v ->
            Array.unsafe_set cpu.Cpu.gprs j v;
            k cpu mem (Int64.add va 8L) vb
          | exception Fault.Trap f -> fault f cpu va vb)
      | SB, SA -> (
        fun cpu mem va vb ->
          match Memory.read_u64 mem vb with
          | v -> k cpu mem v (Int64.add vb 8L)
          | exception Fault.Trap f -> fault f cpu va vb)
      | SB, SB -> (
        fun cpu mem va vb ->
          match Memory.read_u64 mem vb with
          | v -> k cpu mem va v
          | exception Fault.Trap f -> fault f cpu va vb)
      | SB, SN j -> (
        fun cpu mem va vb ->
          match Memory.read_u64 mem vb with
          | v ->
            Array.unsafe_set cpu.Cpu.gprs j v;
            k cpu mem va (Int64.add vb 8L)
          | exception Fault.Trap f -> fault f cpu va vb)
      | SN j, SA -> (
        fun cpu mem va vb ->
          let rsp = Array.unsafe_get cpu.Cpu.gprs j in
          match Memory.read_u64 mem rsp with
          | v ->
            Array.unsafe_set cpu.Cpu.gprs j (Int64.add rsp 8L);
            k cpu mem v vb
          | exception Fault.Trap f -> fault f cpu va vb)
      | SN j, SB -> (
        fun cpu mem va vb ->
          let rsp = Array.unsafe_get cpu.Cpu.gprs j in
          match Memory.read_u64 mem rsp with
          | v ->
            Array.unsafe_set cpu.Cpu.gprs j (Int64.add rsp 8L);
            k cpu mem va v
          | exception Fault.Trap f -> fault f cpu va vb)
      | SN j, SN j' -> (
        fun cpu mem va vb ->
          let rsp = Array.unsafe_get cpu.Cpu.gprs j in
          match Memory.read_u64 mem rsp with
          | v ->
            Array.unsafe_set cpu.Cpu.gprs j (Int64.add rsp 8L);
            Array.unsafe_set cpu.Cpu.gprs j' v;
            k cpu mem va vb
          | exception Fault.Trap f -> fault f cpu va vb))
    | Ir.Exec (I.Bin (I.Add, O.Reg d, O.Imm v)) -> (
      match slot d with
      | SA ->
        fun cpu mem va vb ->
          let r = Int64.add va v in
          set_add_flags cpu.Cpu.flags va v r;
          k cpu mem r vb
      | SB ->
        fun cpu mem va vb ->
          let r = Int64.add vb v in
          set_add_flags cpu.Cpu.flags vb v r;
          k cpu mem va r
      | SN j ->
        fun cpu mem va vb ->
          let a = Array.unsafe_get cpu.Cpu.gprs j in
          let r = Int64.add a v in
          set_add_flags cpu.Cpu.flags a v r;
          Array.unsafe_set cpu.Cpu.gprs j r;
          k cpu mem va vb)
    | Ir.Exec (I.Bin (I.Sub, O.Reg d, O.Imm v)) -> (
      match slot d with
      | SA ->
        fun cpu mem va vb ->
          let r = Int64.sub va v in
          set_sub_flags cpu.Cpu.flags va v r;
          k cpu mem r vb
      | SB ->
        fun cpu mem va vb ->
          let r = Int64.sub vb v in
          set_sub_flags cpu.Cpu.flags vb v r;
          k cpu mem va r
      | SN j ->
        fun cpu mem va vb ->
          let a = Array.unsafe_get cpu.Cpu.gprs j in
          let r = Int64.sub a v in
          set_sub_flags cpu.Cpu.flags a v r;
          Array.unsafe_set cpu.Cpu.gprs j r;
          k cpu mem va vb)
    | Ir.Exec (I.Bin (I.Cmp, O.Reg d, O.Imm v)) -> (
      match slot d with
      | SA ->
        fun cpu mem va vb ->
          set_sub_flags cpu.Cpu.flags va v (Int64.sub va v);
          k cpu mem va vb
      | SB ->
        fun cpu mem va vb ->
          set_sub_flags cpu.Cpu.flags vb v (Int64.sub vb v);
          k cpu mem va vb
      | SN j ->
        fun cpu mem va vb ->
          let a = Array.unsafe_get cpu.Cpu.gprs j in
          set_sub_flags cpu.Cpu.flags a v (Int64.sub a v);
          k cpu mem va vb)
    | Ir.Exec (I.Bin ((I.Cmp | I.Test) as bop, d, s)) -> (
      match (src64 d, src64 s) with
      | Some rd, Some rs -> (
        let fault = faulted i in
        let setf =
          match bop with
          | I.Cmp ->
            fun f a b -> set_sub_flags f a b (Int64.sub a b)
          | _ -> fun f a b -> set_logic_flags f (Int64.logand a b)
        in
        fun cpu mem va vb ->
          match
            let a = rd cpu mem va vb in
            let b = rs cpu mem va vb in
            setf cpu.Cpu.flags a b
          with
          | () -> k cpu mem va vb
          | exception Fault.Trap f -> fault f cpu va vb)
      | _ -> generic i k)
    | Ir.Exec (I.Bin (bop, O.Reg d, s)) -> (
      match src64 s with
      | None -> generic i k
      | Some rs -> (
        let addr = addr i in
        let apply =
          match bop with
          | I.Add ->
            fun f a b ->
              let r = Int64.add a b in
              set_add_flags f a b r;
              r
          | I.Sub ->
            fun f a b ->
              let r = Int64.sub a b in
              set_sub_flags f a b r;
              r
          | I.Xor ->
            fun f a b ->
              let r = Int64.logxor a b in
              set_logic_flags f r;
              r
          | I.And ->
            fun f a b ->
              let r = Int64.logand a b in
              set_logic_flags f r;
              r
          | I.Or ->
            fun f a b ->
              let r = Int64.logor a b in
              set_logic_flags f r;
              r
          | I.Imul ->
            fun f a b ->
              let r = Int64.mul a b in
              set_logic_flags f r;
              r
          | I.Idiv ->
            fun f a b ->
              if Int64.equal b 0L then
                raise
                  (Fault.Trap (Fault.Bad_instruction (addr, "division by zero")));
              if Int64.equal a Int64.min_int && Int64.equal b (-1L) then
                raise
                  (Fault.Trap
                     (Fault.Bad_instruction (addr, "division overflow")));
              let r = Int64.div a b in
              set_logic_flags f r;
              r
          | I.Irem ->
            fun f a b ->
              if Int64.equal b 0L then
                raise
                  (Fault.Trap (Fault.Bad_instruction (addr, "division by zero")));
              if Int64.equal a Int64.min_int && Int64.equal b (-1L) then
                raise
                  (Fault.Trap
                     (Fault.Bad_instruction (addr, "division overflow")));
              let r = Int64.rem a b in
              set_logic_flags f r;
              r
          | I.Cmp | I.Test -> assert false (* matched above *)
        in
        let fault = faulted i in
        match slot d with
        | SA -> (
          fun cpu mem va vb ->
            match
              let b = rs cpu mem va vb in
              apply cpu.Cpu.flags va b
            with
            | r -> k cpu mem r vb
            | exception Fault.Trap f -> fault f cpu va vb)
        | SB -> (
          fun cpu mem va vb ->
            match
              let b = rs cpu mem va vb in
              apply cpu.Cpu.flags vb b
            with
            | r -> k cpu mem va r
            | exception Fault.Trap f -> fault f cpu va vb)
        | SN j -> (
          fun cpu mem va vb ->
            match
              let a = Array.unsafe_get cpu.Cpu.gprs j in
              let b = rs cpu mem va vb in
              apply cpu.Cpu.flags a b
            with
            | r ->
              Array.unsafe_set cpu.Cpu.gprs j r;
              k cpu mem va vb
            | exception Fault.Trap f -> fault f cpu va vb)))
    | Ir.Exec (I.Shift (sop, O.Reg d, kk)) when kk land 63 <> 0 -> (
      let kk = kk land 63 in
      let sh =
        match sop with
        | I.Shl -> fun a -> Int64.shift_left a kk
        | I.Shr -> fun a -> Int64.shift_right_logical a kk
        | I.Sar -> fun a -> Int64.shift_right a kk
      in
      match slot d with
      | SA ->
        fun cpu mem va vb ->
          let r = sh va in
          set_logic_flags cpu.Cpu.flags r;
          k cpu mem r vb
      | SB ->
        fun cpu mem va vb ->
          let r = sh vb in
          set_logic_flags cpu.Cpu.flags r;
          k cpu mem va r
      | SN j ->
        fun cpu mem va vb ->
          let r = sh (Array.unsafe_get cpu.Cpu.gprs j) in
          set_logic_flags cpu.Cpu.flags r;
          Array.unsafe_set cpu.Cpu.gprs j r;
          k cpu mem va vb)
    | Ir.Exec (I.Setcc (c, r)) -> (
      let test = cond_test c in
      match slot r with
      | SA ->
        fun cpu mem _ vb ->
          k cpu mem (if test cpu.Cpu.flags then 1L else 0L) vb
      | SB ->
        fun cpu mem va _ ->
          k cpu mem va (if test cpu.Cpu.flags then 1L else 0L)
      | SN j ->
        fun cpu mem va vb ->
          Array.unsafe_set cpu.Cpu.gprs j
            (if test cpu.Cpu.flags then 1L else 0L);
          k cpu mem va vb)
    | Ir.Exec (I.Jmp (I.Abs tgt)) ->
      fun cpu mem va vb ->
        cpu.Cpu.rip <- tgt;
        k cpu mem va vb
    | Ir.Exec (I.Jcc (c, I.Abs tgt)) ->
      let test = cond_test c in
      let next = (Array.unsafe_get steps i).Ir.next in
      fun cpu mem va vb ->
        cpu.Cpu.rip <- (if test cpu.Cpu.flags then tgt else next);
        k cpu mem va vb
    | Ir.Exec (I.Call (I.Abs tgt)) when Option.is_none (is_builtin tgt) -> (
      let next = (Array.unsafe_get steps i).Ir.next in
      let fault = faulted i in
      match sloti rsp_i with
      | SA -> (
        fun cpu mem va vb ->
          let rsp = Int64.sub va 8L in
          match Memory.write_u64 mem rsp next with
          | () ->
            cpu.Cpu.rip <- tgt;
            k cpu mem rsp vb
          | exception Fault.Trap f -> fault f cpu rsp vb)
      | SB -> (
        fun cpu mem va vb ->
          let rsp = Int64.sub vb 8L in
          match Memory.write_u64 mem rsp next with
          | () ->
            cpu.Cpu.rip <- tgt;
            k cpu mem va rsp
          | exception Fault.Trap f -> fault f cpu va rsp)
      | SN j -> (
        fun cpu mem va vb ->
          let rsp = Int64.sub (Array.unsafe_get cpu.Cpu.gprs j) 8L in
          Array.unsafe_set cpu.Cpu.gprs j rsp;
          match Memory.write_u64 mem rsp next with
          | () ->
            cpu.Cpu.rip <- tgt;
            k cpu mem va vb
          | exception Fault.Trap f -> fault f cpu va vb))
    | Ir.Exec I.Ret -> (
      let fault = faulted i in
      match sloti rsp_i with
      | SA -> (
        fun cpu mem va vb ->
          match Memory.read_u64 mem va with
          | a ->
            cpu.Cpu.rip <- a;
            k cpu mem (Int64.add va 8L) vb
          | exception Fault.Trap f -> fault f cpu va vb)
      | SB -> (
        fun cpu mem va vb ->
          match Memory.read_u64 mem vb with
          | a ->
            cpu.Cpu.rip <- a;
            k cpu mem va (Int64.add vb 8L)
          | exception Fault.Trap f -> fault f cpu va vb)
      | SN j -> (
        fun cpu mem va vb ->
          let rsp = Array.unsafe_get cpu.Cpu.gprs j in
          match Memory.read_u64 mem rsp with
          | a ->
            Array.unsafe_set cpu.Cpu.gprs j (Int64.add rsp 8L);
            cpu.Cpu.rip <- a;
            k cpu mem va vb
          | exception Fault.Trap f -> fault f cpu va vb))
    | Ir.Exec I.Leave -> (
      (* rsp := rbp first, so a faulting pop spills rsp = rbp *)
      let fault = faulted i in
      match (sloti rsp_i, sloti rbp_i) with
      | SA, SB -> (
        fun cpu mem _ vb ->
          match Memory.read_u64 mem vb with
          | v -> k cpu mem (Int64.add vb 8L) v
          | exception Fault.Trap f -> fault f cpu vb vb)
      | SB, SA -> (
        fun cpu mem va _ ->
          match Memory.read_u64 mem va with
          | v -> k cpu mem v (Int64.add va 8L)
          | exception Fault.Trap f -> fault f cpu va va)
      | SA, SN j -> (
        fun cpu mem _ vb ->
          let rbp = Array.unsafe_get cpu.Cpu.gprs j in
          match Memory.read_u64 mem rbp with
          | v ->
            Array.unsafe_set cpu.Cpu.gprs j v;
            k cpu mem (Int64.add rbp 8L) vb
          | exception Fault.Trap f -> fault f cpu rbp vb)
      | SB, SN j -> (
        fun cpu mem va _ ->
          let rbp = Array.unsafe_get cpu.Cpu.gprs j in
          match Memory.read_u64 mem rbp with
          | v ->
            Array.unsafe_set cpu.Cpu.gprs j v;
            k cpu mem va (Int64.add rbp 8L)
          | exception Fault.Trap f -> fault f cpu va rbp)
      | SN j, SA -> (
        fun cpu mem va vb ->
          Array.unsafe_set cpu.Cpu.gprs j va;
          match Memory.read_u64 mem va with
          | v ->
            Array.unsafe_set cpu.Cpu.gprs j (Int64.add va 8L);
            k cpu mem v vb
          | exception Fault.Trap f -> fault f cpu va vb)
      | SN j, SB -> (
        fun cpu mem va vb ->
          Array.unsafe_set cpu.Cpu.gprs j vb;
          match Memory.read_u64 mem vb with
          | v ->
            Array.unsafe_set cpu.Cpu.gprs j (Int64.add vb 8L);
            k cpu mem va v
          | exception Fault.Trap f -> fault f cpu va vb)
      | SN j, SN j' -> (
        fun cpu mem va vb ->
          let rbp = Array.unsafe_get cpu.Cpu.gprs j' in
          Array.unsafe_set cpu.Cpu.gprs j rbp;
          match Memory.read_u64 mem rbp with
          | v ->
            Array.unsafe_set cpu.Cpu.gprs j (Int64.add rbp 8L);
            Array.unsafe_set cpu.Cpu.gprs j' v;
            k cpu mem va vb
          | exception Fault.Trap f -> fault f cpu va vb)
      | (SA, SA | SB, SB) -> generic i k (* rsp and rbp are distinct *))
    | _ -> generic i k
  in
  let rec build i = if i >= n then exit_k else step3 i (build (i + 1)) in
  let chain = build 0 in
  incr reloads;
  let entry cpu mem =
    let va = if ra >= 0 then Array.unsafe_get cpu.Cpu.gprs ra else 0L in
    let vb = if rb >= 0 then Array.unsafe_get cpu.Cpu.gprs rb else 0L in
    chain cpu mem va vb
  in
  if Array.length plan > 0 then begin
    Telemetry.Registry.add g_regs_cached (Array.length plan);
    Telemetry.Registry.add g_spills !spills;
    Telemetry.Registry.add g_reloads !reloads
  end;
  (plan, entry)

(* ---- Block translation: lift -> normalize -> emit -------------------- *)

let fresh_link () = { l_space = None; l_epoch = 0; l_addr = 0L; l_target = None }

let emit ~is_builtin ~inline (ir : Ir.t) : code =
  let steps = ir.Ir.steps in
  let n = Array.length steps in
  let csum = Array.make (n + 1) 0 in
  let crsum = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    csum.(i + 1) <- csum.(i) + steps.(i).Ir.cost;
    crsum.(i + 1) <- crsum.(i) + Bool.to_int steps.(i).Ir.callret
  done;
  let cached, run = emit3 ~is_builtin ~inline ir ~csum ~crsum in
  {
    length = n;
    csum;
    crsum;
    exit_ = ir.Ir.exit_;
    blocks = Array.map (fun (p : Ir.part) -> p.Ir.block) ir.Ir.parts;
    starts = Array.map (fun (p : Ir.part) -> p.Ir.start) ir.Ir.parts;
    key = is_builtin;
    hot = 0;
    fuse_tried = Array.length ir.Ir.parts > 1;
    link_a = fresh_link ();
    link_b = fresh_link ();
    cached;
    run;
  }

let no_inline : string -> builtin_fn option = fun _ -> None

let block_ir ~is_builtin ~inline (b : Tcache.block) =
  let inlinable name = Option.is_some (inline name) in
  Ir.normalize (Ir.lift ~is_builtin ~inlinable b)

let compile ?(inline = no_inline) ~is_builtin (b : Tcache.block) : code =
  emit ~is_builtin ~inline (block_ir ~is_builtin ~inline b)

let key (c : code) = c.key
let length (c : code) = c.length
let cached_regs (c : code) = Array.copy c.cached

(* ---- Execution ------------------------------------------------------ *)

(* Protocol: while compiled code runs, cpu.rip is stale (still the block
   entry). Straight-line steps never touch it; control steps set it
   before continuing; every exit of the chain settles it to exactly what
   the interpreter would have left. Cycles (static cost + insn tax +
   call tax) are settled once per exit from the prefix sums — the
   interpreter charges instruction [i] before executing it, so a chain
   that retires k instructions has charged the first k either way. *)
let charge_exit (code : code) cpu k =
  Cpu.add_cycles cpu
    (Array.unsafe_get code.csum k
    + (k * cpu.Cpu.insn_tax)
    + (Array.unsafe_get code.crsum k * cpu.Cpu.call_tax))

(* ---- Chaining, superblocks, profiling attribution ------------------ *)

(* Every constituent is still decodable-as-cached in this space. The
   dispatcher's fetch validated the head block only; a superblock's
   tail constituents need their own check (their pages may have
   CoW-diverged without any invalidation — e.g. a relative published
   the fused translation before the pages split). *)
let code_anchors_ok mem (c : code) =
  let ok = ref true in
  for i = 0 to Array.length c.blocks - 1 do
    if not (Tcache.anchor_valid mem (Array.unsafe_get c.blocks i)) then ok := false
  done;
  !ok

(* The code is still what the head block's slot holds. Replacing the
   slot (superblock formation, stale-superblock strip) retargets every
   chain link pointing at the old translation on its next traversal. *)
let slot_current (c : code) =
  match (Array.unsafe_get c.blocks 0).Tcache.compiled with
  | Code c' -> c' == c
  | _ -> false

(* A link may be followed only when every way it can go stale is ruled
   out:
   - [l_addr]: the exit really goes where the target translates
     (dynamic exits — ret, indirect call — carry a 1-entry inline
     cache);
   - [l_space] (==): links live in code objects that fork relatives
     share; a link resolved in one address space says nothing about
     another, so each space claims links for itself;
   - [l_epoch]: invalidation in this space since resolution — the ONLY
     signal for [patch_text]'s in-place mutation of a private page,
     which anchors cannot see;
   - [slot_current] + anchors + [key]: the target is this space's live,
     decode-consistent translation for the right environment. *)
let link_live tc mem (l : link) rip key =
  match l.l_target with
  | None -> None
  | Some c ->
    if
      Int64.equal l.l_addr rip
      && (match l.l_space with Some s -> s == tc | None -> false)
      && l.l_epoch = Tcache.epoch tc
      && c.key == key
      && slot_current c
      && code_anchors_ok mem c
    then Some c
    else None

let link_for (c : code) rip =
  match c.exit_ with
  | Ir.Branch { taken; _ } ->
    if Int64.equal rip taken then c.link_a else c.link_b
  | _ -> c.link_a

let install_link tc (l : link) rip target =
  l.l_space <- Some tc;
  l.l_epoch <- Tcache.epoch tc;
  l.l_addr <- rip;
  l.l_target <- Some target;
  Tcache.note_chain tc

(* Resolve the translation for [rip] in this space, compiling the
   cached block if needed. [None] bounces to the dispatcher (block not
   cached / stale), which decodes and accounts the miss. *)
let resolve tc mem ~is_builtin ~inline rip =
  match Tcache.find tc rip with
  | Some b when Tcache.anchor_valid mem b -> (
    match b.Tcache.compiled with
    | Code c when c.key == is_builtin -> Some c
    | _ ->
      let c = compile ~inline ~is_builtin b in
      b.Tcache.compiled <- Code c;
      Tcache.note_compile tc;
      Some c)
  | _ -> None

(* Superblock caps: enough to swallow a guarded call's prologue + body
   + epilogue chain, small enough that tail duplication (a block fused
   into several superblocks) stays cheap. *)
let max_super_parts = 8
let max_super_insns = 256

(* Fuse the hot single-block [c] forward along unconditional static
   exits (fall-through, jmp abs, direct call) while the successors are
   already this space's live translations. Conditional branches and
   dynamic exits end the superblock — they stay chain links — and an
   exit back into the superblock's own entries stops growth (the loop
   closes through a link instead). The fused translation replaces the
   head block's slot: entering the head runs the whole chain, side
   entries to constituents keep their own per-block translations
   (tail duplication, the classic trace-JIT shape). *)
let try_fuse tc mem ~is_builtin ~inline (c : code) =
  c.fuse_tried <- true;
  let head = Array.unsafe_get c.blocks 0 in
  let entry_of (b : Tcache.block) = b.Tcache.bb_start in
  let rec grow ir parts =
    if List.length parts >= max_super_parts || Ir.length ir >= max_super_insns
    then ir
    else
      match Ir.jump_target ir with
      | None -> ir
      | Some a ->
        if List.exists (fun b -> Int64.equal (entry_of b) a) parts then ir
        else begin
          match Tcache.find tc a with
          | Some b
            when Tcache.anchor_valid mem b
                 && Ir.length ir + Array.length b.Tcache.insns <= max_super_insns
            -> grow (Ir.fuse ir (block_ir ~is_builtin ~inline b)) (b :: parts)
          | _ -> ir
        end
  in
  let ir = block_ir ~is_builtin ~inline head in
  let fused = grow ir [ head ] in
  if Array.length fused.Ir.parts < 2 then None
  else begin
    let sc = emit ~is_builtin ~inline fused in
    (* register the tail constituents' text extents on the (shared)
       head record BEFORE publishing the translation, so no invalidate
       can observe the superblock without its ranges *)
    head.Tcache.fused_ranges <-
      Array.map
        (fun (b : Tcache.block) -> (b.Tcache.bb_start, b.Tcache.bb_bytes))
        (Array.sub sc.blocks 1 (Array.length sc.blocks - 1));
    head.Tcache.compiled <- Code sc;
    Tcache.note_superblock tc;
    Some sc
  end

(* Per-constituent cycle attribution for the profiler: the same static
   prefix-sum formula [charge_exit] charges with, split at constituent
   boundaries, clamped to the retired prefix. Note order inside a
   dispatch is irrelevant (the profiler aggregates by address), so
   fused output is byte-identical to the interpreter's per-block notes. *)
let note_profile (c : code) cpu k =
  let parts = Array.length c.starts in
  let n = c.length in
  let charge i = c.csum.(i) + (i * cpu.Cpu.insn_tax) + (c.crsum.(i) * cpu.Cpu.call_tax) in
  let j = ref 0 in
  while !j < parts && c.starts.(!j) < k do
    let lo = c.starts.(!j) in
    let hi = if !j + 1 < parts then c.starts.(!j + 1) else n in
    let hi = if k < hi then k else hi in
    Telemetry.Profile.note
      ~addr:(Array.unsafe_get c.blocks !j).Tcache.bb_start
      ~cycles:(charge hi - charge lo);
    incr j
  done

(* The block runner: execute [c0], then keep transferring through live
   (or freshly patched) chain links until fuel runs out, a non-[Running]
   outcome exits to the OS, or the successor is not resolvable in-cache
   or is longer than the remaining fuel (bounce to the dispatcher, which
   decodes it or hands it to the interpreter). The caller guarantees
   [fuel >= c0.length]; every hop runs a whole translation, so fuel,
   cycle and fault accounting are exactly the interpreter's. *)
let run_chain cpu mem ~is_builtin ~inline (c0 : code) ~fuel =
  let tc = cpu.Cpu.tcache in
  let profiling = Telemetry.Profile.enabled () in
  let threshold = Atomic.get fuse_threshold in
  let rec enter (c : code) fuel acc =
    let c =
      if c.fuse_tried || c.hot < threshold then c
      else
        (* a superblock too long for this hop still replaces the slot;
           the plain translation runs this once *)
        match try_fuse tc mem ~is_builtin ~inline c with
        | Some sc when sc.length <= fuel -> sc
        | _ -> c
    in
    c.hot <- c.hot + 1;
    let outcome, k = c.run cpu mem in
    charge_exit c cpu k;
    if profiling then note_profile c cpu k;
    let acc = acc + k and fuel = fuel - k in
    match outcome with
    | Running when fuel > 0 -> follow c fuel acc
    | _ -> (outcome, acc)
  and follow c fuel acc =
    let rip = cpu.Cpu.rip in
    let l = link_for c rip in
    match link_live tc mem l rip is_builtin with
    | Some target -> hop target fuel acc
    | None -> (
      match c.exit_ with
      | Ir.Stop -> (Running, acc)
      | _ -> (
        match resolve tc mem ~is_builtin ~inline rip with
        | Some target ->
          install_link tc l rip target;
          hop target fuel acc
        | None -> (Running, acc)))
  and hop target fuel acc =
    if target.length > fuel then (Running, acc)
    else begin
      Tcache.note_chain_hop tc;
      enter target fuel acc
    end
  in
  (* The dispatcher validated the head block's anchor; a superblock's
     tail constituents may still have gone stale. Strip back to a
     single-block translation rather than run stale code. *)
  let c0 =
    if Array.length c0.blocks > 1 && not (code_anchors_ok mem c0) then begin
      let head = Array.unsafe_get c0.blocks 0 in
      head.Tcache.fused_ranges <- [||];
      let c = compile ~inline ~is_builtin head in
      head.Tcache.compiled <- Code c;
      Tcache.note_compile tc;
      c
    end
    else c0
  in
  enter c0 fuel 0
