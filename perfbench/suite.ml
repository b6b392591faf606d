(* The shape every workload gives the benchmark. A workload has a finite
   universe of cells, each with one committed reference result; a round
   is a seeded selection of cells. [boot] prepares a cell's victim or
   server outside the timed region; [exec] is the timed operation. *)

type outcome = {
  result : string;  (** the simulated result, compared to the reference *)
  ops : int;  (** program runs, oracle queries or completed requests *)
}

module type S = sig
  val name : string

  val op_name : string
  (** What [ops] counts, for the printed summary. *)

  val run_name : string
  (** What one [exec] is. *)

  type cell

  val key : cell -> string
  (** Unique within the universe; the reference file is keyed by it. *)

  val universe : cell list

  val nominal_round_s : float
  (** Host seconds a round takes on the reference machine (2-core
      x86-64 VM at 2.1 GHz); sets how many rounds and passes a run of a
      given length makes. *)

  val round : seed:int -> int -> cell list
  (** Round [r] of the run seeded with [seed]. Every round of every seed
      has the same size. *)

  type images

  val build : unit -> images
  (** Parse, compile and instrument every image the universe needs. *)

  type booted

  val boot : images -> cell -> booted
  val exec : booted -> outcome

  val reference : cell -> string
  (** The cell's result through the program's own entry points
      ([Harness.Runner] where one exists), for the reference file. *)
end
