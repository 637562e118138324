(** Backward observability-don't-care (ODC) analysis.

    Computes, per net, whether its value can still be observed at any
    primary output under the proven constant facts. The result is a
    conservative over-approximation of true observability — a net
    marked [false] provably cannot affect any output by toggling alone,
    so the negation is safe to act on (the [key-odc-dead] lint rule and
    the redundancy attack's live-cell bound both do).

    Propagation starts at the primary outputs and walks cell reads
    backwards; a read is cut when one of the {e masking rules} proves
    it can never steer the cell's output:
    - a mux arm not selectable under a pinned select, or a select whose
      arms are the same net / the same proven constant;
    - an AND/NAND (OR/NOR) operand whose sibling is a proven
      controlling 0 (1);
    - an XOR/XNOR whose two operands are the same net (toggling flips
      both at once, output fixed);
    - a LUT input the residual (constant-cofactored) table no longer
      depends on, or one that is itself pinned;
    - any read by a cell whose output is a proven constant.

    Proven-constant nets are never observable (they carry no toggle).

    Each read's verdict is judged once, up front, into the shared
    {!read_masks} table that the key-taint propagation reads too. The
    propagation itself is a worklist: when a net becomes observable,
    every cell driving it (all of them, on a multi-driven net) marks its
    unmasked inputs. Each net enters the worklist once, so the least
    fixpoint is reached in time linear in the reads, on cyclic netlists
    and through sequential cells (state influence counts) alike.

    Observable implies live: the analysis refines
    {!Dataflow.cones.live} with strictly more cuts. *)

type t = {
  observable : bool array;
      (** per net id: toggling it can still reach an output *)
  masked_reads : int;
      (** reads of observable cells cut by a masking rule (diagnostic) *)
  const_cuts : int;  (** nets cut as proven constants (diagnostic) *)
}

val input_masked :
  Dataflow.value array -> Shell_netlist.Cell.t -> int -> bool
(** [input_masked values c i]: the read of input position [i] of [c]
    is provably masked under the constant facts — toggling that input
    alone can never change [c]'s output. The single-read specification
    of {!read_masks}. *)

type masks
(** One {!input_masked} verdict per (cell, input position) read,
    stored as flat bytes with per-cell offsets. *)

val read_masks : Dataflow.value array -> Shell_netlist.Netlist.t -> masks
(** Judge every read of every cell once under the given constant
    facts. A LUT builds its residual table once for all of its inputs.
    Agrees with {!input_masked} on every read. *)

val masked : masks -> cell:int -> int -> bool
(** [masked m ~cell i]: the read of input position [i] of cell index
    [cell] is masked. *)

val analyze :
  ?values:Dataflow.value array ->
  ?masks:masks ->
  Shell_netlist.Netlist.t ->
  t
(** Run the analysis; [~values] defaults to {!Dataflow.const_values}
    and [~masks] to {!read_masks} over those values (pass the context's
    facts to avoid recomputing them). *)
