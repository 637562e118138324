(** Forward key-influence taint lattice.

    Per net, the bitset of key bits whose value can still functionally
    reach it. Key ports seed their own bit; cells union the taint of
    their inputs into their output, except that

    - a proven-constant net contributes and accumulates nothing (its
      value is fixed, so no key influence flows through it), and
    - a read that the shared {!Odc.read_masks} table proves can never
      steer the cell contributes nothing (unselected mux arms,
      cofactored-away LUT inputs, operands masked by a controlling
      constant).

    {!analyze} sweeps the cells in topological order to the least
    fixpoint (one sweep on combinational logic; cyclic netlists and
    sequential feedback take more). Sequential cells pass taint
    through: state influence counts.

    The result over-approximates true functional influence: an output
    whose taint set is {e empty} provably does not depend on any key
    bit — its cone is attacker-simulable without the key.

    {!reached} is the union projection of the lattice, one bit per net,
    which is all the [key-taint-collapse] lint rule asks: whether the
    set is empty. It is a forward worklist from the key nets over the
    reads of each net, so each net enters it once and the pass is
    linear in the reads, cycles included. *)

type t = {
  nkeys : int;
  w : int;  (** bitset words per net *)
  words : int array;  (** net-major bitset matrix, [n * w] *)
}

val analyze :
  ?values:Dataflow.value array ->
  ?masks:Odc.masks ->
  Shell_netlist.Netlist.t ->
  t
(** The per-bit lattice. [~values] defaults to {!Dataflow.const_values}
    and [~masks] to {!Odc.read_masks} over those values (pass the
    context's facts to avoid recomputing them). *)

val reached :
  ?values:Dataflow.value array ->
  ?masks:Odc.masks ->
  Shell_netlist.Netlist.t ->
  bool array
(** Per net id: some key bit reaches it. Equal to
    [not (is_empty (analyze nl) net)] on every net, at one bit per net
    instead of one per key. Same defaults as {!analyze}. *)

val tainted : t -> net:int -> bit:int -> bool
(** Key bit [bit] can still reach [net]. *)

val is_empty : t -> int -> bool
(** No key bit reaches this net. *)

val net_taint : t -> int -> int list
(** Ascending list of key-bit indices reaching the net. *)

val count : t -> int -> int

val output_taints :
  t -> Shell_netlist.Netlist.t -> (string * int list) list
(** Per primary output [(name, key bits reaching it)], in declaration
    order. *)
