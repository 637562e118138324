(** Forward key reach.

    A net is reached when some key bit can still functionally steer it:
    the union projection of the per-bit key-influence lattice (per net,
    the set of key bits reaching it), which is all the
    [key-taint-collapse] lint rule asks. Key ports seed the reach;
    cells pass it from their inputs to their output, except that

    - a proven-constant net is never reached (its value is fixed, so no
      key influence flows through it), and
    - a read that the shared {!Odc.read_masks} table proves can never
      steer the cell passes nothing (unselected mux arms,
      cofactored-away LUT inputs, operands masked by a controlling
      constant).

    Sequential cells pass reach through: state influence counts. The
    result over-approximates true functional influence: an output that
    is not reached provably does not depend on any key bit — its cone
    is attacker-simulable without the key.

    It is a forward worklist from the key nets over the reads of each
    net, so each net enters it once and the pass is linear in the
    reads, cycles included. *)

val reached :
  ?values:Dataflow.value array ->
  ?masks:Odc.masks ->
  Shell_netlist.Netlist.t ->
  bool array
(** Per net id: some key bit reaches it. [~values] defaults to
    {!Dataflow.const_values} and [~masks] to {!Odc.read_masks} over
    those values (pass the context's facts to avoid recomputing
    them). *)
