(** Packing, placement and routing onto a fabric (the VPR/nextPNR role
    in the paper's flow).

    - packing groups each LUT with the flop it feeds (one BLE), then
      fills CLB tiles;
    - placement starts from identity slot order (BLE [i] in slot [i])
      and anneals slot swaps on half-perimeter wirelength. Each net's
      cost is cached; a move re-costs only the nets of the swapped
      BLEs and a rejected move restores them;
    - routing is one trunk-and-branch pass: per net, a horizontal
      trunk on the median pin row plus one vertical branch per pin
      column. Channel use is counted against the style's channel
      width, with no rip-up or congestion negotiation;
    - the fit check reports a typed shortage ({!Shell_fabric.Fabric.shortage})
      so the flow's step-7 loop can grow the right resource. *)

type tile = { x : int; y : int }

type placement = {
  of_cell : (int, tile) Hashtbl.t;  (** cell index -> tile *)
  used_tiles : int;
  used_luts : int;
  used_ffs : int;
  used_chain : int;
}

type route_stats = {
  wirelength : int;  (** total channel segments used *)
  max_congestion : int;  (** peak per-channel usage *)
  overflow_segments : int;  (** segments above channel capacity *)
}

type result = {
  fabric : Shell_fabric.Fabric.t;
  placement : placement;
  routes : route_stats;
  fit : (unit, Shell_fabric.Fabric.shortage) Result.t;
  utilization : float;  (** used LUTs / LUT capacity (Fig. 2) *)
  tile_utilization : float;  (** tiles with >= 1 used BLE / tiles *)
}

val run :
  ?seed:int ->
  ?anneal_moves:int ->
  Shell_fabric.Fabric.t ->
  Shell_netlist.Netlist.t ->
  result
(** Place and route a technology-mapped netlist ([Lut]/[Mux2]/[Mux4]/
    [Dff]/[Const] cells). Never raises on over-capacity input: the
    verdict lands in [fit]. *)

type fit_counts = {
  used_luts : int;
  lut_capacity : int;
  used_ffs : int;
  ff_capacity : int;
  used_chain : int;
  chain_capacity : int;
  io_pins : int option;  (** [None] when no netlist was supplied *)
  io_capacity : int;
  max_congestion : int;
  channel_width : int;
  overflow_segments : int;
}
(** The full resource accounting of one fit attempt — every demand
    next to its capacity, whether or not that class ran short. *)

val fit_counts :
  ?netlist:Shell_netlist.Netlist.t -> result -> fit_counts
(** Extract the accounting from a PnR result. Pass the mapped
    [netlist] to also count boundary-pin demand ([io_pins]). *)

val diag_of_fit :
  ?netlist:Shell_netlist.Netlist.t -> result -> Shell_util.Diag.t option
(** [None] when the mapping fits; otherwise a diagnostic whose typed
    payload is the {!Shell_fabric.Fabric.Shortage} (which resource ran
    short, demanded vs available, plus the [counts] triples from
    {!fit_counts}). Pass the mapped [netlist] so a routing shortage can
    distinguish boundary-pin demand from channel congestion. The
    pipeline's PnR pass raises it when fit failures are strict. *)

val fit_loop :
  ?seed:int ->
  ?max_grows:int ->
  style:Shell_fabric.Style.t ->
  Shell_netlist.Netlist.t ->
  result
(** Steps 6–7 of the SheLL flow: size the fabric from the mapped
    netlist's demand, run {!run}, grow the short resource and retry
    until it fits (or [max_grows], default 16, is exhausted — the last
    attempt is returned in that case).

    The netlist is packed once. Shortages that need no placement —
    boundary pins over [Fabric.io_capacity], BLEs over the slots, chain
    cells over [chain_slots] — are grown through without placing, so
    only channel-overflow failures cost an anneal. If the grows run out
    during that walk, {!run} places the last fabric, so the result
    equals the one-attempt-per-grow loop's. Each placed attempt is one
    [pnr.attempt] span; [pnr_retries] counts the placed attempts that
    failed and were retried. *)
