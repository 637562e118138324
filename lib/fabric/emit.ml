module Netlist = Shell_netlist.Netlist
module Cell = Shell_netlist.Cell
module Rng = Shell_util.Rng
module Truthtab = Shell_util.Truthtab
module Diag = Shell_util.Diag
module Obs = Shell_util.Obs

(* Stable: emission is deterministic and the single-flight pass cache
   runs each distinct emission exactly once at any job count. *)
let m_table_bits =
  Obs.counter ~stable:true ~help:"LUT truth-table bits emitted"
    "bitstream_table_bits"

let m_routing_bits =
  Obs.counter ~stable:true ~help:"route/chain select bits emitted"
    "bitstream_routing_bits"

type t = {
  locked : Shell_netlist.Netlist.t;
  bitstream : Bitstream.t;
  used : Resources.t;
  used_luts : int;
  used_ffs : int;
  used_chain : int;
  cycle_blocks : (int array * bool array) list;
}

type ctx = {
  style : Style.params;
  rng : Rng.t;
  src : Netlist.t;
  dst : Netlist.t;
  bs : Bitstream.t;
  net_map : int array;  (* src net -> dst net *)
  level : int array;  (* src net -> topo level *)
  pool_net : int array;  (* candidate source nets (src), setup order *)
  pool_level : int array;  (* their levels *)
  legal : int array;  (* decoy buffer: pool indices, reused per pick *)
  mutable next_key : int;
  mutable route_mux2 : int;
  mutable route_mux4 : int;
  mutable lut_body_mux2 : int;
  mutable chain_mux2 : int;
  mutable chain_mux4 : int;
  mutable config_bits : int;
  mutable user_dffs : int;
  mutable cycle_blocks : (int array * bool array) list;
}

(* returns (key net in dst, key index in Netlist.keys order) *)
let fresh_key ctx label =
  let id = ctx.next_key in
  ctx.next_key <- id + 1;
  ctx.config_bits <- ctx.config_bits + 1;
  (Netlist.add_key ctx.dst (Printf.sprintf "cfg%d_%s" id label), id)

(* A keyed route mux: selects among [cands] (dst nets) with fresh key
   bits; [true_pos] is the index that must be selected by the correct
   bitstream. Returns the output net; appends the select value to the
   bitstream. *)
let route_mux ctx ~label ~origin ~cand_levels ~sink_level cands true_pos =
  let n = Array.length cands in
  if n = 1 then cands.(0)
  else begin
    let bits = Fabric.sel_bits n in
    let padded = 1 lsl bits in
    let data = Array.init padded (fun i -> cands.(i mod n)) in
    let key_pairs =
      Array.init bits (fun b -> fresh_key ctx (Printf.sprintf "%s.s%d" label b))
    in
    let keys = Array.map fst key_pairs in
    let key_ids = Array.map snd key_pairs in
    (* select patterns whose source could close a combinational cycle:
       what the cyclic-reduction preprocessing of the attack rules out *)
    if ctx.style.Style.cyclic_routing && sink_level < max_int then
      for p = 0 to padded - 1 do
        if cand_levels.(p mod n) >= sink_level && p <> true_pos then
          ctx.cycle_blocks <-
            (key_ids, Array.init bits (fun b -> p land (1 lsl b) <> 0))
            :: ctx.cycle_blocks
      done;
    (* mixed-radix select tree from the LSB up: a 4:1 level consumes
       two key bits (FABulous custom cell), a 2:1 level one *)
    let use4 = ctx.style.Style.route_mux4 in
    let rec fold data bit_idx =
      let len = Array.length data in
      if len = 1 then data.(0)
      else if use4 && len >= 4 && bits - bit_idx >= 2 then begin
        let s0 = keys.(bit_idx) and s1 = keys.(bit_idx + 1) in
        let next =
          Array.init (len / 4) (fun g ->
              ctx.route_mux4 <- ctx.route_mux4 + 1;
              Netlist.gate ~origin ctx.dst Cell.Mux4
                [| s0; s1; data.(4 * g); data.((4 * g) + 1);
                   data.((4 * g) + 2); data.((4 * g) + 3) |])
        in
        fold next (bit_idx + 2)
      end
      else begin
        let sel = keys.(bit_idx) in
        let next =
          Array.init (len / 2) (fun g ->
              ctx.route_mux2 <- ctx.route_mux2 + 1;
              Netlist.mux2 ~origin ctx.dst ~sel ~a:data.(2 * g)
                ~b:data.((2 * g) + 1))
        in
        fold next (bit_idx + 1)
      end
    in
    let out = fold data 0 in
    let value = Array.init bits (fun b -> true_pos land (1 lsl b) <> 0) in
    Bitstream.append ctx.bs label value;
    out
  end

(* Choose [flex] candidates for a source net: the true source plus
   decoys from the pool, position randomized. Non-cyclical styles only
   accept decoys from strictly lower levels than [sink_level]. The legal
   decoys are filtered into [ctx.legal] in pool order and only that
   prefix is shuffled: the same draws as shuffling a fresh array of the
   legal decoys, without building one per pick. *)
let pick_candidates ctx ~flex ~sink_level true_net =
  let cyclic = ctx.style.Style.cyclic_routing in
  let n_legal = ref 0 in
  for p = 0 to Array.length ctx.pool_net - 1 do
    if ctx.pool_net.(p) <> true_net && (cyclic || ctx.pool_level.(p) < sink_level)
    then begin
      ctx.legal.(!n_legal) <- p;
      incr n_legal
    end
  done;
  Rng.shuffle_prefix ctx.rng ctx.legal !n_legal;
  let n_decoys = min (flex - 1) !n_legal in
  let cands = Array.make (n_decoys + 1) (ctx.net_map.(true_net)) in
  let levels = Array.make (n_decoys + 1) (-1) in
  (* the true source can never close a cycle: tag it level -1 *)
  for i = 0 to n_decoys - 1 do
    let p = ctx.legal.(i) in
    cands.(i + 1) <- ctx.net_map.(ctx.pool_net.(p));
    levels.(i + 1) <- ctx.pool_level.(p)
  done;
  let true_pos = Rng.int ctx.rng (Array.length cands) in
  let swap arr =
    let tmp = arr.(0) in
    arr.(0) <- arr.(true_pos);
    arr.(true_pos) <- tmp
  in
  swap cands;
  swap levels;
  (cands, levels, true_pos)

let routed_input ctx ~flex ~label ~origin ~sink_level src_net =
  if flex <= 1 then ctx.net_map.(src_net)
  else begin
    let cands, cand_levels, true_pos =
      pick_candidates ctx ~flex ~sink_level src_net
    in
    route_mux ctx ~label ~origin ~cand_levels ~sink_level cands true_pos
  end

(* LUT body: 2:1-mux tree with key-bit leaves (truth-table storage). *)
let lut_body ctx ~label ~origin tt routed_ins =
  let k = Truthtab.arity tt in
  let rows = 1 lsl k in
  let leaves =
    Array.init rows (fun r ->
        fst (fresh_key ctx (Printf.sprintf "%s.t%d" label r)))
  in
  (* select on input (depth) : input j splits ranges of stride 2^j;
     build recursively top-down on the MSB input *)
  let rec build lo len input_idx =
    if len = 1 then leaves.(lo)
    else begin
      let half = len / 2 in
      let a = build lo half (input_idx - 1) in
      let b = build (lo + half) half (input_idx - 1) in
      ctx.lut_body_mux2 <- ctx.lut_body_mux2 + 1;
      Netlist.mux2 ~origin ctx.dst ~sel:routed_ins.(input_idx) ~a ~b
    end
  in
  let out = build 0 rows (k - 1) in
  let value =
    Array.init rows (fun r ->
        Int64.(logand (shift_right_logical (Truthtab.bits tt) r) 1L) = 1L)
  in
  Bitstream.append ctx.bs (label ^ ".table") value;
  out

let emit ~style ?(seed = 0xfab) ?(force_acyclic = false) src =
  let p = Style.params style in
  let p =
    if force_acyclic then { p with Style.cyclic_routing = false } else p
  in
  let cells = Netlist.cells src in
  let order = Netlist.topo_order src in
  (* net levels in the source netlist *)
  let level = Array.make (max (Netlist.num_nets src) 1) 0 in
  Array.iter
    (fun ci ->
      let c = cells.(ci) in
      if not (Cell.is_sequential c.Cell.kind) then
        level.(c.Cell.out) <-
          1 + Array.fold_left (fun m n -> max m level.(n)) 0 c.Cell.ins)
    order;
  let dst = Netlist.create (Netlist.name src ^ "_efpga") in
  let net_map = Array.make (max (Netlist.num_nets src) 1) (-1) in
  (* (src net, level) candidate sources, most recent first *)
  let pool = ref [] in
  List.iter
    (fun (nm, net) ->
      net_map.(net) <- Netlist.add_input dst nm;
      pool := (net, 0) :: !pool)
    (Netlist.inputs src);
  (* sequential outputs are sources: reserve nets, add to pool *)
  Array.iter
    (fun c ->
      if Cell.is_sequential c.Cell.kind then begin
        net_map.(c.Cell.out) <- Netlist.new_net dst;
        pool := (c.Cell.out, 0) :: !pool
      end)
    cells;
  (* pre-register every combinational cell output in the pool so cyclic
     styles can pick downstream decoys; reserve dst nets lazily *)
  let reserve net =
    if net_map.(net) = -1 then net_map.(net) <- Netlist.new_net dst
  in
  Array.iter
    (fun c ->
      match c.Cell.kind with
      | Cell.Lut _ | Cell.Mux2 | Cell.Mux4 ->
          reserve c.Cell.out;
          pool := (c.Cell.out, level.(c.Cell.out)) :: !pool
      | Cell.Const _ ->
          (* constants are hostable but not offered as routing decoys *)
          reserve c.Cell.out
      | _ -> ())
    cells;
  let pool = Array.of_list !pool in
  let ctx =
    {
      style = p;
      rng = Rng.create seed;
      src;
      dst;
      bs = Bitstream.builder ();
      net_map;
      level;
      pool_net = Array.map fst pool;
      pool_level = Array.map snd pool;
      legal = Array.make (Array.length pool) 0;
      next_key = 0;
      route_mux2 = 0;
      route_mux4 = 0;
      lut_body_mux2 = 0;
      chain_mux2 = 0;
      chain_mux4 = 0;
      config_bits = 0;
      user_dffs = 0;
      cycle_blocks = [];
    }
  in
  let used_luts = ref 0 and used_chain = ref 0 in
  let connect_out src_net dst_net ~origin =
    (* the computed function must land on the reserved net *)
    Netlist.add_cell dst (Cell.make ~origin Cell.Buf [| src_net |] dst_net)
  in
  (* Cells are processed in netlist order (not topo order) so that the
     sequential elements of the locked netlist line up one-to-one with
     the source's — the full-scan attack model pairs scan ports by
     position. Nets are pre-reserved, so order does not matter
     structurally. *)
  Array.iteri
    (fun ci c ->
      let origin = c.Cell.origin in
      let label_of what = Printf.sprintf "%s%d" what ci in
      match c.Cell.kind with
      | Cell.Lut tt ->
          incr used_luts;
          let lbl = label_of "lut" in
          let sink_level = level.(c.Cell.out) in
          let routed =
            Array.mapi
              (fun i net ->
                routed_input ctx ~flex:p.Style.route_flex
                  ~label:(Printf.sprintf "%s.in%d" lbl i)
                  ~origin ~sink_level net)
              c.Cell.ins
          in
          let out = lut_body ctx ~label:lbl ~origin tt routed in
          connect_out out ctx.net_map.(c.Cell.out) ~origin
      | Cell.Mux2 ->
          if not p.Style.supports_chain then
            Diag.failf "Emit: chain cell (Mux2) on chain-less style %s"
              (Style.name style);
          incr used_chain;
          ctx.chain_mux2 <- ctx.chain_mux2 + 1;
          let lbl = label_of "ch" in
          let sink_level = level.(c.Cell.out) in
          let routed =
            Array.mapi
              (fun i net ->
                routed_input ctx ~flex:p.Style.chain_flex
                  ~label:(Printf.sprintf "%s.p%d" lbl i)
                  ~origin ~sink_level net)
              c.Cell.ins
          in
          let out =
            Netlist.mux2 ~origin dst ~sel:routed.(0) ~a:routed.(1) ~b:routed.(2)
          in
          connect_out out ctx.net_map.(c.Cell.out) ~origin
      | Cell.Mux4 ->
          if not p.Style.supports_chain then
            Diag.failf "Emit: chain cell (Mux4) on chain-less style %s"
              (Style.name style);
          incr used_chain;
          ctx.chain_mux4 <- ctx.chain_mux4 + 1;
          let lbl = label_of "ch" in
          let sink_level = level.(c.Cell.out) in
          let routed =
            Array.mapi
              (fun i net ->
                routed_input ctx ~flex:p.Style.chain_flex
                  ~label:(Printf.sprintf "%s.p%d" lbl i)
                  ~origin ~sink_level net)
              c.Cell.ins
          in
          let out = Netlist.gate ~origin dst Cell.Mux4 routed in
          connect_out out ctx.net_map.(c.Cell.out) ~origin
      | Cell.Dff ->
          ctx.user_dffs <- ctx.user_dffs + 1;
          let lbl = label_of "ff" in
          let routed =
            routed_input ctx ~flex:p.Style.route_flex ~label:(lbl ^ ".d")
              ~origin ~sink_level:max_int c.Cell.ins.(0)
          in
          Netlist.add_cell dst
            (Cell.make ~origin Cell.Dff [| routed |] ctx.net_map.(c.Cell.out))
      | Cell.Const b ->
          reserve c.Cell.out;
          Netlist.add_cell dst
            (Cell.make ~origin (Cell.Const b) [||] ctx.net_map.(c.Cell.out))
      | Cell.And | Cell.Or | Cell.Nand | Cell.Nor | Cell.Xor | Cell.Xnor
      | Cell.Not | Cell.Buf | Cell.Config_latch ->
          Diag.failf "Emit: cell kind not hostable on fabric: %s"
            (Cell.kind_name c.Cell.kind))
    cells;
  (* primary outputs exit through keyed connection boxes too *)
  List.iteri
    (fun i (nm, net) ->
      let routed =
        routed_input ctx ~flex:p.Style.route_flex
          ~label:(Printf.sprintf "po%d" i)
          ~origin:"po" ~sink_level:max_int net
      in
      Netlist.add_output dst nm routed)
    (Netlist.outputs src);
  let storage_dffs, storage_latches =
    match p.Style.config_storage with
    | Style.Dff_chain -> (ctx.config_bits, 0)
    | Style.Latch_array -> (0, ctx.config_bits)
  in
  if Obs.enabled () then begin
    let table_bits, routing_bits = Bitstream.kind_bits ctx.bs in
    Obs.add m_table_bits table_bits;
    Obs.add m_routing_bits routing_bits
  end;
  {
    locked = Shell_netlist.Rewrite.sweep_buffers dst;
    bitstream = ctx.bs;
    used =
      {
        Resources.lut_body_mux2 = ctx.lut_body_mux2;
        route_mux2 = ctx.route_mux2;
        route_mux4 = ctx.route_mux4;
        chain_mux4 = ctx.chain_mux4;
        chain_mux2 = ctx.chain_mux2;
        user_dffs = ctx.user_dffs;
        config_bits = ctx.config_bits;
        storage_dffs;
        storage_latches;
        control_ffs =
          (match p.Style.config_storage with
          | Style.Dff_chain -> 0
          | Style.Latch_array -> p.Style.control_ffs_base);
        io_pins =
          List.length (Netlist.inputs src) + List.length (Netlist.outputs src);
        feedthrough_tracks = 0;
      };
    used_luts = !used_luts;
    used_ffs = ctx.user_dffs;
    used_chain = !used_chain;
    cycle_blocks = ctx.cycle_blocks;
  }
