module Netlist = Shell_netlist.Netlist
module Cell = Shell_netlist.Cell
module Fabric = Shell_fabric.Fabric
module Style = Shell_fabric.Style
module Rng = Shell_util.Rng
module Obs = Shell_util.Obs

(* Retries are a pure function of the netlist/style/seed, and the
   single-flight pass cache runs each distinct PnR input exactly once
   — so the total is stable across job counts. Grows decided by
   {!capacity_shortage} alone place nothing and are not counted. *)
let m_retries =
  Obs.counter ~stable:true
    ~help:"placed fit attempts that failed and were retried" "pnr_retries"

type tile = { x : int; y : int }

type placement = {
  of_cell : (int, tile) Hashtbl.t;
  used_tiles : int;
  used_luts : int;
  used_ffs : int;
  used_chain : int;
}

type route_stats = {
  wirelength : int;
  max_congestion : int;
  overflow_segments : int;
}

type result = {
  fabric : Fabric.t;
  placement : placement;
  routes : route_stats;
  fit : (unit, Fabric.shortage) Result.t;
  utilization : float;
  tile_utilization : float;
}

(* ------------------------------------------------------------------ *)
(* Packing                                                             *)
(* ------------------------------------------------------------------ *)

type ble = { lut : int option; ff : int option }  (* cell indices *)

type packed = {
  bles : ble array;
  chain : int array;  (* Mux2/Mux4 cell indices, one chain slot each *)
  luts : int;  (* BLEs holding a LUT *)
  ffs : int;  (* BLEs holding a flop *)
  pins : int;  (* boundary pins: primary inputs plus outputs *)
}

let pack nl =
  let cells = Netlist.cells nl in
  let fanout_count = Array.make (max (Netlist.num_nets nl) 1) 0 in
  Array.iter
    (fun c ->
      Array.iter
        (fun net -> fanout_count.(net) <- fanout_count.(net) + 1)
        c.Cell.ins)
    cells;
  Array.iter
    (fun net -> fanout_count.(net) <- fanout_count.(net) + 1)
    (Netlist.output_nets nl);
  (* a flop packs with the LUT that exclusively feeds it *)
  let ff_of_lut = Hashtbl.create 16 in
  let packed_ff = Hashtbl.create 16 in
  Array.iteri
    (fun i c ->
      if c.Cell.kind = Cell.Dff then
        match Netlist.driver nl c.Cell.ins.(0) with
        | Some j
          when (match cells.(j).Cell.kind with Cell.Lut _ -> true | _ -> false)
               && fanout_count.(cells.(j).Cell.out) = 1
               && not (Hashtbl.mem ff_of_lut j) ->
            Hashtbl.add ff_of_lut j i;
            Hashtbl.add packed_ff i ()
        | Some _ | None -> ())
    cells;
  let bles = ref [] and chain = ref [] in
  Array.iteri
    (fun i c ->
      match c.Cell.kind with
      | Cell.Lut _ ->
          bles := { lut = Some i; ff = Hashtbl.find_opt ff_of_lut i } :: !bles
      | Cell.Dff ->
          if not (Hashtbl.mem packed_ff i) then
            bles := { lut = None; ff = Some i } :: !bles
      | Cell.Mux2 | Cell.Mux4 -> chain := i :: !chain
      | Cell.Const _ | Cell.Config_latch -> ()
      | Cell.And | Cell.Or | Cell.Nand | Cell.Nor | Cell.Xor | Cell.Xnor
      | Cell.Not | Cell.Buf ->
          (* unmapped logic: treat as one BLE worth of demand *)
          bles := { lut = Some i; ff = None } :: !bles)
    cells;
  let bles = Array.of_list (List.rev !bles) in
  let count f = Array.fold_left (fun n b -> if f b then n + 1 else n) 0 bles in
  {
    bles;
    chain = Array.of_list (List.rev !chain);
    luts = count (fun b -> b.lut <> None);
    ffs = count (fun b -> b.ff <> None);
    pins = List.length (Netlist.inputs nl) + List.length (Netlist.outputs nl);
  }

(* The shortages that are decided before placement, in the order the
   fit check reports them: boundary pins, BLE slots, chain slots. On
   such a fabric the verdict is this shortage whatever the placement. *)
let capacity_shortage fabric pk =
  let slots =
    Fabric.clb_tiles fabric * (Style.params fabric.Fabric.style).Style.clb_luts
  in
  if pk.pins > Fabric.io_capacity fabric then Some Fabric.Routing_short
  else if Array.length pk.bles > slots then
    (* distinguish what drove the overflow *)
    if pk.luts > Fabric.lut_capacity fabric then Some Fabric.Luts_short
    else Some Fabric.Ffs_short
  else if Array.length pk.chain > fabric.Fabric.chain_slots then
    Some Fabric.Chain_short
  else None

(* ------------------------------------------------------------------ *)
(* Placement and routing                                               *)
(* ------------------------------------------------------------------ *)

let place_and_route ?(seed = 7) ?(anneal_moves = 20_000) fabric nl pk =
  let p = Style.params fabric.Fabric.style in
  let cells = Netlist.cells nl in
  let bles = pk.bles and chain = pk.chain in
  let cols = fabric.Fabric.cols and rows = fabric.Fabric.rows in
  let slots_per_tile = p.Style.clb_luts in
  let n_slots = cols * rows * slots_per_tile in
  let rng = Rng.create seed in
  (* slot assignment for as many BLEs as fit; the remainder (over
     capacity) is left unplaced and the fit check reports the shortage *)
  let placeable = min (Array.length bles) n_slots in
  let slot_of_ble = Array.init placeable Fun.id in
  let ble_of_slot = Array.make n_slots (-1) in
  Array.iteri (fun b s -> ble_of_slot.(s) <- b) slot_of_ble;
  let slot_x = Array.init n_slots (fun s -> s / slots_per_tile mod cols) in
  let slot_y = Array.init n_slots (fun s -> s / slots_per_tile / cols) in
  (* A pin is a BLE index when >= 0, otherwise [lnot k] for fixed
     position [k]: virtual I/O on the left (inputs, then key inputs)
     and right (outputs) edges, and the chain cells in a vertical strip
     to the right of the grid. [min_int] marks a cell with no pin. *)
  let inputs = Netlist.input_nets nl and outputs = Netlist.output_nets nl in
  let keyn = Netlist.key_nets nl in
  let n_in = Array.length inputs and n_key = Array.length keyn in
  let n_io = n_in + n_key + Array.length outputs in
  let n_chain = Array.length chain in
  let fx = Array.make (n_io + n_chain) 0 in
  let fy = Array.make (n_io + n_chain) 0 in
  let fixed k x y =
    fx.(k) <- x;
    fy.(k) <- y;
    lnot k
  in
  let spread i n = if n <= 1 then 0 else i * (rows - 1) / (n - 1) in
  let entity_of_cell = Array.make (Array.length cells) min_int in
  Array.iteri
    (fun bi b ->
      Option.iter (fun ci -> entity_of_cell.(ci) <- bi) b.lut;
      Option.iter (fun ci -> entity_of_cell.(ci) <- bi) b.ff)
    bles;
  Array.iteri
    (fun pi ci ->
      entity_of_cell.(ci) <- fixed (n_io + pi) cols (pi * rows / max 1 n_chain))
    chain;
  let net_pins = Array.make (max (Netlist.num_nets nl) 1) [] in
  let add net e = net_pins.(net) <- e :: net_pins.(net) in
  Array.iteri (fun i net -> add net (fixed i (-1) (spread i n_in))) inputs;
  Array.iteri
    (fun i net -> add net (fixed (n_in + i) (-1) (spread i (max n_in 1))))
    keyn;
  Array.iteri
    (fun i net ->
      add net (fixed (n_in + n_key + i) cols (spread i (Array.length outputs))))
    outputs;
  Array.iteri
    (fun ci c ->
      let e = entity_of_cell.(ci) in
      if e <> min_int then begin
        add c.Cell.out e;
        Array.iter (fun net -> add net e) c.Cell.ins
      end)
    cells;
  (* A net with two or more pins counts, unplaced BLEs included: the
     net count sets the initial temperature. Unplaced BLEs then drop
     out, as they have no position. Nets whose pins are all chain cells
     ride the dedicated cascade wiring of the MUX-chain tiles and use
     no channel tracks; an unplaced BLE pin still makes a net routed. *)
  let nets =
    Array.of_list
      (List.filter
         (fun pins -> List.compare_length_with pins 2 >= 0)
         (Array.to_list net_pins))
  in
  let routed =
    Array.map (List.exists (fun e -> e >= 0 || lnot e < n_io)) nets
  in
  let nets =
    Array.map
      (fun pins -> Array.of_list (List.filter (fun e -> e < placeable) pins))
      nets
  in
  let n_nets = Array.length nets in
  let pos_x e = if e >= 0 then slot_x.(slot_of_ble.(e)) else fx.(lnot e) in
  let pos_y e = if e >= 0 then slot_y.(slot_of_ble.(e)) else fy.(lnot e) in
  let hpwl pins =
    let n = Array.length pins in
    if n = 0 then 0
    else begin
      let xmin = ref max_int and xmax = ref min_int in
      let ymin = ref max_int and ymax = ref min_int in
      for i = 0 to n - 1 do
        let x = pos_x pins.(i) and y = pos_y pins.(i) in
        if x < !xmin then xmin := x;
        if x > !xmax then xmax := x;
        if y < !ymin then ymin := y;
        if y > !ymax then ymax := y
      done;
      !xmax - !xmin + (!ymax - !ymin)
    end
  in
  (* simulated annealing over slot swaps, on cached per-net costs *)
  if placeable > 1 && anneal_moves > 0 then begin
    let nets_of_ble = Array.make placeable [] in
    Array.iteri
      (fun ni pins ->
        Array.iter
          (fun e -> if e >= 0 then nets_of_ble.(e) <- ni :: nets_of_ble.(e))
          pins)
      nets;
    let nets_of_ble = Array.map Array.of_list nets_of_ble in
    let net_cost = Array.map hpwl nets in
    (* a move re-costs the nets of both swapped BLEs; a net shared by
       the two is counted (and saved) twice, so the buffer holds two
       BLEs' worth and restores in reverse order *)
    let undo_size =
      2 * Array.fold_left (fun m a -> max m (Array.length a)) 0 nets_of_ble
    in
    let undo_net = Array.make undo_size 0 in
    let undo_cost = Array.make undo_size 0 in
    let n_undo = ref 0 in
    let cached b =
      let a = nets_of_ble.(b) and c = ref 0 in
      for k = 0 to Array.length a - 1 do
        c := !c + net_cost.(a.(k))
      done;
      !c
    in
    let recost b =
      let a = nets_of_ble.(b) and c = ref 0 in
      for k = 0 to Array.length a - 1 do
        let ni = a.(k) in
        undo_net.(!n_undo) <- ni;
        undo_cost.(!n_undo) <- net_cost.(ni);
        incr n_undo;
        let h = hpwl nets.(ni) in
        net_cost.(ni) <- h;
        c := !c + h
      done;
      !c
    in
    let total = Array.fold_left ( + ) 0 net_cost in
    let temp =
      ref (float_of_int (max 1 total) /. float_of_int (max 1 n_nets))
    in
    let cooling = 0.9995 in
    for _ = 1 to anneal_moves do
      let b1 = Rng.int rng placeable in
      let s2 = Rng.int rng n_slots in
      let b2 = ble_of_slot.(s2) in
      let s1 = slot_of_ble.(b1) in
      if s1 <> s2 then begin
        let before = cached b1 + if b2 >= 0 then cached b2 else 0 in
        slot_of_ble.(b1) <- s2;
        ble_of_slot.(s2) <- b1;
        ble_of_slot.(s1) <- b2;
        if b2 >= 0 then slot_of_ble.(b2) <- s1;
        n_undo := 0;
        let after = recost b1 + if b2 >= 0 then recost b2 else 0 in
        let delta = float_of_int (after - before) in
        if delta > 0.0
           && Rng.float rng 1.0
              >= exp (-.delta /. if !temp >= 1e-3 then !temp else 1e-3)
        then begin
          slot_of_ble.(b1) <- s1;
          ble_of_slot.(s1) <- b1;
          ble_of_slot.(s2) <- b2;
          if b2 >= 0 then slot_of_ble.(b2) <- s2;
          for k = !n_undo - 1 downto 0 do
            net_cost.(undo_net.(k)) <- undo_cost.(k)
          done
        end
      end;
      temp := !temp *. cooling
    done
  end;
  (* ---------------- routing ----------------
     Per-net trunk-and-branch: one horizontal trunk along the median
     row of the net's pins, one vertical branch per distinct pin
     column. Tracks are shared within a net, as in a real fabric. *)
  let h_usage = Array.make_matrix (rows + 1) (cols + 2) 0 in
  let v_usage = Array.make_matrix (cols + 2) (rows + 1) 0 in
  let wirelength = ref 0 in
  let use_h y x0 x1 =
    for x = Int.min x0 x1 to Int.max x0 x1 - 1 do
      h_usage.(y).(x) <- h_usage.(y).(x) + 1;
      incr wirelength
    done
  in
  let use_v x y0 y1 =
    for y = Int.min y0 y1 to Int.max y0 y1 - 1 do
      v_usage.(x).(y) <- v_usage.(x).(y) + 1;
      incr wirelength
    done
  in
  (* per column: the last net that branched there and the rows it spans *)
  let branch_net = Array.make (cols + 2) (-1) in
  let branch_lo = Array.make (cols + 2) 0 in
  let branch_hi = Array.make (cols + 2) 0 in
  let pin_x e = Int.max 0 (Int.min (cols + 1) (pos_x e + 1)) in
  let pin_y e = Int.max 0 (Int.min rows (pos_y e)) in
  Array.iteri
    (fun ni pins ->
      let n = Array.length pins in
      if routed.(ni) && n >= 2 then begin
        let ys = Array.map pin_y pins in
        Array.sort Int.compare ys;
        let trunk_y = ys.(n / 2) in
        let xmin = ref (cols + 1) and xmax = ref 0 in
        Array.iter
          (fun e ->
            let x = pin_x e in
            xmin := Int.min !xmin x;
            xmax := Int.max !xmax x)
          pins;
        use_h trunk_y !xmin !xmax;
        Array.iter
          (fun e ->
            let x = pin_x e and y = pin_y e in
            let seen = branch_net.(x) = ni in
            let need =
              if seen then y < branch_lo.(x) || y > branch_hi.(x)
              else y <> trunk_y
            in
            if need then begin
              use_v x trunk_y y;
              let lo = Int.min y trunk_y and hi = Int.max y trunk_y in
              if seen then begin
                branch_lo.(x) <- Int.min branch_lo.(x) lo;
                branch_hi.(x) <- Int.max branch_hi.(x) hi
              end
              else begin
                branch_net.(x) <- ni;
                branch_lo.(x) <- lo;
                branch_hi.(x) <- hi
              end
            end)
          pins
      end)
    nets;
  let cap = p.Style.channel_width in
  let max_congestion = ref 0 and overflow = ref 0 in
  let scan =
    Array.iter
      (Array.iter (fun u ->
           if u > !max_congestion then max_congestion := u;
           if u > cap then incr overflow))
  in
  scan h_usage;
  scan v_usage;
  (* ---------------- results ---------------- *)
  let of_cell = Hashtbl.create 64 in
  Array.iteri
    (fun ci e ->
      if e <> min_int && e < placeable then
        Hashtbl.replace of_cell ci { x = pos_x e; y = pos_y e })
    entity_of_cell;
  let touched = Array.make (cols * rows) false in
  Array.iter (fun s -> touched.(s / slots_per_tile) <- true) slot_of_ble;
  let used_tiles =
    Array.fold_left (fun n t -> if t then n + 1 else n) 0 touched
  in
  let fit =
    match capacity_shortage fabric pk with
    | Some s -> Error s
    | None -> if !overflow > 0 then Error Fabric.Routing_short else Ok ()
  in
  {
    fabric;
    placement =
      {
        of_cell;
        used_tiles;
        used_luts = pk.luts;
        used_ffs = pk.ffs;
        used_chain = n_chain;
      };
    routes =
      {
        wirelength = !wirelength;
        max_congestion = !max_congestion;
        overflow_segments = !overflow;
      };
    fit;
    utilization = Fabric.utilization fabric ~used_luts:pk.luts;
    tile_utilization =
      (let tiles = Fabric.clb_tiles fabric in
       if tiles = 0 then 0.0
       else float_of_int used_tiles /. float_of_int tiles);
  }

let run ?seed ?anneal_moves fabric nl =
  place_and_route ?seed ?anneal_moves fabric nl (pack nl)

type fit_counts = {
  used_luts : int;
  lut_capacity : int;
  used_ffs : int;
  ff_capacity : int;
  used_chain : int;
  chain_capacity : int;
  io_pins : int option;
  io_capacity : int;
  max_congestion : int;
  channel_width : int;
  overflow_segments : int;
}

let fit_counts ?netlist (r : result) =
  {
    used_luts = r.placement.used_luts;
    lut_capacity = Fabric.lut_capacity r.fabric;
    used_ffs = r.placement.used_ffs;
    ff_capacity = Fabric.ff_capacity r.fabric;
    used_chain = r.placement.used_chain;
    chain_capacity = r.fabric.Fabric.chain_slots;
    io_pins =
      Option.map
        (fun nl ->
          List.length (Netlist.inputs nl) + List.length (Netlist.outputs nl))
        netlist;
    io_capacity = Fabric.io_capacity r.fabric;
    max_congestion = r.routes.max_congestion;
    channel_width = (Style.params r.fabric.Fabric.style).Style.channel_width;
    overflow_segments = r.routes.overflow_segments;
  }

let count_triples (c : fit_counts) =
  List.concat
    [
      [
        ("luts", c.used_luts, c.lut_capacity);
        ("ffs", c.used_ffs, c.ff_capacity);
        ("chain", c.used_chain, c.chain_capacity);
      ];
      (match c.io_pins with
      | Some pins -> [ ("io_pins", pins, c.io_capacity) ]
      | None -> []);
      [ ("congestion", c.max_congestion, c.channel_width) ];
    ]

let diag_of_fit ?netlist (r : result) =
  match r.fit with
  | Ok () -> None
  | Error s ->
      let c = fit_counts ?netlist r in
      let demand, capacity =
        match s with
        | Fabric.Luts_short -> (c.used_luts, c.lut_capacity)
        | Fabric.Ffs_short -> (c.used_ffs, c.ff_capacity)
        | Fabric.Chain_short -> (c.used_chain, c.chain_capacity)
        | Fabric.Routing_short -> (
            let congestion = (c.max_congestion, c.channel_width) in
            (* routing can run short on channels or on boundary pins;
               report whichever actually exceeded *)
            match c.io_pins with
            | Some pins when pins > c.io_capacity -> (pins, c.io_capacity)
            | _ -> congestion)
      in
      Some
        (Shell_util.Diag.msgf
           ~payload:
             (Fabric.Shortage
                { shortage = s; demand; capacity; counts = count_triples c })
           "fit check failed on %s: %s short (demand %d, capacity %d)"
           (Format.asprintf "%a" Fabric.pp r.fabric)
           (Fabric.shortage_name s) demand capacity)

let fit_loop ?seed ?(max_grows = 16) ~style nl =
  let pk = pack nl in
  let luts = Netlist.count_kind nl (function Cell.Lut _ -> true | _ -> false) in
  let rec go fabric grows =
    match capacity_shortage fabric pk with
    | Some shortage when grows > 0 ->
        go (Fabric.grow fabric shortage) (grows - 1)
    | Some _ | None -> (
        let res =
          Obs.with_span "pnr.attempt" (fun () ->
              let res = place_and_route ?seed fabric nl pk in
              Obs.span_add "cols" fabric.Fabric.cols;
              Obs.span_add "rows" fabric.Fabric.rows;
              Obs.span_add "fit" (match res.fit with Ok () -> 1 | Error _ -> 0);
              res)
        in
        match res.fit with
        | Error shortage when grows > 0 ->
            Obs.incr m_retries;
            go (Fabric.grow fabric shortage) (grows - 1)
        | Ok () | Error _ -> res)
  in
  go
    (Fabric.size_for style ~luts ~user_ffs:pk.ffs
       ~chain_muxes:(Array.length pk.chain))
    max_grows
