(* Rebuild a netlist keeping the cells flagged in [keep], with an
   optional net substitution applied first ([subst.(net)] is the net
   that replaces [net], -1 for none). Net ids are compacted. *)
let rebuild ?subst nl ~keep =
  let n_nets = Netlist.num_nets nl in
  let resolve =
    match subst with
    | None -> Fun.id
    | Some subst ->
        (* follow the substitution chain (buffer chains) *)
        fun net ->
          let net = ref net and seen = ref 0 in
          while
            let s = subst.(!net) in
            s <> -1 && s <> !net && !seen < n_nets
          do
            net := subst.(!net);
            incr seen
          done;
          !net
  in
  let out = Netlist.create (Netlist.name nl) in
  let mapping = Array.make (max (Netlist.num_nets nl) 1) (-1) in
  (* Ports first so their nets keep stable ids in declaration order;
     sources (inputs/keys) are never rewritten by the substitution. *)
  List.iter
    (fun (nm, net) -> mapping.(resolve net) <- Netlist.add_input out nm)
    (Netlist.inputs nl);
  List.iter
    (fun (nm, net) -> mapping.(resolve net) <- Netlist.add_key out nm)
    (Netlist.keys nl);
  let map_net net =
    let net = resolve net in
    if mapping.(net) = -1 then mapping.(net) <- Netlist.new_net out;
    mapping.(net)
  in
  Array.iteri
    (fun i c ->
      if keep.(i) then
        Netlist.add_cell out
          (Cell.make ~origin:c.Cell.origin c.Cell.kind
             (Array.map map_net c.Cell.ins)
             (map_net c.Cell.out)))
    (Netlist.cells nl);
  List.iter
    (fun (nm, net) -> Netlist.add_output out nm (map_net net))
    (Netlist.outputs nl);
  out

let sweep_buffers nl =
  let cells = Netlist.cells nl in
  let subst_tbl = Array.make (max (Netlist.num_nets nl) 1) (-1) in
  Array.iter
    (fun c ->
      match c.Cell.kind with
      | Cell.Buf -> subst_tbl.(c.Cell.out) <- c.Cell.ins.(0)
      | _ -> ())
    cells;
  let keep = Array.map (fun c -> c.Cell.kind <> Cell.Buf) cells in
  rebuild nl ~subst:subst_tbl ~keep

let dead_cell_elim nl =
  let cells = Netlist.cells nl in
  let n = Array.length cells in
  let live = Array.make n false in
  let queue = Queue.create () in
  let mark_driver net =
    match Netlist.driver nl net with
    | Some i when not live.(i) ->
        live.(i) <- true;
        Queue.add i queue
    | Some _ | None -> ()
  in
  Array.iter mark_driver (Netlist.output_nets nl);
  (* Sequential cells are observable state: keep them and their cones.
     (Config latches too: they hold the secret.) *)
  Array.iteri
    (fun i c ->
      if Cell.is_sequential c.Cell.kind && not live.(i) then begin
        live.(i) <- true;
        Queue.add i queue
      end)
    cells;
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    Array.iter mark_driver cells.(i).Cell.ins
  done;
  rebuild nl ~keep:live

let clean nl = dead_cell_elim (sweep_buffers nl)
