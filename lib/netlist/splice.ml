let replace_cells parent ~remove ~replacement ~input_binding ~output_binding =
  let out = Netlist.create (Netlist.name parent) in
  let pmap = Array.make (max (Netlist.num_nets parent) 1) (-1) in
  List.iter
    (fun (nm, net) -> pmap.(net) <- Netlist.add_input out nm)
    (Netlist.inputs parent);
  List.iter
    (fun (nm, net) -> pmap.(net) <- Netlist.add_key out nm)
    (Netlist.keys parent);
  (* lift the replacement's keys *)
  let rmap = Array.make (max (Netlist.num_nets replacement) 1) (-1) in
  List.iter
    (fun (nm, net) -> rmap.(net) <- Netlist.add_key out nm)
    (Netlist.keys replacement);
  let map_parent net =
    if pmap.(net) = -1 then pmap.(net) <- Netlist.new_net out;
    pmap.(net)
  in
  let map_repl net =
    if rmap.(net) = -1 then rmap.(net) <- Netlist.new_net out;
    rmap.(net)
  in
  let repl_inputs = Netlist.inputs replacement in
  let repl_outputs = Netlist.outputs replacement in
  (* bind replacement inputs onto parent nets: identify the nets *)
  List.iter
    (fun (port, parent_net) ->
      match List.assoc_opt port repl_inputs with
      | None -> invalid_arg ("Splice: replacement has no input " ^ port)
      | Some rnet ->
          if rmap.(rnet) <> -1 then invalid_arg ("Splice: input bound twice: " ^ port);
          rmap.(rnet) <- map_parent parent_net)
    input_binding;
  (* every replacement input must be bound *)
  List.iter
    (fun (nm, rnet) ->
      if rmap.(rnet) = -1 then
        invalid_arg ("Splice: replacement input unbound: " ^ nm))
    repl_inputs;
  (* surviving parent cells *)
  Array.iteri
    (fun i c ->
      if not (remove i) then
        Netlist.add_cell out
          (Cell.make ~origin:c.Cell.origin c.Cell.kind
             (Array.map map_parent c.Cell.ins)
             (map_parent c.Cell.out)))
    (Netlist.cells parent);
  (* replacement cells *)
  Array.iter
    (fun c ->
      Netlist.add_cell out
        (Cell.make ~origin:c.Cell.origin c.Cell.kind
           (Array.map map_repl c.Cell.ins)
           (map_repl c.Cell.out)))
    (Netlist.cells replacement);
  (* replacement outputs drive the orphaned parent nets via buffers *)
  List.iter
    (fun (port, parent_net) ->
      match List.assoc_opt port repl_outputs with
      | None -> invalid_arg ("Splice: replacement has no output " ^ port)
      | Some rnet ->
          Netlist.add_cell out
            (Cell.make ~origin:"splice" Cell.Buf
               [| map_repl rnet |]
               (map_parent parent_net)))
    output_binding;
  List.iter
    (fun (nm, net) -> Netlist.add_output out nm (map_parent net))
    (Netlist.outputs parent);
  match Netlist.validate out with
  | Ok () -> Rewrite.sweep_buffers out
  | Error d ->
      raise
        (Shell_util.Diag.Error
           { d with Shell_util.Diag.context = "Splice" :: d.Shell_util.Diag.context })
