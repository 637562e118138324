module Truthtab = Shell_util.Truthtab

(* Facts are int-coded per net: [unknown], a constant ([const_code b]),
   or an alias (the net id, >= 0) whose root carries the fact. Values
   read through [value] are -1 (unknown) or 0/1 (constant). *)
let unknown = -1

let const_code b = -2 - Bool.to_int b

let bind_keys nl key =
  let key_nets = Netlist.key_nets nl in
  if Array.length key <> Array.length key_nets then
    invalid_arg "Specialize.bind_keys: key length mismatch";
  let n_nets = max (Netlist.num_nets nl) 1 in
  let fact = Array.make n_nets unknown in
  Array.iteri (fun i net -> fact.(net) <- const_code key.(i)) key_nets;
  (* resolve through alias chains, path-compressing as we go *)
  let rec resolve net =
    let f = fact.(net) in
    if f >= 0 then begin
      let root = resolve f in
      if root <> f then fact.(net) <- root;
      root
    end
    else net
  in
  let value net =
    let f = fact.(resolve net) in
    if f <= -2 then -2 - f else -1
  in
  let cells = Netlist.cells nl in
  let folded = Array.make (Array.length cells) false in
  let learn i (c : Cell.t) code =
    folded.(i) <- true;
    fact.(c.Cell.out) <- code;
    true
  in
  let alias i c net = learn i c (resolve net) in
  let const i c b = learn i c (const_code b) in
  (* Try to fold one cell; true if a new fact was learned. *)
  let try_fold i (c : Cell.t) =
    if folded.(i) || Cell.is_sequential c.Cell.kind then false
    else begin
      let ins = c.Cell.ins in
      let n = Array.length ins in
      let k = ref 0 in
      while !k < n && value ins.(!k) >= 0 do
        incr k
      done;
      if n > 0 && !k = n then
        const i c (Cell.eval c.Cell.kind (Array.map (fun net -> value net = 1) ins))
      else
        match c.Cell.kind with
        | Cell.Const b -> const i c b
        | Cell.Buf -> alias i c ins.(0)
        | (Cell.And | Cell.Or | Cell.Nand | Cell.Nor | Cell.Xor | Cell.Xnor) when n = 2
          -> (
            let a = value ins.(0) and b = value ins.(1) in
            match c.Cell.kind with
            | Cell.And ->
                if a = 0 || b = 0 then const i c false
                else if a = 1 then alias i c ins.(1)
                else if b = 1 then alias i c ins.(0)
                else false
            | Cell.Or ->
                if a = 1 || b = 1 then const i c true
                else if a = 0 then alias i c ins.(1)
                else if b = 0 then alias i c ins.(0)
                else false
            | Cell.Nand -> (a = 0 || b = 0) && const i c true
            | Cell.Nor -> (a = 1 || b = 1) && const i c false
            | Cell.Xor ->
                if a = 0 then alias i c ins.(1)
                else if b = 0 then alias i c ins.(0)
                else false
            | _ (* Xnor *) ->
                if a = 1 then alias i c ins.(1)
                else if b = 1 then alias i c ins.(0)
                else false)
        | Cell.Mux2 when n = 3 ->
            let s = value ins.(0) in
            if s >= 0 then alias i c ins.(if s = 1 then 2 else 1)
            else if resolve ins.(1) = resolve ins.(2) then alias i c ins.(1)
            else false
        | Cell.Mux4 when n = 6 ->
            let s0 = value ins.(0) and s1 = value ins.(1) in
            s0 >= 0 && s1 >= 0 && alias i c ins.(2 + (s0 lor (s1 lsl 1)))
        | _ -> false
    end
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to Array.length cells - 1 do
      if try_fold i cells.(i) then changed := true
    done
  done;
  (* rebuild without the folded cells and without key ports *)
  let out = Netlist.create (Netlist.name nl) in
  let mapping = Array.make n_nets (-1) in
  let const_net = [| -1; -1 |] in
  List.iter
    (fun (nm, net) -> mapping.(net) <- Netlist.add_input out nm)
    (Netlist.inputs nl);
  let map_net net =
    let net = resolve net in
    let v = value net in
    if v >= 0 then begin
      if const_net.(v) = -1 then const_net.(v) <- Netlist.const out (v = 1);
      const_net.(v)
    end
    else begin
      if mapping.(net) = -1 then mapping.(net) <- Netlist.new_net out;
      mapping.(net)
    end
  in
  Array.iteri
    (fun i c ->
      if not folded.(i) then
        Netlist.add_cell out
          (Cell.make ~origin:c.Cell.origin c.Cell.kind
             (Array.map map_net c.Cell.ins)
             (map_net c.Cell.out)))
    cells;
  List.iter
    (fun (nm, net) -> Netlist.add_output out nm (map_net net))
    (Netlist.outputs nl);
  Rewrite.dead_cell_elim out
