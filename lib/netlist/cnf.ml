module Truthtab = Shell_util.Truthtab

type t = { nvars : int; clauses : int list list; var_of_net : int array }

let var_of net t = t.var_of_net.(net)

let lit t net polarity =
  let v = t.var_of_net.(net) in
  if polarity then v else -v

(* Standard Tseitin gate encodings; [y] is the output literal's
   variable, [a]/[b] input variables. *)
let gate_clauses kind ins y =
  let a () = ins.(0) and b () = ins.(1) in
  match kind with
  | Cell.Buf -> [ [ -(a ()); y ]; [ a (); -y ] ]
  | Cell.Not -> [ [ a (); y ]; [ -(a ()); -y ] ]
  | Cell.And -> [ [ -(a ()); -(b ()); y ]; [ a (); -y ]; [ b (); -y ] ]
  | Cell.Nand -> [ [ -(a ()); -(b ()); -y ]; [ a (); y ]; [ b (); y ] ]
  | Cell.Or -> [ [ a (); b (); -y ]; [ -(a ()); y ]; [ -(b ()); y ] ]
  | Cell.Nor -> [ [ a (); b (); y ]; [ -(a ()); -y ]; [ -(b ()); -y ] ]
  | Cell.Xor ->
      [
        [ -(a ()); -(b ()); -y ];
        [ a (); b (); -y ];
        [ -(a ()); b (); y ];
        [ a (); -(b ()); y ];
      ]
  | Cell.Xnor ->
      [
        [ -(a ()); -(b ()); y ];
        [ a (); b (); y ];
        [ -(a ()); b (); -y ];
        [ a (); -(b ()); -y ];
      ]
  | Cell.Mux2 ->
      (* ins = [|s; d0; d1|] *)
      let s = ins.(0) and d0 = ins.(1) and d1 = ins.(2) in
      [
        [ s; -d0; y ];
        [ s; d0; -y ];
        [ -s; -d1; y ];
        [ -s; d1; -y ];
      ]
  | Cell.Mux4 ->
      (* ins = [|s0; s1; d0..d3|]; one pair of clauses per select row *)
      let s0 = ins.(0) and s1 = ins.(1) in
      let sel_lits row =
        [ (if row land 1 = 0 then s0 else -s0);
          (if row land 2 = 0 then s1 else -s1) ]
      in
      List.concat_map
        (fun row ->
          let d = ins.(2 + row) in
          [ sel_lits row @ [ -d; y ]; sel_lits row @ [ d; -y ] ])
        [ 0; 1; 2; 3 ]
  | Cell.Lut tt ->
      (* One clause per truth-table row: the row's input pattern implies
         the tabulated output value. *)
      let k = Truthtab.arity tt in
      let rows = 1 lsl k in
      List.init rows (fun row ->
          let antecedent =
            List.init k (fun i ->
                if row land (1 lsl i) <> 0 then -ins.(i) else ins.(i))
          in
          let out_val =
            Int64.(logand (shift_right_logical (Truthtab.bits tt) row) 1L) = 1L
          in
          antecedent @ [ (if out_val then y else -y) ])
  | Cell.Const b -> [ [ (if b then y else -y) ] ]
  | Cell.Config_latch -> []  (* free variable *)
  | Cell.Dff -> invalid_arg "Cnf: sequential netlist (take comb_view first)"

let encode nl =
  let n = Netlist.num_nets nl in
  let var_of_net = Array.init n (fun i -> i + 1) in
  let clauses =
    Array.fold_left
      (fun acc c ->
        let ins = Array.map (fun net -> var_of_net.(net)) c.Cell.ins in
        let y = var_of_net.(c.Cell.out) in
        List.rev_append (gate_clauses c.Cell.kind ins y) acc)
      [] (Netlist.cells nl)
  in
  { nvars = n; clauses; var_of_net }

let equal_clauses a b = [ [ -a; b ]; [ a; -b ] ]

let xor_var ~fresh a b =
  [
    [ -a; -b; -fresh ];
    [ a; b; -fresh ];
    [ -a; b; fresh ];
    [ a; -b; fresh ];
  ]

let or_clause lits = lits

let to_dimacs t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "p cnf %d %d\n" t.nvars (List.length t.clauses));
  List.iter
    (fun clause ->
      List.iter (fun l -> Buffer.add_string buf (string_of_int l ^ " ")) clause;
      Buffer.add_string buf "0\n")
    t.clauses;
  Buffer.contents buf
