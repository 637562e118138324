module Netlist = Shell_netlist.Netlist
module Cnf = Shell_netlist.Cnf
module Solver = Shell_sat.Solver

type t = {
  solver : Solver.t;
  template : int array array;  (* [Cnf.encode] clauses of one copy *)
  copy_vars : int;  (* variables one copy takes *)
  ins : int array;  (* template variables of the inputs / outputs / keys *)
  outs : int array;
  keys : int array;
  in1 : int array;  (* shared input vars (copy 1's) *)
  key1 : int array;
  key2 : int array;
  diff : int;  (* activation literal for the difference constraint *)
  base_clauses : int;
  base_vars : int;
}

(* One more circuit copy on fresh variables: every template clause goes
   through the solver's level-0 simplification shifted by the copy's
   offset, which is returned. *)
let add_copy solver template copy_vars =
  let off = Solver.num_vars solver in
  Solver.ensure_vars solver (off + copy_vars);
  Array.iter (Solver.add_shifted solver ~shift:off) template;
  off

let shift off vars = Array.map (fun v -> v + off) vars

let create ?(cycle_blocks = []) ?(seed = 0) locked =
  let comb = Netlist.comb_view locked in
  let base = Cnf.encode comb in
  let template = Array.of_list (List.map Array.of_list base.Cnf.clauses) in
  let copy_vars = base.Cnf.nvars in
  let vars nets = Array.map (fun n -> base.Cnf.var_of_net.(n)) nets in
  let ins = vars (Netlist.input_nets comb) in
  let keys = vars (Netlist.key_nets comb) in
  let outs = vars (Netlist.output_nets comb) in
  let solver = Solver.create ~seed () in
  let c1 = add_copy solver template copy_vars in
  let c2 = add_copy solver template copy_vars in
  let in1 = shift c1 ins and in2 = shift c2 ins in
  Array.iteri
    (fun i v1 ->
      List.iter (Solver.add_clause solver) (Cnf.equal_clauses v1 in2.(i)))
    in1;
  let key1 = shift c1 keys and key2 = shift c2 keys in
  let out1 = shift c1 outs and out2 = shift c2 outs in
  (* diff literal and per-output xor indicators *)
  let diff = Solver.new_var solver in
  let xors =
    Array.mapi
      (fun i v1 ->
        let x = Solver.new_var solver in
        List.iter (Solver.add_clause solver) (Cnf.xor_var ~fresh:x v1 out2.(i));
        x)
      out1
  in
  Solver.add_clause solver (-diff :: Array.to_list xors);
  (* cyclic-reduction pre-processing: block cycle-closing key patterns
     for both key vectors *)
  List.iter
    (fun (ids, vals) ->
      let block keyv =
        Solver.add_clause solver
          (Array.to_list
             (Array.mapi
                (fun j id ->
                  let v = keyv.(id) in
                  if vals.(j) then -v else v)
                ids))
      in
      block key1;
      block key2)
    cycle_blocks;
  {
    solver;
    template;
    copy_vars;
    ins;
    outs;
    keys;
    in1;
    key1;
    key2;
    diff;
    base_clauses =
      (2 * Array.length template)
      + (2 * Array.length in1)
      + (4 * Array.length out1)
      + 1;
    base_vars = Solver.num_vars solver;
  }

let num_inputs t = Array.length t.in1
let num_keys t = Array.length t.key1

let find_dip ?max_conflicts t =
  match Solver.solve ~assumptions:[ t.diff ] ?max_conflicts t.solver with
  | Solver.Sat ->
      `Dip (Array.map (fun v -> Solver.value t.solver v) t.in1)
  | Solver.Unsat -> `Unsat
  | Solver.Unknown -> `Budget

let add_dip t input output =
  let bind off vars values =
    Array.iteri
      (fun i v ->
        let v = v + off in
        Solver.add_clause t.solver [ (if values.(i) then v else -v) ])
      vars
  in
  let tie off key_vars =
    Array.iteri
      (fun i v ->
        List.iter (Solver.add_clause t.solver) (Cnf.equal_clauses (v + off) key_vars.(i)))
      t.keys
  in
  let copy key_vars =
    let off = add_copy t.solver t.template t.copy_vars in
    bind off t.ins input;
    bind off t.outs output;
    tie off key_vars
  in
  copy t.key1;
  copy t.key2

let extract_key ?max_conflicts t =
  match Solver.solve ~assumptions:[ -t.diff ] ?max_conflicts t.solver with
  | Solver.Sat -> Some (Array.map (fun v -> Solver.value t.solver v) t.key1)
  | Solver.Unsat | Solver.Unknown -> None

let conflicts t = Solver.num_conflicts t.solver
let stats t = Solver.stats t.solver

let clause_to_var_ratio t =
  float_of_int t.base_clauses /. float_of_int (max 1 t.base_vars)
