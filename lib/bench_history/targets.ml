module N = Shell_netlist
module F = Shell_fabric
module L = Shell_locking
module A = Shell_attacks
module C = Shell_core
module Circ = Shell_circuits
module Pool = Shell_util.Pool
module Obs = Shell_util.Obs

type t = {
  name : string;
  description : string;
  run : jobs:int -> (string * float) list;
}

let time_wall f =
  let t0 = Shell_util.Clock.now () in
  let r = f () in
  (r, Shell_util.Clock.now () -. t0)

(* Unstable-registered counters that the capped workloads below make
   deterministic: the solver runs under conflict ceilings with seeded
   phases, DIS loops under DIP ceilings, the pass cache is single-
   flight (exactly one miss per key at any job count), and battery /
   portfolio verdicts are cap-bound. Wall-clock histograms
   (attack_solve_us, pool_*_us) must never appear here. *)
let extra_counters =
  [
    "solver_solve_calls";
    "solver_decisions";
    "solver_propagations";
    "solver_conflicts";
    "solver_restarts";
    "solver_learned_len";
    "attack_dis_iterations";
    "pipeline_cache_hits";
    "pipeline_cache_misses";
    "pipeline_cache_bytes";
    "battery_broken";
    "portfolio_conflicts_at_win";
  ]

(* Budgets sized so the DIP/conflict/vector caps bind long before the
   wall clock — the determinism precondition of the battery matrix. *)
let capped_budget =
  A.Attack.budget ~max_dips:32 ~max_conflicts:60_000 ~time_limit:120.0
    ~vectors:256 ()

(* ---- grid: locking flows over the (circuit x style) grid ---- *)

let grid_circuits = [ "FIR"; "SPMV" ]

let run_grid ~jobs =
  let entries =
    List.filter_map Circ.Catalog.find grid_circuits
  in
  let cells =
    Array.of_list
      (List.concat_map
         (fun (e : Circ.Catalog.entry) ->
           List.map (fun style -> (e, style)) F.Style.all)
         entries)
  in
  let rows =
    Pool.mapi ~jobs
      (fun _ ((e : Circ.Catalog.entry), style) ->
        let nl = e.Circ.Catalog.netlist () in
        let t = e.Circ.Catalog.tfr_shell in
        let cfg =
          {
            (C.Flow.shell_config
               ~target:
                 (C.Flow.Fixed
                    {
                      route = t.Circ.Catalog.route;
                      lgc = t.Circ.Catalog.lgc;
                      label = t.Circ.Catalog.label;
                    })
               ())
            with
            C.Flow.style;
            shrink = true;
          }
        in
        let _, secs = time_wall (fun () -> ignore (C.Flow.run cfg nl)) in
        (e.Circ.Catalog.name ^ "/" ^ F.Style.name style, secs))
      cells
  in
  Array.to_list rows

(* ---- simulate: equivalence checks + packed word stepping ---- *)

let run_simulate ~jobs =
  let rows =
    Pool.mapi ~jobs
      (fun _ (e : Circ.Catalog.entry) ->
        let _, secs =
          time_wall (fun () ->
              let nl = e.Circ.Catalog.netlist () in
              (match N.Equiv.check ~vectors:128 nl nl with
              | N.Equiv.Equivalent -> ()
              | N.Equiv.Counterexample _ -> assert false);
              let simw = N.Simw.create nl in
              let n_in = List.length (N.Netlist.inputs nl) in
              let rng = Shell_util.Rng.create 0x6d1 in
              let packed =
                Shell_util.Rng.vectors_packed rng ~vectors:(4 * N.Simw.width)
                  ~bits:n_in
              in
              Array.iter (fun w -> ignore (N.Simw.step simw w)) packed)
        in
        (e.Circ.Catalog.name, secs))
      (Array.of_list Circ.Catalog.all)
  in
  Array.to_list rows

(* ---- battery: the full attack registry on a locked crossbar ---- *)

let xbar4 () = Circ.Axi_xbar.netlist ~channels:4 ~data_width:8 ()

let battery_subjects () =
  List.map
    (fun (sname, mk) ->
      let nl = xbar4 () in
      A.Attack.subject ~label:("xbar4/" ^ sname) ~original:nl (mk nl))
    [
      ("xor:8", fun nl -> L.Schemes.xor_keys ~seed:1 ~bits:8 nl);
      ("mux:8", fun nl -> L.Schemes.mux_routing ~seed:1 ~width:8 nl);
    ]

let run_battery ~jobs =
  let subjects = battery_subjects () in
  let _, secs =
    time_wall (fun () ->
        ignore (A.Battery.run ~jobs ~budget:capped_budget subjects))
  in
  [ ("matrix", secs) ]

let all =
  [
    {
      name = "grid";
      description = "SheLL locking flows, (FIR|SPMV) x fabric styles";
      run = run_grid;
    };
    {
      name = "simulate";
      description = "catalog equivalence checks + packed Simw stepping";
      run = run_simulate;
    };
    {
      name = "battery";
      description = "full attack registry on locked xbar4 (cap-bound)";
      run = run_battery;
    };
  ]

let find name = List.find_opt (fun t -> t.name = name) all
let names () = List.map (fun t -> t.name) all
