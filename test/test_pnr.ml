(* Tests for shell_pnr: packing, placement, routing, fit loop. *)

module N = Shell_netlist.Netlist
module Cell = Shell_netlist.Cell
module Style = Shell_fabric.Style
module Fabric = Shell_fabric.Fabric
module Pnr = Shell_pnr.Pnr
module Lut_map = Shell_synth.Lut_map
module Rng = Shell_util.Rng
module Obs = Shell_util.Obs
module C = Shell_core
module Jobs = Shell_serve.Jobs

let random_mapped seed n_gates =
  let rng = Rng.create seed in
  let nl = N.create "rand" in
  let pool =
    ref (Array.init 10 (fun i -> N.add_input nl (Printf.sprintf "i%d" i)))
  in
  for _ = 1 to n_gates do
    let a = Rng.choice rng !pool and b = Rng.choice rng !pool in
    let kinds = [| Cell.And; Cell.Or; Cell.Xor; Cell.Nand |] in
    let out = N.gate nl kinds.(Rng.int rng 4) [| a; b |] in
    pool := Array.append !pool [| out |]
  done;
  for i = 0 to 5 do
    N.add_output nl (Printf.sprintf "o%d" i) (!pool).(Array.length !pool - 1 - i)
  done;
  fst (Lut_map.map ~k:4 nl)

let test_fit_loop_converges () =
  let mapped = random_mapped 3 250 in
  let res = Pnr.fit_loop ~style:Style.Openfpga mapped in
  (match res.Pnr.fit with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "fit loop should converge");
  Alcotest.(check bool) "some utilization" true (res.Pnr.utilization > 0.0)

let test_all_cells_placed () =
  let mapped = random_mapped 4 150 in
  let res = Pnr.fit_loop ~style:Style.Fabulous_std mapped in
  let luts =
    N.count_kind mapped (function Cell.Lut _ -> true | _ -> false)
  in
  Alcotest.(check int) "lut count placed" luts res.Pnr.placement.Pnr.used_luts;
  (* every placed cell is inside the grid *)
  Hashtbl.iter
    (fun _ (t : Pnr.tile) ->
      Alcotest.(check bool) "within grid" true
        (t.Pnr.x >= 0
        && t.Pnr.x <= res.Pnr.fabric.Fabric.cols
        && t.Pnr.y >= 0
        && t.Pnr.y <= res.Pnr.fabric.Fabric.rows))
    res.Pnr.placement.Pnr.of_cell

let test_undersized_reports_shortage () =
  let mapped = random_mapped 5 300 in
  let tiny = { Fabric.style = Style.Openfpga; cols = 1; rows = 1; chain_slots = 0 } in
  let res = Pnr.run tiny mapped in
  match res.Pnr.fit with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "1x1 fabric cannot fit 300 gates"

let test_square_wastes_tiles () =
  (* the Fig. 2 effect: on the same mapped netlist, the square OpenFPGA
     grid has at most the LUT utilization of the FABulous rectangle *)
  let mapped = random_mapped 6 300 in
  let sq = Pnr.fit_loop ~style:Style.Openfpga mapped in
  let rc = Pnr.fit_loop ~style:Style.Fabulous_std mapped in
  Alcotest.(check bool)
    (Printf.sprintf "square %.2f <= rect %.2f" sq.Pnr.utilization rc.Pnr.utilization)
    true
    (sq.Pnr.utilization <= rc.Pnr.utilization +. 1e-9)

let test_deterministic () =
  let mapped = random_mapped 7 120 in
  let a = Pnr.fit_loop ~seed:3 ~style:Style.Openfpga mapped in
  let b = Pnr.fit_loop ~seed:3 ~style:Style.Openfpga mapped in
  Alcotest.(check int) "same wirelength" a.Pnr.routes.Pnr.wirelength
    b.Pnr.routes.Pnr.wirelength

let test_annealing_improves () =
  let mapped = random_mapped 8 250 in
  let fabric = Fabric.size_for Style.Fabulous_std ~luts:120 ~user_ffs:0 ~chain_muxes:0 in
  let cold = Pnr.run ~anneal_moves:0 fabric mapped in
  let hot = Pnr.run ~anneal_moves:30_000 fabric mapped in
  Alcotest.(check bool)
    (Printf.sprintf "annealed %d <= initial %d" hot.Pnr.routes.Pnr.wirelength
       cold.Pnr.routes.Pnr.wirelength)
    true
    (hot.Pnr.routes.Pnr.wirelength <= cold.Pnr.routes.Pnr.wirelength + 20)

let test_chain_cells_fit () =
  let nl = N.create "ch" in
  let s = N.add_input nl "s" in
  let data = Array.init 8 (fun i -> N.add_input nl (Printf.sprintf "d%d" i)) in
  let muxes =
    Array.init 4 (fun i ->
        N.mux2 nl ~sel:s ~a:data.(2 * i) ~b:data.((2 * i) + 1))
  in
  Array.iteri (fun i m -> N.add_output nl (Printf.sprintf "y%d" i) m) muxes;
  let res = Pnr.fit_loop ~style:Style.Fabulous_muxchain nl in
  Alcotest.(check int) "chain cells placed" 4 res.Pnr.placement.Pnr.used_chain;
  match res.Pnr.fit with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "chain must fit"

let test_fit_counts () =
  let mapped = random_mapped 10 150 in
  let res = Pnr.fit_loop ~style:Style.Fabulous_std mapped in
  let c = Pnr.fit_counts ~netlist:mapped res in
  Alcotest.(check int) "used luts from placement" res.Pnr.placement.Pnr.used_luts
    c.Pnr.used_luts;
  Alcotest.(check bool) "lut capacity covers demand" true
    (c.Pnr.lut_capacity >= c.Pnr.used_luts);
  Alcotest.(check bool) "ff capacity covers demand" true
    (c.Pnr.ff_capacity >= c.Pnr.used_ffs);
  Alcotest.(check bool) "io pins counted" true
    (match c.Pnr.io_pins with Some n -> n > 0 | None -> false);
  Alcotest.(check bool) "channel width positive" true (c.Pnr.channel_width > 0);
  Alcotest.(check int) "converged fit has no overflow" 0 c.Pnr.overflow_segments

let test_shortage_carries_counts () =
  let mapped = random_mapped 5 300 in
  let tiny =
    { Fabric.style = Style.Openfpga; cols = 1; rows = 1; chain_slots = 0 }
  in
  let res = Pnr.run tiny mapped in
  match Pnr.diag_of_fit ~netlist:mapped res with
  | None -> Alcotest.fail "1x1 fabric must yield a shortage diagnostic"
  | Some d -> (
      match d.Shell_util.Diag.payload with
      | Fabric.Shortage { shortage = _; demand; capacity; counts } ->
          Alcotest.(check bool) "demand exceeds capacity" true
            (demand > capacity);
          let assoc what =
            List.find_opt (fun (n, _, _) -> n = what) counts
          in
          (match assoc "luts" with
          | Some (_, d, c) ->
              Alcotest.(check int) "lut demand in counts"
                res.Pnr.placement.Pnr.used_luts d;
              Alcotest.(check bool) "lut capacity in counts" true (c >= 0)
          | None -> Alcotest.fail "counts must carry the lut triple");
          Alcotest.(check bool) "io triple present with netlist" true
            (assoc "io_pins" <> None)
      | _ -> Alcotest.fail "expected a Fabric.Shortage payload")

let test_floorplan_renders () =
  let mapped = random_mapped 9 100 in
  let res = Pnr.fit_loop ~style:Style.Openfpga mapped in
  let s = Shell_pnr.Floorplan.render res in
  Alcotest.(check bool) "mentions grid" true
    (String.length s > 40);
  (* one row line per fabric row *)
  let rows =
    List.filter
      (fun l -> String.length l > 2 && String.sub l 0 3 = "  |")
      (String.split_on_char '\n' s)
  in
  Alcotest.(check int) "row lines" res.Pnr.fabric.Fabric.rows (List.length rows)

(* ---- golden values ----
   Recorded from the list-based anneal that the cached-cost kernel
   replaced, so a kernel change that moves any placement, route or fit
   verdict fails here; comparing two runs of the same code cannot
   catch that. A summary is (cols, rows, fit, wirelength,
   max_congestion, overflow_segments, used_tiles, MD5 of the sorted
   cell -> tile map). *)

let summary (r : Pnr.result) =
  let cells =
    Hashtbl.fold
      (fun ci (t : Pnr.tile) acc -> (ci, t.Pnr.x, t.Pnr.y) :: acc)
      r.Pnr.placement.Pnr.of_cell []
    |> List.sort compare
  in
  let b = Buffer.create 256 in
  List.iter (fun (c, x, y) -> Printf.bprintf b "%d:%d,%d;" c x y) cells;
  ( r.Pnr.fabric.Fabric.cols,
    r.Pnr.fabric.Fabric.rows,
    (match r.Pnr.fit with Ok () -> "ok" | Error s -> Fabric.shortage_name s),
    r.Pnr.routes.Pnr.wirelength,
    r.Pnr.routes.Pnr.max_congestion,
    r.Pnr.routes.Pnr.overflow_segments,
    r.Pnr.placement.Pnr.used_tiles,
    Digest.to_hex (Digest.string (Buffer.contents b)) )

let summary_t =
  Alcotest.testable
    (fun ppf (c, r, f, w, m, o, u, d) ->
      Format.fprintf ppf "(%d, %d, %S, %d, %d, %d, %d, %S)" c r f w m o u d)
    ( = )

let style_of id =
  match Jobs.style_of_string id with Ok s -> s | Error _ -> assert false

(* fit_loop on the fixtures above, at the default seed *)
let golden_fit_loop =
  [
    ((3, 250, "openfpga"), (3, 3, "ok", 88, 11, 0, 9, "7ad346f152eb29292987893ccb3684a8"));
    ((3, 250, "fabulous"), (3, 2, "ok", 78, 9, 0, 6, "b0ee60b05e639382898ee8085d3e7691"));
    ((3, 250, "muxchain"), (3, 2, "ok", 78, 9, 0, 6, "b0ee60b05e639382898ee8085d3e7691"));
    ((4, 150, "openfpga"), (2, 2, "ok", 55, 10, 0, 4, "fb3c74b9c234bd62654e0e4a3ee48566"));
    ((4, 150, "fabulous"), (2, 2, "ok", 55, 10, 0, 4, "fb3c74b9c234bd62654e0e4a3ee48566"));
    ((4, 150, "muxchain"), (2, 2, "ok", 55, 10, 0, 4, "fb3c74b9c234bd62654e0e4a3ee48566"));
    ((5, 300, "openfpga"), (3, 3, "ok", 90, 10, 0, 8, "1ae7d5edc34a48c76e60a30233f17d93"));
    ((5, 300, "fabulous"), (3, 3, "ok", 90, 10, 0, 8, "1ae7d5edc34a48c76e60a30233f17d93"));
    ((5, 300, "muxchain"), (3, 3, "ok", 90, 10, 0, 8, "1ae7d5edc34a48c76e60a30233f17d93"));
    ((6, 300, "openfpga"), (3, 3, "ok", 121, 13, 0, 9, "af42bee56eb34a4b09509e58952fb91e"));
    ((6, 300, "fabulous"), (3, 3, "ok", 121, 13, 0, 9, "af42bee56eb34a4b09509e58952fb91e"));
    ((6, 300, "muxchain"), (3, 3, "ok", 121, 13, 0, 9, "af42bee56eb34a4b09509e58952fb91e"));
    ((7, 120, "openfpga"), (2, 2, "ok", 48, 9, 0, 4, "e12210ae3cb9019662d17faed729c9ab"));
    ((7, 120, "fabulous"), (2, 2, "ok", 48, 9, 0, 4, "e12210ae3cb9019662d17faed729c9ab"));
    ((7, 120, "muxchain"), (2, 2, "ok", 48, 9, 0, 4, "e12210ae3cb9019662d17faed729c9ab"));
    ((8, 250, "openfpga"), (3, 3, "ok", 118, 14, 0, 9, "e885fbcfa56c446063e0720785ee61c4"));
    ((8, 250, "fabulous"), (3, 3, "ok", 118, 14, 0, 9, "e885fbcfa56c446063e0720785ee61c4"));
    ((8, 250, "muxchain"), (3, 3, "ok", 118, 14, 0, 9, "e885fbcfa56c446063e0720785ee61c4"));
    ((9, 100, "openfpga"), (2, 2, "ok", 41, 7, 0, 4, "0a0fa151d68bc3d6c1389440483aed0d"));
    ((9, 100, "fabulous"), (2, 2, "ok", 41, 7, 0, 4, "0a0fa151d68bc3d6c1389440483aed0d"));
    ((9, 100, "muxchain"), (2, 2, "ok", 41, 7, 0, 4, "0a0fa151d68bc3d6c1389440483aed0d"));
    ((10, 150, "openfpga"), (3, 3, "ok", 70, 11, 0, 6, "6dd12ecc3503baa88ab5a36c4b575e9c"));
    ((10, 150, "fabulous"), (3, 2, "ok", 72, 12, 0, 6, "b174437432813d13f5c5acda577cee69"));
    ((10, 150, "muxchain"), (3, 2, "ok", 72, 12, 0, 6, "b174437432813d13f5c5acda577cee69"));
  ]

(* run on fixed Fabulous_std fabrics, mostly too small to place every BLE *)
let golden_run =
  [
    ((5, 300, 1, 1), (1, 1, "LUTs", 8, 8, 0, 1, "f7dbaf7d2e4e3b5a26bedc3f992890cc"));
    ((5, 300, 2, 2), (2, 2, "LUTs", 42, 8, 0, 4, "140e601132dbbabc2f5bb2cedf981beb"));
    ((5, 300, 3, 2), (3, 2, "LUTs", 87, 11, 0, 6, "9416ee792a7dfb2623092ddf3b462ff8"));
    ((5, 300, 4, 4), (4, 4, "ok", 98, 11, 0, 9, "e5230a1e825706db33bc31dad56d20ee"));
    ((8, 250, 1, 1), (1, 1, "LUTs", 9, 9, 0, 1, "f7dbaf7d2e4e3b5a26bedc3f992890cc"));
    ((8, 250, 2, 2), (2, 2, "LUTs", 37, 8, 0, 4, "f342175d743eb6bb2494279a7b7ec16d"));
    ((8, 250, 3, 2), (3, 2, "LUTs", 62, 8, 0, 6, "2de716a89a910f47c45e7a288abf372f"));
    ((8, 250, 4, 4), (4, 4, "ok", 126, 12, 0, 9, "b96e3f5ad0b08e5cb776fe45bdff5b39"));
  ]

(* Flow.run with each bundled design's SheLL TfR at the default seed:
   bitstream MD5, the flow's PnR summary, and run on a 1x1 fabric with
   4 chain slots (unplaced BLEs next to chain cells) *)
let golden_flow =
  [
    (("PicoSoC", "openfpga"), "9561d044af59329901cc11e47c34f9d1", (3, 3, "ok", 145, 17, 0, 6, "3c289e12084fbd2bb28f16ba9c70688a"), (1, 1, "LUTs", 8, 8, 0, 1, "f7dbaf7d2e4e3b5a26bedc3f992890cc"));
    (("PicoSoC", "fabulous"), "5719afc10753482c117e9c8a7d0b0a7a", (3, 2, "ok", 140, 24, 0, 6, "01fdfb7805446834cc82d6b85545d7de"), (1, 1, "LUTs", 8, 8, 0, 1, "f7dbaf7d2e4e3b5a26bedc3f992890cc"));
    (("PicoSoC", "muxchain"), "85a4f33e66dc17fa9bee81c34b3ca182", (2, 2, "ok", 138, 22, 0, 4, "f51f26b29301be6853ac657f3d725028"), (1, 1, "LUTs", 54, 29, 0, 1, "7f6c0469544834043ce177be2cf80b1b"));
    (("AES", "openfpga"), "3de7f267046fc3225166b335d8c6ae26", (3, 3, "ok", 182, 28, 0, 6, "3c4013c8cd0459e9fcab20e0f845360f"), (1, 1, "routing", 39, 27, 0, 1, "f7dbaf7d2e4e3b5a26bedc3f992890cc"));
    (("AES", "fabulous"), "6affe3f3c8e87587433ecd871a622784", (3, 3, "ok", 182, 28, 0, 6, "3c4013c8cd0459e9fcab20e0f845360f"), (1, 1, "routing", 39, 27, 0, 1, "f7dbaf7d2e4e3b5a26bedc3f992890cc"));
    (("AES", "muxchain"), "841d7ab61c78f06ab56cc0110484178a", (4, 4, "ok", 370, 33, 0, 5, "664e6cfeda1409f3540197ddff67adc8"), (1, 1, "routing", 102, 59, 2, 1, "f1c09c3549afb96d7f7d6537b98fd0aa"));
    (("FIR", "openfpga"), "608931381635728307af928a6a8cf9fb", (3, 3, "ok", 173, 19, 0, 9, "a0f42c602554d4818511d45865e25a39"), (1, 1, "LUTs", 10, 10, 0, 1, "f7dbaf7d2e4e3b5a26bedc3f992890cc"));
    (("FIR", "fabulous"), "7933cccc8fcf27ee9c16346a10e7e682", (3, 3, "ok", 173, 19, 0, 9, "a0f42c602554d4818511d45865e25a39"), (1, 1, "LUTs", 10, 10, 0, 1, "f7dbaf7d2e4e3b5a26bedc3f992890cc"));
    (("FIR", "muxchain"), "d77e0523dc9dd9166a9ea361872657b1", (3, 3, "ok", 196, 19, 0, 9, "fc2513761852dee4981089c4ea785cfb"), (1, 1, "LUTs", 10, 10, 0, 1, "f7dbaf7d2e4e3b5a26bedc3f992890cc"));
    (("SPMV", "openfpga"), "5d12bd30f7984d40cc251d37bc041514", (3, 3, "ok", 221, 23, 0, 9, "a9df54d7cd2d6e9ebccae62ad5340470"), (1, 1, "routing", 10, 10, 0, 1, "f7dbaf7d2e4e3b5a26bedc3f992890cc"));
    (("SPMV", "fabulous"), "001843bd36d3cefd9210ce4a44862465", (3, 3, "ok", 221, 23, 0, 9, "a9df54d7cd2d6e9ebccae62ad5340470"), (1, 1, "routing", 10, 10, 0, 1, "f7dbaf7d2e4e3b5a26bedc3f992890cc"));
    (("SPMV", "muxchain"), "8aefab290f0b25a816cd418fe1630a68", (3, 3, "ok", 265, 32, 0, 4, "914897abc2cdaeabdee4576781439320"), (1, 1, "routing", 92, 50, 2, 1, "0f59c6d785aef03d0e8a4b5b2b90b14d"));
    (("DLA", "openfpga"), "c1184c7bb5e18dd67da895b762948bc1", (3, 3, "ok", 147, 19, 0, 7, "c04a985c528d5b4c53750a27f3efa2fc"), (1, 1, "LUTs", 13, 13, 0, 1, "f7dbaf7d2e4e3b5a26bedc3f992890cc"));
    (("DLA", "fabulous"), "2b67a801afad7525473b9723f079b649", (3, 3, "ok", 147, 19, 0, 7, "c04a985c528d5b4c53750a27f3efa2fc"), (1, 1, "LUTs", 13, 13, 0, 1, "f7dbaf7d2e4e3b5a26bedc3f992890cc"));
    (("DLA", "muxchain"), "685e12706e63b21c49d74e94262ef5fa", (1, 1, "ok", 71, 36, 0, 1, "66d37bf120cc405cc24d344a636db5b6"), (1, 1, "chain slots", 71, 36, 0, 1, "66d37bf120cc405cc24d344a636db5b6"));
    (("SoC", "openfpga"), "06a8c9634dd3f22364ceb7edc9ee8655", (5, 5, "ok", 645, 24, 0, 25, "5cbd0f32e3a710c5cfe8315c04b0440c"), (1, 1, "routing", 17, 17, 0, 1, "f7dbaf7d2e4e3b5a26bedc3f992890cc"));
    (("SoC", "fabulous"), "f754813506a0744827f15b2997437652", (5, 5, "ok", 645, 24, 0, 25, "5cbd0f32e3a710c5cfe8315c04b0440c"), (1, 1, "routing", 17, 17, 0, 1, "f7dbaf7d2e4e3b5a26bedc3f992890cc"));
    (("SoC", "muxchain"), "6e6883edf618546e7d6c6cc13162fbd0", (3, 2, "ok", 273, 34, 0, 6, "05a129c8a60feb65a8bf110e540e9cd7"), (1, 1, "routing", 51, 27, 0, 1, "93e427fa8d9ae3ff7a72006ddebdcaec"));
    (("Xbar", "openfpga"), "391d5c02bedeab3dc0b8e90ab464edb3", (8, 8, "ok", 1674, 36, 0, 54, "e04879a73698a49cf226440c770009df"), (1, 1, "routing", 6, 6, 0, 1, "f7dbaf7d2e4e3b5a26bedc3f992890cc"));
    (("Xbar", "fabulous"), "366761d2eb276fe93be414aec276d2c6", (8, 8, "ok", 1674, 36, 0, 54, "e04879a73698a49cf226440c770009df"), (1, 1, "routing", 6, 6, 0, 1, "f7dbaf7d2e4e3b5a26bedc3f992890cc"));
    (("Xbar", "muxchain"), "f9d0999f8cfe1205182aae219dd53033", (10, 10, "routing", 1817, 72, 6, 11, "f189f2b4fc265597f66bca786c18d574"), (1, 1, "routing", 192, 96, 2, 1, "e63f5922d1899fe303b57f4406edcdde"));
  ]

let test_golden_fit_loop () =
  List.iter
    (fun ((seed, n, style), want) ->
      let got = summary (Pnr.fit_loop ~style:(style_of style) (random_mapped seed n)) in
      Alcotest.check summary_t (Printf.sprintf "fit_loop %d/%d/%s" seed n style) want got)
    golden_fit_loop

let test_golden_run () =
  List.iter
    (fun ((seed, n, cols, rows), want) ->
      let f = { Fabric.style = Style.Fabulous_std; cols; rows; chain_slots = 0 } in
      let got = summary (Pnr.run f (random_mapped seed n)) in
      Alcotest.check summary_t (Printf.sprintf "run %d/%d on %dx%d" seed n cols rows) want got)
    golden_run

let test_golden_flow () =
  List.iter
    (fun ((bench, style), bits, want_pnr, want_tiny) ->
      let nl = match Jobs.netlist_of_bench bench with Ok n -> n | Error _ -> assert false in
      let route, lgc, label = Option.get (Jobs.default_tfr bench) in
      let style = style_of style in
      let cfg =
        { (C.Flow.shell_config ~target:(C.Flow.Fixed { route; lgc; label }) ()) with C.Flow.style }
      in
      let r = C.Flow.run cfg nl in
      let what = Printf.sprintf "%s/%s" bench (Jobs.style_id style) in
      Alcotest.(check string) (what ^ " bitstream") bits
        (Digest.to_hex
           (Digest.string (Shell_fabric.Bitstream.serialize r.C.Flow.emitted.Shell_fabric.Emit.bitstream)));
      Alcotest.check summary_t (what ^ " pnr") want_pnr (summary r.C.Flow.pnr);
      let tiny = { Fabric.style; cols = 1; rows = 1; chain_slots = 4 } in
      Alcotest.check summary_t (what ^ " 1x1") want_tiny
        (summary (Pnr.run tiny r.C.Flow.mapped.C.Synthesize.netlist)))
    golden_flow

(* ---- the capacity walk ---- *)

(* 240 boundary pins on 80 LUTs: the LUT-sized first fabric (4x3,
   144 pins) is six grows short of pins *)
let pin_heavy () =
  let nl = N.create "pins" in
  let ins = Array.init 160 (fun i -> N.add_input nl (Printf.sprintf "i%d" i)) in
  for j = 0 to 79 do
    N.add_output nl (Printf.sprintf "o%d" j)
      (N.gate nl Cell.Xor [| ins.(2 * j); ins.((2 * j) + 1) |])
  done;
  fst (Lut_map.map ~k:4 nl)

let pin_heavy_first =
  Fabric.size_for Style.Fabulous_std ~luts:80 ~user_ffs:0 ~chain_muxes:0

let test_walk_exhausted () =
  let mapped = pin_heavy () in
  let walked = Pnr.fit_loop ~seed:5 ~max_grows:3 ~style:Style.Fabulous_std mapped in
  let first = pin_heavy_first in
  let last =
    List.fold_left Fabric.grow first
      [ Fabric.Routing_short; Fabric.Routing_short; Fabric.Routing_short ]
  in
  Alcotest.(check bool) "first fabric is pin-short" true
    (Fabric.io_capacity first < 240);
  Alcotest.check summary_t "same as run on the last fabric"
    (summary (Pnr.run ~seed:5 last mapped))
    (summary walked);
  match Pnr.diag_of_fit ~netlist:mapped walked with
  | Some { Shell_util.Diag.payload = Fabric.Shortage { shortage; demand; capacity; counts }; _ } ->
      Alcotest.(check bool) "routing short" true (shortage = Fabric.Routing_short);
      Alcotest.(check (pair int int)) "pin demand vs capacity"
        (240, Fabric.io_capacity last) (demand, capacity);
      Alcotest.(check bool) "io_pins triple" true
        (List.mem ("io_pins", 240, Fabric.io_capacity last) counts)
  | _ -> Alcotest.fail "an exhausted walk must report the pin shortage"

let test_walk_places_less () =
  let mapped = pin_heavy () in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Obs.reset ();
  let res =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled was)
      (fun () -> Pnr.fit_loop ~style:Style.Fabulous_std mapped)
  in
  let attempts =
    List.length (List.filter (fun (s : Obs.span) -> s.Obs.name = "pnr.attempt") (Obs.spans ()))
  in
  let retries =
    List.find_map
      (fun (s : Obs.sample) ->
        match s.Obs.value with
        | Obs.Counter n when s.Obs.name = "pnr_retries" -> Some n
        | _ -> None)
      (Obs.snapshot ())
  in
  Obs.reset ();
  (* on a rectangular style every grow adds one column or one row *)
  let f = res.Pnr.fabric and first = pin_heavy_first in
  let grows =
    f.Fabric.cols + f.Fabric.rows - (first.Fabric.cols + first.Fabric.rows)
  in
  Alcotest.(check bool) "fits" true (res.Pnr.fit = Ok ());
  Alcotest.(check bool)
    (Printf.sprintf "%d placed attempts < %d grows" attempts grows)
    true
    (attempts >= 1 && attempts < grows);
  Alcotest.(check (option int)) "retries count placed failures only"
    (Some (attempts - 1)) retries

let suite =
  [
    ("fit loop converges", `Quick, test_fit_loop_converges);
    ("all cells placed", `Quick, test_all_cells_placed);
    ("undersized reports shortage", `Quick, test_undersized_reports_shortage);
    ("square wastes tiles (fig 2)", `Quick, test_square_wastes_tiles);
    ("deterministic", `Quick, test_deterministic);
    ("annealing improves", `Quick, test_annealing_improves);
    ("chain cells fit", `Quick, test_chain_cells_fit);
    ("fit counts accounting", `Quick, test_fit_counts);
    ("shortage carries counts", `Quick, test_shortage_carries_counts);
    ("floorplan renders", `Quick, test_floorplan_renders);
    ("golden fit_loop", `Quick, test_golden_fit_loop);
    ("golden run", `Quick, test_golden_run);
    ("golden flow bitstreams", `Quick, test_golden_flow);
    ("capacity walk exhausted", `Quick, test_walk_exhausted);
    ("capacity walk places less", `Quick, test_walk_places_less);
  ]
