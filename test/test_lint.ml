(* Tests for shell_lint: one positive + one negative fixture per rule,
   baseline suppression, severity floors, jobs-independent JSON output
   and lint-cleanliness of the pipeline's locked result. *)

module N = Shell_netlist.Netlist
module Cell = Shell_netlist.Cell
module Truthtab = Shell_util.Truthtab
module Jsonw = Shell_util.Jsonw
module Lint = Shell_lint.Lint
module Rules = Shell_lint.Rules
module Bitstream = Shell_fabric.Bitstream
module C = Shell_core
module Circ = Shell_circuits

let run_rule name subj =
  match Rules.find name with
  | None -> Alcotest.failf "unknown rule %s" name
  | Some r -> (Lint.run ~rules:[ r ] subj).Lint.findings

let check_fires name subj =
  Alcotest.(check bool) (name ^ " fires") true (run_rule name subj <> [])

let check_clean name subj =
  match run_rule name subj with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "%s expected clean, got: %s" name f.Lint.message

(* well-formed negative fixture for the structural pack *)
let clean () =
  let nl = N.create "clean" in
  let a = N.add_input nl "a" in
  let b = N.add_input nl "b" in
  N.add_output nl "y" (N.and_ nl a b);
  nl

(* ---------------- structural pack ---------------- *)

let test_port_invalid () =
  let nl = N.create "dup" in
  let a = N.add_input nl "a" in
  let a2 = N.add_input nl "a" in
  N.add_output nl "y" (N.or_ nl a a2);
  check_fires "port-invalid" (Lint.subject nl);
  check_clean "port-invalid" (Lint.subject (clean ()))

let test_net_multi_driven () =
  let nl = N.create "dd" in
  let a = N.add_input nl "a" in
  let x = N.not_ nl a in
  N.add_cell nl (Cell.make Cell.Buf [| a |] x);
  N.add_output nl "y" x;
  check_fires "net-multi-driven" (Lint.subject nl);
  check_clean "net-multi-driven" (Lint.subject (clean ()))

let test_net_undriven () =
  let nl = N.create "float" in
  let a = N.add_input nl "a" in
  let dangling = N.new_net nl in
  N.add_output nl "y" (N.and_ nl a dangling);
  check_fires "net-undriven" (Lint.subject nl);
  check_clean "net-undriven" (Lint.subject (clean ()))

let test_comb_cycle () =
  let nl = N.create "loop" in
  let a = N.add_input nl "a" in
  let q = N.new_net nl in
  N.add_cell nl (Cell.make Cell.And [| a; q |] q);
  N.add_output nl "y" q;
  check_fires "comb-cycle" (Lint.subject nl);
  (* a dff breaks the cycle *)
  let seq = N.create "seq" in
  let a = N.add_input seq "a" in
  let q = N.new_net seq in
  let d = N.xor_ seq a q in
  N.add_cell seq (Cell.make Cell.Dff [| d |] q);
  N.add_output seq "y" q;
  check_clean "comb-cycle" (Lint.subject seq)

let test_cell_dead () =
  let nl = clean () in
  let a = snd (List.hd (N.inputs nl)) in
  let _unused = N.not_ nl a in
  check_fires "cell-dead" (Lint.subject nl);
  check_clean "cell-dead" (Lint.subject (clean ()))

let test_output_constant () =
  let nl = N.create "stuck" in
  let a = N.add_input nl "a" in
  let z = N.const nl false in
  N.add_output nl "y" (N.and_ nl a z);
  check_fires "output-constant" (Lint.subject nl);
  check_clean "output-constant" (Lint.subject (clean ()))

let test_lut_degenerate () =
  let nl = N.create "lutdeg" in
  let a = N.add_input nl "a" in
  let b = N.add_input nl "b" in
  (* a 2-input table that only depends on input 0 *)
  N.add_output nl "y" (N.lut nl (Truthtab.var 0 ~arity:2) [| a; b |]);
  check_fires "lut-degenerate" (Lint.subject nl);
  let ok = N.create "lutok" in
  let a = N.add_input ok "a" in
  let b = N.add_input ok "b" in
  N.add_output ok "y"
    (N.lut ok (Truthtab.of_fun ~arity:2 (fun v -> v.(0) <> v.(1))) [| a; b |]);
  check_clean "lut-degenerate" (Lint.subject ok)

(* ---------------- security pack ---------------- *)

let test_key_dead () =
  let nl = N.create "kdead" in
  let _k = N.add_key nl "kb0" in
  let a = N.add_input nl "a" in
  N.add_output nl "y" (N.not_ nl a);
  check_fires "key-dead" (Lint.subject nl);
  let ok = N.create "kok" in
  let k = N.add_key ok "kb0" in
  let a = N.add_input ok "a" in
  N.add_output ok "y" (N.xor_ ok k a);
  check_clean "key-dead" (Lint.subject ok)

let test_key_blocked () =
  (* the key is wired towards the output, but an AND-with-0 cuts
     every path: reachable yet not live *)
  let nl = N.create "kblk" in
  let k = N.add_key nl "kb0" in
  let a = N.add_input nl "a" in
  let z = N.const nl false in
  N.add_output nl "y" (N.and_ nl (N.xor_ nl k a) z);
  check_fires "key-blocked" (Lint.subject nl);
  let ok = N.create "kok" in
  let k = N.add_key ok "kb0" in
  let a = N.add_input ok "a" in
  N.add_output ok "y" (N.xor_ ok k a);
  check_clean "key-blocked" (Lint.subject ok)

let test_key_odc_dead () =
  (* the key steers a mux whose arms are the same net: it survives the
     constant cuts (reach + live) but the ODC rules mask its only read *)
  let nl = N.create "odcdead" in
  let k = N.add_key nl "kb0" in
  let a = N.add_input nl "a" in
  N.add_output nl "y" (N.mux2 nl ~sel:k ~a ~b:a);
  check_fires "key-odc-dead" (Lint.subject nl);
  (* distinct arms: the select is genuinely observable, provably clean *)
  let ok = N.create "odcok" in
  let k = N.add_key ok "kb0" in
  let a = N.add_input ok "a" in
  let b = N.add_input ok "b" in
  N.add_output ok "y" (N.mux2 ok ~sel:k ~a ~b);
  check_clean "key-odc-dead" (Lint.subject ok)

let test_key_taint_collapse () =
  (* same-arm mux: the output's cone carries no key influence at all,
     even though the netlist exposes a key *)
  let nl = N.create "collapse" in
  let k = N.add_key nl "kb0" in
  let a = N.add_input nl "a" in
  N.add_output nl "y" (N.mux2 nl ~sel:k ~a ~b:a);
  check_fires "key-taint-collapse" (Lint.subject nl);
  (* an XOR-keyed output is tainted by its bit: provably clean *)
  let ok = N.create "taintok" in
  let k = N.add_key ok "kb0" in
  let a = N.add_input ok "a" in
  N.add_output ok "y" (N.xor_ ok k a);
  check_clean "key-taint-collapse" (Lint.subject ok)

let test_scope_leak () =
  (* AND-keying collapses asymmetrically: pinning the bit to 0 proves
     the output constant, pinning to 1 proves nothing *)
  let nl = N.create "leak" in
  let k = N.add_key nl "kb0" in
  let a = N.add_input nl "a" in
  N.add_output nl "y" (N.and_ nl k a);
  check_fires "scope-leak" (Lint.subject nl);
  (* XOR-keying is score-symmetric: neither pinning proves anything,
     so the rule provably cannot fire *)
  let ok = N.create "leakok" in
  let k = N.add_key ok "kb0" in
  let a = N.add_input ok "a" in
  N.add_output ok "y" (N.xor_ ok k a);
  check_clean "scope-leak" (Lint.subject ok)

let test_mux_chain_cycle () =
  let nl = N.create "muxloop" in
  let s = N.add_input nl "s" in
  let a = N.add_input nl "a" in
  let q = N.new_net nl in
  N.add_cell nl (Cell.make Cell.Mux2 [| s; q; a |] q);
  N.add_output nl "y" q;
  check_fires "mux-chain-cycle" (Lint.subject nl);
  let ok = N.create "muxok" in
  let s = N.add_input ok "s" in
  let a = N.add_input ok "a" in
  let b = N.add_input ok "b" in
  N.add_output ok "y" (N.mux2 ok ~sel:s ~a ~b);
  check_clean "mux-chain-cycle" (Lint.subject ok)

let sel_design ~adjacent =
  let nl = N.create "sel" in
  let a = N.add_input nl "a" in
  let b = N.add_input nl "b" in
  let r = N.and_ ~origin:"top.routeblk" nl a b in
  let feed = if adjacent then r else N.not_ nl (N.not_ nl r) in
  N.add_output nl "y" (N.not_ ~origin:"top.lgcblk" nl feed);
  nl

let test_lgc_depth () =
  let selection design =
    { Lint.design; route_origins = [ "routeblk" ]; lgc_origins = [ "lgcblk" ] }
  in
  let far = sel_design ~adjacent:false in
  check_fires "lgc-depth" (Lint.subject ~selection:(selection far) far);
  let near = sel_design ~adjacent:true in
  check_clean "lgc-depth" (Lint.subject ~selection:(selection near) near)

let test_ref_mismatch () =
  let golden = clean () in
  let tampered =
    N.map_cells (clean ()) (fun _ c ->
        match c.Cell.kind with
        | Cell.And -> { c with Cell.kind = Cell.Or }
        | _ -> c)
  in
  check_fires "ref-mismatch" (Lint.subject ~reference:golden tampered);
  check_clean "ref-mismatch" (Lint.subject ~reference:golden (clean ()))

(* ---------------- fabric pack ---------------- *)

let keyed ~use_both =
  let nl = N.create "cfg" in
  let k0 = N.add_key nl "kb0" in
  let k1 = N.add_key nl "kb1" in
  let a = N.add_input nl "a" in
  let x = N.and_ nl k0 a in
  N.add_output nl "y" (if use_both then N.xor_ nl x k1 else x);
  nl

let test_config_dangling () =
  let bs () =
    let b = Bitstream.builder () in
    Bitstream.append b "lut0.in0.sel" [| true; false |];
    b
  in
  (* kb1 is a config bit with no fanout *)
  check_fires "config-dangling"
    (Lint.subject ~bitstream:(bs ()) (keyed ~use_both:false));
  check_clean "config-dangling"
    (Lint.subject ~bitstream:(bs ()) (keyed ~use_both:true))

let test_bitstream_accounting () =
  let bad = Bitstream.builder () in
  (* 3 bits can't be a LUT table, and the netlist exposes 2 key bits *)
  Bitstream.append bad "lut0.table" [| true; false; true |];
  let fs =
    run_rule "bitstream-accounting"
      (Lint.subject ~bitstream:bad (keyed ~use_both:true))
  in
  let wheres = List.map (fun (f : Lint.finding) -> f.Lint.where) fs in
  Alcotest.(check bool) "table-size flagged" true
    (List.mem "segment:lut0.table" wheres);
  Alcotest.(check bool) "key-count flagged" true (List.mem "keys" wheres);
  let ok = Bitstream.builder () in
  Bitstream.append ok "lut0.table" [| true; false |];
  check_clean "bitstream-accounting"
    (Lint.subject ~bitstream:ok (keyed ~use_both:true))

let fir_result =
  lazy
    (C.Pipeline.clear_cache ();
     C.Flow.run (C.Flow.shell_config ()) (Circ.Fir.netlist ()))

let test_fabric_unused () =
  let r = Lazy.force fir_result in
  (* same fit, shrink flagged off: the sized fabric has slack *)
  let unshrunk =
    Lint.subject ~pnr:r.C.Flow.pnr ~shrunk:false r.C.Flow.locked_full
  in
  check_fires "fabric-unused" unshrunk;
  let shrunk =
    Lint.subject ~pnr:r.C.Flow.pnr ~shrunk:true r.C.Flow.locked_full
  in
  check_clean "fabric-unused" shrunk

(* ---------------- ODC / taint vs brute-force Simw ---------------- *)

module Dataflow = Shell_lint.Dataflow
module Odc = Shell_lint.Odc
module Simw = Shell_netlist.Simw

(* The per-bit key-influence lattice, the reference model for
   [Shell_lint.Taint.reached]: per net, the bitset of key bits that can
   still functionally reach it. The lattice is (2^K, union) per net;
   propagation is monotone, so sweeping to the least fixpoint
   terminates (and handles sequential feedback and cycles). A
   proven-constant net stays empty and a masked read contributes
   nothing, exactly as in [reached]. *)
module Taint = struct
  let reached = Shell_lint.Taint.reached

  let bpw = Sys.int_size

  type t = {
    nkeys : int;
    w : int;  (** words per net *)
    words : int array;  (** net-major bitset matrix, [n * w] *)
  }

  let bit_word b = b / bpw
  let bit_mask b = 1 lsl (b mod bpw)

  let tainted t ~net ~bit =
    t.nkeys > 0
    && net >= 0
    && (net + 1) * t.w <= Array.length t.words
    && t.words.((net * t.w) + bit_word bit) land bit_mask bit <> 0

  let is_empty t net =
    if t.w = 0 || net < 0 || (net + 1) * t.w > Array.length t.words then true
    else begin
      let empty = ref true in
      for j = net * t.w to ((net + 1) * t.w) - 1 do
        if t.words.(j) <> 0 then empty := false
      done;
      !empty
    end

  let net_taint t net =
    let bits = ref [] in
    for b = t.nkeys - 1 downto 0 do
      if tainted t ~net ~bit:b then bits := b :: !bits
    done;
    !bits

  let defaults ?values ?masks nl =
    let values =
      match values with Some v -> v | None -> Dataflow.const_values nl
    in
    let masks =
      match masks with Some m -> m | None -> Odc.read_masks values nl
    in
    (values, masks)

  let analyze ?values ?masks nl =
    let n = N.num_nets nl in
    let keys = N.keys nl in
    let nkeys = List.length keys in
    let w = (nkeys + bpw - 1) / bpw in
    let words = Array.make (max (n * w) 1) 0 in
    let t = { nkeys; w; words } in
    if nkeys = 0 || n = 0 then t
    else begin
      let values, masks = defaults ?values ?masks nl in
      List.iteri
        (fun b (_, net) ->
          if net >= 0 && net < n then
            words.((net * w) + bit_word b) <-
              words.((net * w) + bit_word b) lor bit_mask b)
        keys;
      let cells = N.cells nl in
      let order =
        match N.topo_order nl with
        | o -> o
        | exception Failure _ -> Array.init (Array.length cells) (fun i -> i)
      in
      let sweep () =
        let changed = ref false in
        Array.iter
          (fun ci ->
            let c = cells.(ci) in
            let out = c.Cell.out in
            (* a proven-constant output carries no key influence *)
            if Dataflow.known values.(out) = None then
              Array.iteri
                (fun i net ->
                  if not (Odc.masked masks ~cell:ci i) then
                    for j = 0 to w - 1 do
                      let s = words.((net * w) + j) in
                      let d = words.((out * w) + j) in
                      if s lor d <> d then begin
                        words.((out * w) + j) <- s lor d;
                        changed := true
                      end
                    done)
                c.Cell.ins)
          order;
        !changed
      in
      (* each sweep that reports a change set at least one new bit, so
         the loop runs at most n * nkeys sweeps (far fewer in practice:
         topological order converges combinational logic in one) *)
      let changed = ref true in
      while !changed do
        changed := sweep ()
      done;
      t
    end
end

(* Brute-force ground truth: which outputs functionally depend on key
   bit [bit]? Exhaustive over every input vector (packed word-parallel
   into Simw lanes) and every assignment of the other key bits. *)
let dependent_outputs nl ~bit =
  let n_in = List.length (N.inputs nl) in
  let nk = List.length (N.keys nl) in
  let n_out = List.length (N.outputs nl) in
  let lanes = 1 lsl n_in in
  assert (lanes <= Simw.width);
  let simw = Simw.create nl in
  let in_words =
    Array.init n_in (fun i ->
        let w = ref 0 in
        for l = 0 to lanes - 1 do
          if (l lsr i) land 1 = 1 then w := !w lor (1 lsl l)
        done;
        !w)
  in
  let dep = Array.make n_out false in
  for others = 0 to (1 lsl nk) - 1 do
    if (others lsr bit) land 1 = 0 then begin
      let keys0 = Array.init nk (fun j -> (others lsr j) land 1 = 1) in
      let keys1 = Array.copy keys0 in
      keys1.(bit) <- true;
      let o0 = Simw.eval_comb simw ~keys:keys0 ~lanes in_words in
      let o1 = Simw.eval_comb simw ~keys:keys1 ~lanes in_words in
      for oi = 0 to n_out - 1 do
        if o0.(oi) <> o1.(oi) then dep.(oi) <- true
      done
    end
  done;
  dep

(* Soundness direction of both analyses, against the ground truth: a
   key bit the ODC pass marks unobservable must not affect any output,
   and an output whose taint set misses a bit must not depend on it. *)
let check_agreement nl =
  let name = N.name nl in
  let values = Dataflow.const_values nl in
  let odc = Odc.analyze ~values nl in
  let taint = Taint.analyze ~values nl in
  let outs = Array.of_list (N.outputs nl) in
  List.iteri
    (fun b (knm, knet) ->
      let dep = dependent_outputs nl ~bit:b in
      if not odc.Odc.observable.(knet) then
        Array.iteri
          (fun oi (onm, _) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: unobservable %s cannot reach %s" name knm
                 onm)
              false dep.(oi))
          outs;
      Array.iteri
        (fun oi (onm, onet) ->
          if not (Taint.tainted taint ~net:onet ~bit:b) then
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s untainted by %s must not depend on it"
                 name onm knm)
              false dep.(oi))
        outs)
    (N.keys nl)

let test_odc_taint_vs_simw () =
  (* same-arm mux: select masked *)
  let m1 = N.create "agr_mux_same" in
  let k = N.add_key m1 "k" in
  let a = N.add_input m1 "a" in
  N.add_output m1 "y" (N.mux2 m1 ~sel:k ~a ~b:a);
  (* mux4 with all arms equal: both selects masked *)
  let m2 = N.create "agr_mux4_same" in
  let k0 = N.add_key m2 "k0" in
  let k1 = N.add_key m2 "k1" in
  let a = N.add_input m2 "a" in
  N.add_output m2 "y" (N.mux4 m2 ~s0:k0 ~s1:k1 [| a; a; a; a |]);
  (* pinned select: the key rides the dead arm *)
  let m3 = N.create "agr_sel_pinned" in
  let k = N.add_key m3 "k" in
  let a = N.add_input m3 "a" in
  N.add_output m3 "y" (N.mux2 m3 ~sel:(N.const m3 true) ~a:k ~b:a);
  (* x xor x: both reads masked, output silently constant *)
  let m4 = N.create "agr_xor_same" in
  let k = N.add_key m4 "k" in
  let a = N.add_input m4 "a" in
  N.add_output m4 "y" (N.xor_ m4 k k);
  N.add_output m4 "z" a;
  (* controlling constant: AND with 0 blocks the key *)
  let m5 = N.create "agr_and_zero" in
  let k = N.add_key m5 "k" in
  let a = N.add_input m5 "a" in
  N.add_output m5 "y" (N.or_ m5 (N.and_ m5 k (N.const m5 false)) a);
  (* the attack-side gadget fixture: k0/k1 genuinely live on y/s0/s1
     but s0 is untainted by k1 and s1 by k0 *)
  let m6 = N.create "agr_gadget" in
  let a = N.add_input m6 "a" in
  let b = N.add_input m6 "b" in
  let c = N.add_input m6 "c" in
  let k0 = N.add_key m6 "k0" in
  let k1 = N.add_key m6 "k1" in
  let t = N.xor_ m6 (N.and_ m6 a b) c in
  N.add_output m6 "y" (N.xor_ m6 (N.xnor_ m6 t k0) k1);
  N.add_output m6 "s0" (N.and_ m6 a k0);
  N.add_output m6 "s1" (N.or_ m6 b k1);
  List.iter check_agreement [ m1; m2; m3; m4; m5; m6 ];
  (* and the converse sanity on the gadget: the live pairs really are
     tainted and observable *)
  let values = Dataflow.const_values m6 in
  let taint = Taint.analyze ~values m6 in
  let odc = Odc.analyze ~values m6 in
  let y_net = List.assoc "y" (N.outputs m6) in
  Alcotest.(check bool) "gadget y tainted by k0" true
    (Taint.tainted taint ~net:y_net ~bit:0);
  Alcotest.(check bool) "gadget y tainted by k1" true
    (Taint.tainted taint ~net:y_net ~bit:1);
  List.iter
    (fun (_, knet) ->
      Alcotest.(check bool) "gadget keys observable" true
        odc.Odc.observable.(knet))
    (N.keys m6)

(* ---------------- golden flow lint + ODC ---------------- *)

module Jobs = Shell_serve.Jobs

(* Flow.run with each bundled design's SheLL TfR at the default seed,
   recorded before the dataflow rewrite: MD5 of the flow's lint report
   JSON, and the ODC result on the linted (locked) netlist as
   (masked_reads, const_cuts, MD5 of observable as a 0/1 string) *)
let golden_flow_lint =
  [
    (("PicoSoC", "openfpga"), "900045c107ec9dfd844bf68f89813cc8", (0, 139, "8be2750c5acfaa647748bd5868fdaa84"));
    (("PicoSoC", "fabulous"), "462494d403eabf2327be037e590dbc0a", (0, 139, "487c1509ebd04f875dc8b583d3b13087"));
    (("PicoSoC", "muxchain"), "462494d403eabf2327be037e590dbc0a", (0, 139, "d5feb679ccf969ed6807eca7116b231f"));
    (("AES", "openfpga"), "538e19ff089bb874c5c29d83e81e08a0", (0, 5182, "e36a4b416d3271b668cedf898a745598"));
    (("AES", "fabulous"), "db072cb6d78e21b8458d3a150fbfa7c7", (0, 5182, "98b9581f6387b21ce2ccb0da706c2462"));
    (("AES", "muxchain"), "db072cb6d78e21b8458d3a150fbfa7c7", (0, 5182, "16cf58f34feaefff5924bc05fd2fc348"));
    (("FIR", "openfpga"), "bd43dc5bce4634a0787507573fbcd9f9", (1128, 4120, "3f16d7efe30899ddbd0a29b6d2f33936"));
    (("FIR", "fabulous"), "c63e4f0c448f8f275196910dd6690545", (1128, 4120, "2344356191b71c2f206fb1854dc3997e"));
    (("FIR", "muxchain"), "c63e4f0c448f8f275196910dd6690545", (1128, 4120, "2344356191b71c2f206fb1854dc3997e"));
    (("SPMV", "openfpga"), "3c9037c3fdc7a660a4f10c4d9783a255", (0, 1931, "fb8d6c530f688d48d7c371b2e430180a"));
    (("SPMV", "fabulous"), "2471651939065b0da5f68d26200eab78", (0, 1931, "6ecb1f4122e59f516e7fa6d43fa04dab"));
    (("SPMV", "muxchain"), "2471651939065b0da5f68d26200eab78", (0, 1931, "d0c11692274aa3f2b044c423b4ade783"));
    (("DLA", "openfpga"), "6279284ea373a03ea86e592418023967", (0, 2678, "a9388b55d73080b55f4aa3a36029d97a"));
    (("DLA", "fabulous"), "eaee2a260a5b616a503c18b9c17711aa", (0, 2678, "0f6e942ca12422aecf2b1d9eb06bb477"));
    (("DLA", "muxchain"), "eaee2a260a5b616a503c18b9c17711aa", (0, 2678, "c92450f7d045df000316a9665503111a"));
    (("SoC", "openfpga"), "962c44b58e9cbfb4e312407b63546aad", (0, 23, "a7544d1dab365c46426a38157160c719"));
    (("SoC", "fabulous"), "5692572091c9a594e1042211bc8ef5e4", (0, 23, "fb0eb64190c1f4e7c1390d87ad5a8d66"));
    (("SoC", "muxchain"), "5692572091c9a594e1042211bc8ef5e4", (0, 23, "acf3c535eac6c0deaa269f24fed15f69"));
    (("Xbar", "openfpga"), "2864206b16149f155512a179b08cca30", (0, 193, "0d09bff6f35d293d9d0a2a08a03a711d"));
    (("Xbar", "fabulous"), "b457a3c71a6dfc056ffaf2e6e7e7e37a", (0, 193, "b764976e293598b87c1cb39c42c96cf7"));
    (("Xbar", "muxchain"), "b457a3c71a6dfc056ffaf2e6e7e7e37a", (0, 193, "f36ffb451a23f2c5768e0356c02bd121"));
  ]

let md5 s = Digest.to_hex (Digest.string s)

let flow_lock bench style =
  let nl = match Jobs.netlist_of_bench bench with Ok n -> n | Error _ -> assert false in
  let route, lgc, label = Option.get (Jobs.default_tfr bench) in
  let style = match Jobs.style_of_string style with Ok s -> s | Error _ -> assert false in
  C.Flow.run
    { (C.Flow.shell_config ~target:(C.Flow.Fixed { route; lgc; label }) ()) with C.Flow.style }
    nl

let bits_string a = String.init (Array.length a) (fun i -> if a.(i) then '1' else '0')

(* the 21 flow locks, shared by the golden and property tests *)
let flow_locks =
  lazy
    (List.map
       (fun ((bench, style), _, _) -> (bench ^ "/" ^ style, flow_lock bench style))
       golden_flow_lint)

let test_golden_flow_lint () =
  List.iter2
    (fun (_, want_lint, (want_masked, want_cuts, want_obs)) (what, r) ->
      Alcotest.(check string) (what ^ " lint json") want_lint
        (md5 (Jsonw.to_string (Lint.report_json r.C.Flow.lint)));
      let locked = r.C.Flow.locked_full in
      let o = Odc.analyze ~values:(Dataflow.const_values locked) locked in
      Alcotest.(check (triple int int string)) (what ^ " odc")
        (want_masked, want_cuts, want_obs)
        (o.Odc.masked_reads, o.Odc.const_cuts, md5 (bits_string o.Odc.observable)))
    golden_flow_lint (Lazy.force flow_locks)

(* ---------------- dataflow properties ---------------- *)

(* combinational loop through a mux, an AND and a LUT; the key enters
   the loop, and a constant pins one LUT input *)
let cyclic_fixture () =
  let nl = N.create "cyclic" in
  let a = N.add_input nl "a" in
  let k0 = N.add_key nl "k0" in
  let k1 = N.add_key nl "k1" in
  let q = N.new_net nl in
  let m = N.mux2 nl ~sel:k0 ~a ~b:q in
  let g = N.and_ nl m k1 in
  let one = N.const nl true in
  N.add_cell nl
    (Cell.make (Cell.Lut (Truthtab.of_fun ~arity:2 (fun v -> v.(0) && v.(1))))
       [| g; one |] q);
  N.add_output nl "y" q;
  nl

(* net [x] is driven twice: by NOT(a), then by BUF(k). Both drivers
   carry observability back from the output, not only the last one *)
let multi_driven_fixture () =
  let nl = N.create "multi" in
  let a = N.add_input nl "a" in
  let k = N.add_key nl "k" in
  let b = N.add_input nl "b" in
  let x = N.not_ nl a in
  N.add_cell nl (Cell.make Cell.Buf [| k |] x);
  N.add_output nl "y" (N.and_ nl x b);
  nl

(* Random netlists with combinational cycles (nets read before they
   are driven), multi-driven nets, constants, keys, LUTs and flops. *)
let random_netlist seed =
  let st = Random.State.make [| seed |] in
  let int = Random.State.int st in
  let nl = N.create (Printf.sprintf "rand%d" seed) in
  let nets = ref [] in
  let add net = nets := net :: !nets in
  for i = 0 to int 3 do
    add (N.add_input nl (Printf.sprintf "i%d" i))
  done;
  for i = 0 to int 4 - 1 do
    add (N.add_key nl (Printf.sprintf "k%d" i))
  done;
  add (N.const nl false);
  add (N.const nl true);
  let forward = List.init (int 3) (fun _ -> N.new_net nl) in
  List.iter add forward;
  let pick () = List.nth !nets (int (List.length !nets)) in
  let random_cell out =
    let kind =
      match int 12 with
      | 0 -> Cell.And
      | 1 -> Cell.Or
      | 2 -> Cell.Nand
      | 3 -> Cell.Nor
      | 4 -> Cell.Xor
      | 5 -> Cell.Xnor
      | 6 -> Cell.Not
      | 7 -> Cell.Buf
      | 8 -> Cell.Mux2
      | 9 -> Cell.Mux4
      | 10 ->
          let arity = 1 + int 4 in
          let bits = Random.State.bits st in
          Cell.Lut
            (Truthtab.of_fun ~arity (fun v ->
                 let row = ref 0 in
                 Array.iteri (fun i b -> if b then row := !row lor (1 lsl i)) v;
                 (bits lsr !row) land 1 = 1))
      | _ -> Cell.Dff
    in
    N.add_cell nl (Cell.make kind (Array.init (Cell.arity kind) (fun _ -> pick ())) out)
  in
  for _ = 1 to 6 + int 18 do
    let out = if int 8 = 0 then pick () else N.new_net nl in
    random_cell out;
    add out
  done;
  List.iter random_cell forward;
  for o = 0 to int 3 do
    N.add_output nl (Printf.sprintf "o%d" o) (pick ())
  done;
  nl

(* the corpus: the 21 flow locks, the two fixtures, 200 random netlists *)
let dataflow_corpus () =
  List.map (fun (_, r) -> r.C.Flow.locked_full) (Lazy.force flow_locks)
  @ [ cyclic_fixture (); multi_driven_fixture () ]
  @ List.init 200 random_netlist

(* the ODC specification: sweep every cell until nothing changes *)
let reference_odc values nl =
  let n = N.num_nets nl in
  let obs = Array.make (max n 1) false in
  let mark net =
    net >= 0 && net < n
    && (not obs.(net))
    && Dataflow.known values.(net) = None
    && (obs.(net) <- true; true)
  in
  Array.iter (fun net -> ignore (mark net)) (N.output_nets nl);
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (c : Cell.t) ->
        if obs.(c.Cell.out) then
          Array.iteri
            (fun i net ->
              if (not (Odc.input_masked values c i)) && mark net then
                changed := true)
            c.Cell.ins)
      (N.cells nl)
  done;
  let masked = ref 0 in
  Array.iter
    (fun (c : Cell.t) ->
      if obs.(c.Cell.out) then
        Array.iteri
          (fun i _ -> if Odc.input_masked values c i then incr masked)
          c.Cell.ins)
    (N.cells nl);
  (obs, !masked)

let test_read_masks_agree () =
  List.iter
    (fun nl ->
      let values = Dataflow.const_values nl in
      let m = Odc.read_masks values nl in
      Array.iteri
        (fun ci (c : Cell.t) ->
          Array.iteri
            (fun i _ ->
              if Odc.masked m ~cell:ci i <> Odc.input_masked values c i then
                Alcotest.failf "%s: cell %d input %d mask differs" (N.name nl)
                  ci i)
            c.Cell.ins)
        (N.cells nl))
    (dataflow_corpus ())

let test_odc_fixpoint () =
  List.iter
    (fun nl ->
      let values = Dataflow.const_values nl in
      let o = Odc.analyze ~values nl in
      let obs, masked = reference_odc values nl in
      Alcotest.(check string) (N.name nl ^ " observable") (bits_string obs)
        (bits_string o.Odc.observable);
      Alcotest.(check int) (N.name nl ^ " masked_reads") masked o.Odc.masked_reads)
    (dataflow_corpus ());
  (* the fixtures, by hand *)
  let observable nl name =
    let net =
      List.assoc name (N.inputs nl @ N.keys nl)
    in
    (Odc.analyze nl).Odc.observable.(net)
  in
  let multi = multi_driven_fixture () in
  Alcotest.(check (list bool)) "both drivers of a multi-driven net"
    [ true; true; true ]
    (List.map (observable multi) [ "a"; "k"; "b" ]);
  let cyc = cyclic_fixture () in
  Alcotest.(check (list bool)) "cyclic fixture" [ true; true; true ]
    (List.map (observable cyc) [ "a"; "k0"; "k1" ])

let test_key_reach_projection () =
  List.iter
    (fun nl ->
      let values = Dataflow.const_values nl in
      let t = Taint.analyze ~values nl in
      let reached = Taint.reached ~values nl in
      for net = 0 to N.num_nets nl - 1 do
        if reached.(net) = Taint.is_empty t net then
          Alcotest.failf "%s: net %d reached=%b but taint %s" (N.name nl) net
            reached.(net)
            (String.concat "," (List.map string_of_int (Taint.net_taint t net)))
      done)
    (dataflow_corpus ())

(* ---------------- engine ---------------- *)

(* a fixture that trips rules of all three severities *)
let noisy () =
  let nl = N.create "noisy" in
  let _k = N.add_key nl "kb0" in
  let a = N.add_input nl "a" in
  let b = N.add_input nl "b" in
  let _dead = N.not_ nl a in
  N.add_output nl "y" (N.lut nl (Truthtab.var 0 ~arity:2) [| a; b |]);
  let q = N.new_net nl in
  N.add_cell nl (Cell.make Cell.And [| a; q |] q);
  N.add_output nl "z" q;
  nl

let test_severity_floor () =
  let subj = Lint.subject (noisy ()) in
  let all = Lint.run ~rules:Rules.all subj in
  Alcotest.(check bool) "has errors" true (all.Lint.errors > 0);
  Alcotest.(check bool) "has warns" true (all.Lint.warns > 0);
  Alcotest.(check bool) "has infos" true (all.Lint.infos > 0);
  let errs_only = Lint.run ~severity:Lint.Error ~rules:Rules.all subj in
  Alcotest.(check int) "same errors" all.Lint.errors errs_only.Lint.errors;
  Alcotest.(check int) "warns filtered" 0 errs_only.Lint.warns;
  Alcotest.(check int) "infos filtered" 0 errs_only.Lint.infos;
  List.iter
    (fun (f : Lint.finding) ->
      Alcotest.(check string)
        "only errors remain" "error"
        (Lint.severity_name f.Lint.severity))
    errs_only.Lint.findings

let test_baseline_suppression () =
  let subj = Lint.subject (noisy ()) in
  let r = Lint.run ~rules:Rules.all subj in
  Alcotest.(check bool) "not ok before" false (Lint.ok r);
  let fps =
    List.map
      (Lint.fingerprint ~subject_name:r.Lint.subject_name)
      r.Lint.findings
  in
  let suppressed = Lint.run ~baseline:fps ~rules:Rules.all subj in
  Alcotest.(check int) "all suppressed"
    (List.length r.Lint.findings)
    suppressed.Lint.suppressed;
  Alcotest.(check (list string)) "no findings left" []
    (List.map (fun (f : Lint.finding) -> f.Lint.where) suppressed.Lint.findings);
  Alcotest.(check bool) "ok after" true (Lint.ok suppressed);
  (* fingerprints survive a baseline-file round-trip *)
  let file =
    String.concat "\n"
      ("# comment" :: List.map (Lint.baseline_line ~subject_name:r.Lint.subject_name)
          r.Lint.findings)
  in
  Alcotest.(check (list string)) "parse round-trip" fps (Lint.parse_baseline file)

let test_jobs_independent () =
  (* a key-bearing fixture so the security-pack rules (incl. the
     dataflow-engine trio) contribute findings to the diffed JSON *)
  let keyed () =
    let nl = N.create "keyed" in
    let k0 = N.add_key nl "k0" in
    let k1 = N.add_key nl "k1" in
    let a = N.add_input nl "a" in
    N.add_output nl "y" (N.mux2 nl ~sel:k0 ~a ~b:a);
    N.add_output nl "z" (N.and_ nl k1 a);
    nl
  in
  let json jobs =
    let rs =
      List.map
        (fun nl -> Lint.run ~jobs ~rules:Rules.all (Lint.subject nl))
        [ noisy (); keyed () ]
    in
    Jsonw.to_string ~indent:2 (Lint.reports_json rs)
  in
  let j1 = json 1 in
  Alcotest.(check string) "json byte-identical jobs 1 vs 4" j1 (json 4);
  List.iter
    (fun rule ->
      let needle = Printf.sprintf "\"rule\": %S" rule in
      let found =
        let ln = String.length needle and lj = String.length j1 in
        let rec go i = i + ln <= lj && (String.sub j1 i ln = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) (rule ^ " present in diffed JSON") true found)
    [ "key-odc-dead"; "key-taint-collapse"; "scope-leak" ]

let test_locked_flow_clean () =
  let r = Lazy.force fir_result in
  let rep = r.C.Flow.lint in
  if rep.Lint.errors <> 0 then
    List.iter
      (fun (f : Lint.finding) ->
        Format.eprintf "%a@." (Lint.pp_finding ~subject_name:rep.Lint.subject_name) f)
      rep.Lint.findings;
  Alcotest.(check int) "locked pipeline result lints clean" 0 rep.Lint.errors

let suite =
  [
    Alcotest.test_case "port-invalid" `Quick test_port_invalid;
    Alcotest.test_case "net-multi-driven" `Quick test_net_multi_driven;
    Alcotest.test_case "net-undriven" `Quick test_net_undriven;
    Alcotest.test_case "comb-cycle" `Quick test_comb_cycle;
    Alcotest.test_case "cell-dead" `Quick test_cell_dead;
    Alcotest.test_case "output-constant" `Quick test_output_constant;
    Alcotest.test_case "lut-degenerate" `Quick test_lut_degenerate;
    Alcotest.test_case "key-dead" `Quick test_key_dead;
    Alcotest.test_case "key-blocked" `Quick test_key_blocked;
    Alcotest.test_case "key-odc-dead" `Quick test_key_odc_dead;
    Alcotest.test_case "key-taint-collapse" `Quick test_key_taint_collapse;
    Alcotest.test_case "scope-leak" `Quick test_scope_leak;
    Alcotest.test_case "odc+taint vs Simw brute force" `Quick
      test_odc_taint_vs_simw;
    Alcotest.test_case "golden flow lint and odc" `Quick test_golden_flow_lint;
    Alcotest.test_case "read masks agree with input_masked" `Quick
      test_read_masks_agree;
    Alcotest.test_case "worklist odc is the sweep fixpoint" `Quick
      test_odc_fixpoint;
    Alcotest.test_case "key reach is the taint union" `Quick
      test_key_reach_projection;
    Alcotest.test_case "mux-chain-cycle" `Quick test_mux_chain_cycle;
    Alcotest.test_case "lgc-depth" `Quick test_lgc_depth;
    Alcotest.test_case "ref-mismatch" `Quick test_ref_mismatch;
    Alcotest.test_case "config-dangling" `Quick test_config_dangling;
    Alcotest.test_case "bitstream-accounting" `Quick test_bitstream_accounting;
    Alcotest.test_case "fabric-unused" `Quick test_fabric_unused;
    Alcotest.test_case "severity floor" `Quick test_severity_floor;
    Alcotest.test_case "baseline suppression" `Quick test_baseline_suppression;
    Alcotest.test_case "jobs-independent JSON" `Quick test_jobs_independent;
    Alcotest.test_case "locked flow lints clean" `Quick test_locked_flow_clean;
  ]
