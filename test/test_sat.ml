(* Tests for the CDCL solver: hand instances, DIMACS, assumptions,
   incrementality, budgets, and a brute-force differential fuzz. *)

module Solver = Shell_sat.Solver
module Dimacs = Shell_sat.Dimacs
module Rng = Shell_util.Rng

let solve_result =
  Alcotest.testable
    (fun ppf -> function
      | Solver.Sat -> Format.pp_print_string ppf "Sat"
      | Solver.Unsat -> Format.pp_print_string ppf "Unsat"
      | Solver.Unknown -> Format.pp_print_string ppf "Unknown")
    ( = )

let test_trivial_sat () =
  let s = Solver.create () in
  Solver.ensure_vars s 2;
  Solver.add_clause s [ 1; 2 ];
  Solver.add_clause s [ -1; 2 ];
  Alcotest.check solve_result "sat" Solver.Sat (Solver.solve s);
  Alcotest.(check bool) "v2 true" true (Solver.value s 2)

let test_trivial_unsat () =
  let s = Solver.create () in
  Solver.ensure_vars s 1;
  Solver.add_clause s [ 1 ];
  Solver.add_clause s [ -1 ];
  Alcotest.check solve_result "unsat" Solver.Unsat (Solver.solve s)

let test_empty_clause_unsat () =
  let s = Solver.create () in
  Solver.ensure_vars s 1;
  Solver.add_clause s [ 1; -1 ];  (* tautology: fine *)
  Alcotest.check solve_result "taut sat" Solver.Sat (Solver.solve s);
  Solver.add_clause s [];
  Alcotest.check solve_result "empty clause" Solver.Unsat (Solver.solve s)

(* 3 pigeons, 2 holes: classic small UNSAT. var p_ij = 2*(i-1)+j; var 7
   is free, for assumptions *)
let pigeonhole_3_2 () =
  let s = Solver.create () in
  Solver.ensure_vars s 7;
  for i = 0 to 2 do
    Solver.add_clause s [ (2 * i) + 1; (2 * i) + 2 ]
  done;
  for j = 1 to 2 do
    for i1 = 0 to 2 do
      for i2 = i1 + 1 to 2 do
        Solver.add_clause s [ -((2 * i1) + j); -((2 * i2) + j) ]
      done
    done
  done;
  s

let test_pigeonhole_3_2 () =
  Alcotest.check solve_result "php(3,2) unsat" Solver.Unsat (Solver.solve (pigeonhole_3_2 ()))

let test_assumptions () =
  let s = Solver.create () in
  Solver.ensure_vars s 3;
  Solver.add_clause s [ 1; 2 ];
  Solver.add_clause s [ -1; 3 ];
  Alcotest.check solve_result "assume -2" Solver.Sat
    (Solver.solve ~assumptions:[ -2 ] s);
  Alcotest.(check bool) "forces v1" true (Solver.value s 1);
  Alcotest.(check bool) "forces v3" true (Solver.value s 3);
  Alcotest.check solve_result "conflicting assumptions" Solver.Unsat
    (Solver.solve ~assumptions:[ -1; -2 ] s);
  (* assumptions are not permanent *)
  Alcotest.check solve_result "still sat" Solver.Sat (Solver.solve s)

let test_incremental () =
  let s = Solver.create () in
  Solver.ensure_vars s 4;
  Solver.add_clause s [ 1; 2; 3; 4 ];
  Alcotest.check solve_result "sat" Solver.Sat (Solver.solve s);
  Solver.add_clause s [ -1 ];
  Solver.add_clause s [ -2 ];
  Solver.add_clause s [ -3 ];
  Alcotest.check solve_result "narrowed" Solver.Sat (Solver.solve s);
  Alcotest.(check bool) "v4 forced" true (Solver.value s 4);
  Solver.add_clause s [ -4 ];
  Alcotest.check solve_result "now unsat" Solver.Unsat (Solver.solve s)

let test_budget_unknown () =
  (* hard random instance at the phase transition with a 1-conflict
     budget is (almost surely) cut short *)
  let rng = Rng.create 77 in
  let s = Solver.create () in
  let nv = 60 in
  Solver.ensure_vars s nv;
  for _ = 1 to int_of_float (4.26 *. float_of_int nv) do
    let lit () =
      let v = 1 + Rng.int rng nv in
      if Rng.bool rng then v else -v
    in
    Solver.add_clause s [ lit (); lit (); lit () ]
  done;
  match Solver.solve ~max_conflicts:1 s with
  | Solver.Unknown | Solver.Sat | Solver.Unsat -> ()
(* any verdict is legal; the call must terminate fast — implicitly
   checked by the test timeout *)

let parse_ok src =
  match Dimacs.parse src with
  | Ok p -> p
  | Error e -> Alcotest.fail (Dimacs.error_to_string e)

let test_dimacs_roundtrip () =
  let src = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n" in
  let p = parse_ok src in
  Alcotest.(check int) "vars" 3 p.Dimacs.nvars;
  Alcotest.(check int) "clauses" 2 (List.length p.Dimacs.clauses);
  let p2 = parse_ok (Dimacs.print p) in
  Alcotest.(check bool) "roundtrip" true (p.Dimacs.clauses = p2.Dimacs.clauses)

let test_dimacs_solve () =
  let solve src =
    match Dimacs.solve_string src with
    | Ok r -> r
    | Error e -> Alcotest.fail (Dimacs.error_to_string e)
  in
  Alcotest.check solve_result "sat instance" Solver.Sat (solve "p cnf 2 2\n1 2 0\n-1 2 0\n");
  Alcotest.check solve_result "unsat instance" Solver.Unsat (solve "p cnf 1 2\n1 0\n-1 0\n")

(* every malformed input is a typed error naming its line and token *)
let test_dimacs_errors () =
  let reason =
    Alcotest.testable
      (fun ppf r ->
        Format.pp_print_string ppf
          (match r with
          | Dimacs.Bad_header -> "Bad_header"
          | Dimacs.Bad_literal -> "Bad_literal"
          | Dimacs.Missing_header -> "Missing_header"))
      ( = )
  in
  List.iter
    (fun (src, (want_reason, want_line, want_token)) ->
      match Dimacs.parse src with
      | Ok _ -> Alcotest.fail ("accepted: " ^ src)
      | Error e ->
          Alcotest.check reason (src ^ " reason") want_reason e.Dimacs.reason;
          Alcotest.(check int) (src ^ " line") want_line e.Dimacs.line;
          Alcotest.(check string) (src ^ " token") want_token e.Dimacs.token)
    [
      ("1 2 0\n", (Dimacs.Missing_header, 1, "1"));
      ("c no header\n\n-3 1 0\n", (Dimacs.Missing_header, 3, "-3"));
      ("c nothing at all", (Dimacs.Missing_header, 1, ""));
      ("p cnf x 1\n1 0\n", (Dimacs.Bad_header, 1, "x"));
      ("c comment\np dnf 2 1\n1 0\n", (Dimacs.Bad_header, 2, "p dnf 2 1"));
      ("p cnf 3 2\n1 -2 0\n2 y3 0\n", (Dimacs.Bad_literal, 3, "y3"));
    ];
  match Dimacs.solve_string "p cnf 2 1\n1 - 0\n" with
  | Error { Dimacs.reason = Dimacs.Bad_literal; line = 2; token = "-" } -> ()
  | _ -> Alcotest.fail "solve_string: bad literal not reported"

(* differential fuzz against brute force *)
let brute nvars clauses =
  let rec go v assign =
    if v > nvars then
      List.for_all
        (fun c ->
          List.exists
            (fun l -> if l > 0 then assign.(l) else not assign.(-l))
            c)
        clauses
    else begin
      assign.(v) <- false;
      go (v + 1) assign
      ||
      (assign.(v) <- true;
       go (v + 1) assign)
    end
  in
  go 1 (Array.make (nvars + 1) false)

let test_fuzz_vs_brute =
  QCheck.Test.make ~name:"cdcl agrees with brute force" ~count:300
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let nvars = 3 + Rng.int rng 10 in
      let nclauses = 2 + Rng.int rng (4 * nvars) in
      let clauses =
        List.init nclauses (fun _ ->
            let len = 1 + Rng.int rng 3 in
            List.init len (fun _ ->
                let v = 1 + Rng.int rng nvars in
                if Rng.bool rng then v else -v))
      in
      let expected = brute nvars clauses in
      let s = Solver.create () in
      Solver.ensure_vars s nvars;
      List.iter (Solver.add_clause s) clauses;
      match (Solver.solve s, expected) with
      | Solver.Sat, true ->
          (* the model must actually satisfy every clause *)
          List.for_all
            (fun c ->
              List.exists
                (fun l ->
                  let v = Solver.value s (abs l) in
                  if l > 0 then v else not v)
                c)
            clauses
      | Solver.Unsat, false -> true
      | _ -> false)

(* A conflict at decision level 0 proves the clauses unsat for good:
   later calls on the same solver must not forget it. *)
let test_level0_conflict_sticks () =
  let s = pigeonhole_3_2 () in
  Alcotest.check solve_result "first solve" Solver.Unsat (Solver.solve s);
  Alcotest.check solve_result "second solve" Solver.Unsat (Solver.solve s);
  let s = pigeonhole_3_2 () in
  List.iter
    (fun (what, assumptions) ->
      Alcotest.check solve_result what Solver.Unsat (Solver.solve ~assumptions s))
    [ ("under 7", [ 7 ]); ("under -7", [ -7 ]); ("no assumptions", []) ]

(* Incremental use against brute force: one solver sees a sequence of
   calls with random assumptions and clauses added in between (no unit
   clauses, so unsatisfiability shows up as learnt units and level-0
   conflicts inside the search rather than in [add_clause]); every
   verdict must match brute force on the clauses so far plus the
   assumptions as units, and every model must satisfy both. *)
let test_incremental_vs_brute =
  QCheck.Test.make ~name:"incremental cdcl agrees with brute force" ~count:200
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let nvars = 3 + Rng.int rng 8 in
      let random_clause () =
        List.init (2 + Rng.int rng 2) (fun _ ->
            let v = 1 + Rng.int rng nvars in
            if Rng.bool rng then v else -v)
      in
      let clauses = ref (List.init (2 + Rng.int rng (3 * nvars)) (fun _ -> random_clause ())) in
      let s = Solver.create ~seed:(Rng.int rng 3) () in
      Solver.ensure_vars s nvars;
      List.iter (Solver.add_clause s) !clauses;
      List.for_all
        (fun _ ->
          for _ = 1 to Rng.int rng 3 do
            let c = random_clause () in
            clauses := c :: !clauses;
            Solver.add_clause s c
          done;
          let assumptions =
            List.init (Rng.int rng 4) (fun _ ->
                let v = 1 + Rng.int rng nvars in
                if Rng.bool rng then v else -v)
          in
          let units = List.map (fun l -> [ l ]) assumptions in
          let expected = brute nvars (units @ !clauses) in
          match (Solver.solve ~assumptions s, expected) with
          | Solver.Sat, true ->
              let holds l = Solver.value s (abs l) = (l > 0) in
              List.for_all (List.exists holds) !clauses && List.for_all holds assumptions
          | Solver.Unsat, false -> true
          | _ -> false)
        (List.init 10 Fun.id))

let test_conflicts_counter () =
  let s = Solver.create () in
  Solver.ensure_vars s 8;
  (* xor-ish chain to force conflicts *)
  for v = 1 to 7 do
    Solver.add_clause s [ v; v + 1 ];
    Solver.add_clause s [ -v; -(v + 1) ]
  done;
  ignore (Solver.solve s);
  Alcotest.(check bool) "conflicts non-negative" true (Solver.num_conflicts s >= 0)

(* Golden search trajectories. The solver's search is fixed by its
   decisions: clause literal order, watch-list order, heap ties, VSIDS
   bump order, phase saving and the restart schedule. Any of those
   moving shows up here as a changed decision, propagation or conflict
   count, or a different model. Each step is
   [result decisions propagations conflicts restarts model-md5]. A
   sequence stops at the first [Unsat] whose clause set is itself
   unsatisfiable (checked on a fresh solver), so the trajectories do
   not depend on what a solver does after proving its clauses unsat. *)
let random_clause rng nvars =
  List.init 3 (fun _ ->
      let v = 1 + Rng.int rng nvars in
      if Rng.bool rng then v else -v)

let model_md5 s =
  String.init (Solver.num_vars s) (fun i -> if Solver.value s (i + 1) then '1' else '0')
  |> Digest.string |> Digest.to_hex

let trajectory ~phase_seed instance =
  let rng = Rng.create (1000 + instance) in
  let nvars = 110 in
  let clauses = ref (List.init (420 + (3 * instance)) (fun _ -> random_clause rng nvars)) in
  let s = Solver.create ~seed:phase_seed () in
  Solver.ensure_vars s nvars;
  List.iter (Solver.add_clause s) !clauses;
  let clause_set_unsat () =
    let fresh = Solver.create () in
    Solver.ensure_vars fresh nvars;
    List.iter (Solver.add_clause fresh) !clauses;
    Solver.solve fresh = Solver.Unsat
  in
  let rec steps k acc =
    if k = 10 then List.rev acc
    else begin
      let assumptions =
        List.init (Rng.int rng 4) (fun _ ->
            let v = 1 + Rng.int rng nvars in
            if Rng.bool rng then v else -v)
      in
      let r = Solver.solve ~assumptions ~max_conflicts:150 s in
      let st = Solver.stats s in
      let tag, md5 =
        match r with
        | Solver.Sat ->
            let holds l = Solver.value s (abs l) = (l > 0) in
            if List.for_all (List.exists holds) !clauses && List.for_all holds assumptions
            then ("S", model_md5 s)
            else ("bad-model", "-")
        | Solver.Unsat -> ("U", "-")
        | Solver.Unknown -> ("?", "-")
      in
      let step =
        Printf.sprintf "%s %d %d %d %d %s" tag st.Solver.decisions
          st.Solver.propagations st.Solver.conflicts st.Solver.restarts md5
      in
      if r = Solver.Unsat && (assumptions = [] || clause_set_unsat ()) then
        List.rev (step :: acc)
      else begin
        if Rng.bool rng then begin
          let c = random_clause rng nvars in
          clauses := c :: !clauses;
          Solver.add_clause s c
        end;
        steps (k + 1) (step :: acc)
      end
    end
  in
  steps 0 []

let golden_trajectories =
  [
    [
      "S 38 445 11 0 549e6cfdcdc55cab763c48f8e21ebca7";
      "S 72 552 12 0 193657e4902addff61a9056909dcdbe3";
      "S 100 632 12 0 ba1b9eac0cfb576b2f42d0f4ee5dcafd";
      "S 130 710 12 0 ba1b9eac0cfb576b2f42d0f4ee5dcafd";
      "S 159 791 12 0 ba1b9eac0cfb576b2f42d0f4ee5dcafd";
      "S 188 871 12 0 ba1b9eac0cfb576b2f42d0f4ee5dcafd";
      "S 212 955 12 0 414b7f0f15fa5d4f804ac2893342fca6";
      "S 242 1513 24 0 bec5c83da3322e5123b1cea78c78eedc";
      "S 272 1661 27 0 2c8037dacd17ad9809c2788e6ad90931";
      "S 301 1741 27 0 2c8037dacd17ad9809c2788e6ad90931";
    ];
    [
      "S 189 3614 121 1 fd83db47573ce43881bc6c40d8c480e8";
      "S 204 3708 121 1 fd83db47573ce43881bc6c40d8c480e8";
      "S 218 3801 121 1 fd83db47573ce43881bc6c40d8c480e8";
      "S 234 3895 121 1 fd83db47573ce43881bc6c40d8c480e8";
      "S 250 3989 121 1 fd83db47573ce43881bc6c40d8c480e8";
      "S 266 4082 121 1 fd83db47573ce43881bc6c40d8c480e8";
      "S 282 4176 121 1 fd83db47573ce43881bc6c40d8c480e8";
      "S 298 4269 121 1 fd83db47573ce43881bc6c40d8c480e8";
      "? 479 9216 271 2 -";
      "S 663 14046 411 3 7bb68d9a04f530000b4f2d71b41cadc7";
    ];
    [
      "? 203 4747 150 1 -";
      "S 248 5423 170 1 be702e522cdf667611219676938e9cea";
      "S 276 5503 170 1 37468f9565a4df7bf4d4dbfd18e39bb8";
      "S 302 5599 171 1 d52b080ec8790d2a09d8dc7518dc83ab";
      "S 387 7645 229 1 aac4d0fada8cd7d83e29909749d291f0";
      "S 414 7728 229 1 aac4d0fada8cd7d83e29909749d291f0";
      "S 439 7812 229 1 aac4d0fada8cd7d83e29909749d291f0";
      "S 466 7895 229 1 aac4d0fada8cd7d83e29909749d291f0";
      "S 492 7977 229 1 e6f1a029bf19c38b9caa5294f64b3d0a";
      "S 515 8064 229 1 13915093b0b0c5a60a8aef2479c5028f";
    ];
    [
      "S 143 3106 101 1 da3416180baa06ceb00d8306c9d11a6b";
      "S 163 3196 101 1 da3416180baa06ceb00d8306c9d11a6b";
      "S 183 3285 101 1 da3416180baa06ceb00d8306c9d11a6b";
      "S 347 6861 204 2 dd840f101237f539d12d00480e8aefab";
      "S 374 6944 204 2 dd840f101237f539d12d00480e8aefab";
      "S 401 7026 204 2 dd840f101237f539d12d00480e8aefab";
      "S 427 7109 204 2 dd840f101237f539d12d00480e8aefab";
      "? 606 12218 354 3 -";
      "? 783 17568 504 4 -";
      "S 920 21118 604 5 67d425a1bf5c81726eac33daa5643799";
    ];
    [
      "S 110 2900 80 0 c4100ea5a8ee96b06deff0ad6cb6cee4";
      "S 134 2985 80 0 c4100ea5a8ee96b06deff0ad6cb6cee4";
      "S 243 6012 168 0 b79f03c48f9565fb11ad89efeea2737c";
      "U 295 7312 206 0 -";
      "S 323 7552 210 0 1903a2f11b67bd464010bbb948d89b18";
      "U 487 12196 351 1 -";
      "S 666 16601 482 2 6bd7d38f4808f66488f7d839b8c5e6ef";
      "? 846 20750 632 3 -";
      "S 999 24357 736 4 7853984b5c0eabab96866ae444bfd8a5";
      "S 1070 26106 786 4 67090a08b5fbd4446a6c8147d36e2575";
    ];
    [
      "S 179 3297 115 1 e2ab54750f0fe097eb682ed861f4615f";
      "S 345 7011 229 2 6444784778abf95eed63d100a6880245";
      "S 538 11497 364 3 e371ec79380a6e2fad8400316d31e24a";
      "S 555 11589 364 3 e371ec79380a6e2fad8400316d31e24a";
      "S 573 11681 364 3 e371ec79380a6e2fad8400316d31e24a";
      "S 591 11773 364 3 e371ec79380a6e2fad8400316d31e24a";
      "S 664 13068 402 3 30e4422a018749d052b9eb58321a51ad";
      "S 689 13153 402 3 30e4422a018749d052b9eb58321a51ad";
      "U 689 13153 402 3 -";
      "S 755 14324 436 3 e00083ab7de5aec4e0119110be5e4f7a";
    ];
    [
      "S 170 3966 129 1 02d2225436df339132dfe2f13f8adb8a";
      "U 280 6807 215 1 -";
      "S 318 7644 239 1 bfed85c55e35051702a268a7ec23d633";
      "S 332 7740 239 1 bfed85c55e35051702a268a7ec23d633";
      "S 389 9141 279 1 94de90a1f106b79f0d4117731fc80b5e";
      "U 498 11973 368 1 -";
      "? 679 16433 518 2 -";
      "S 830 20224 631 3 96846dce1bda490e0a1b315b66466cf9";
      "U 908 22240 695 3 -";
      "S 944 22918 715 3 05023e802336704096e4107c28b2c6e7";
    ];
    [
      "S 47 842 25 0 77f2440c190fc3b2187e2eb944304d30";
      "S 120 2710 75 0 3b92b4c70e14bfc3ca2e1bafc502545a";
      "U 144 3308 95 0 -";
      "U 173 3955 116 0 -";
      "S 201 4334 127 0 cd7b4e53ce89a8bd83caa9f803ee0d3e";
      "U 236 5538 160 0 -";
      "S 256 5893 168 0 da9d79a2e5205ee7e81a6085ac9ebe49";
      "U 303 7455 215 0 -";
      "S 369 9134 265 0 05d2cb35ac115407a4c1d6d710d4756d";
      "S 380 9233 265 0 05d2cb35ac115407a4c1d6d710d4756d";
    ];
    [
      "S 36 352 10 0 5448bf3ab076e3084e0dc6689901ca36";
      "S 68 428 10 0 8253f350b742d05651e6becf45200e80";
      "S 97 507 10 0 8253f350b742d05651e6becf45200e80";
      "S 123 611 11 0 a18803551eb04d4a0891b649fc314d83";
      "S 151 693 11 0 a18803551eb04d4a0891b649fc314d83";
      "S 174 779 11 0 0324d6f58a777aa9fe71bc7235ab1d7d";
      "S 196 865 11 0 7dd44b0ba5c9238b10a6ddbccbb982ef";
      "S 225 945 11 0 7dd44b0ba5c9238b10a6ddbccbb982ef";
      "S 285 1998 44 0 bb98cb5aafc6c358eac213c2d419e80b";
      "S 368 3289 84 0 3123926424215ab8ba5568f966ed69d4";
    ];
    [
      "S 74 1602 46 0 cc8eba54a1407eeda3b38f68b70047ca";
      "S 96 1689 46 0 cc8eba54a1407eeda3b38f68b70047ca";
      "S 118 1774 46 0 cc8eba54a1407eeda3b38f68b70047ca";
      "S 141 1861 46 0 cc8eba54a1407eeda3b38f68b70047ca";
      "S 164 1948 46 0 cc8eba54a1407eeda3b38f68b70047ca";
      "S 202 2224 50 0 20c5da160f2be0488450606481d35dec";
      "S 231 2305 50 0 20c5da160f2be0488450606481d35dec";
      "S 257 2429 51 0 530111d664dcdb39b93e92dce5afc7ea";
      "? 435 7407 201 1 -";
      "S 518 9546 262 1 3c3fde5f4ac178cdfd7b7b292ecffbc6";
    ];
    [
      "S 190 4267 134 1 837aa91e72aaf2978a83aeabb65911c6";
      "S 373 8793 263 2 5754bf6f16142bc0998f200b941fc68c";
      "S 394 8880 263 2 5754bf6f16142bc0998f200b941fc68c";
      "S 576 13401 396 3 92b83f41cf607f0c90e5f2f7532491af";
      "S 592 13492 396 3 92b83f41cf607f0c90e5f2f7532491af";
      "S 609 13585 396 3 92b83f41cf607f0c90e5f2f7532491af";
      "S 626 13677 396 3 92b83f41cf607f0c90e5f2f7532491af";
      "S 643 13770 396 3 92b83f41cf607f0c90e5f2f7532491af";
      "S 724 15819 461 3 06f39f97a7d38c808703dca23e49eca9";
      "S 747 16065 465 3 b216943c232520e2e0540ce91fdfb7fd";
    ];
    [
      "S 84 1434 50 0 b922763ca54b7d1b46c00e2bfcaead29";
      "S 106 1522 50 0 b922763ca54b7d1b46c00e2bfcaead29";
      "S 126 1611 50 0 b922763ca54b7d1b46c00e2bfcaead29";
      "S 146 1700 50 0 647b4d0d8fc8bb043884a3b095bf1cbd";
      "S 167 1789 50 0 647b4d0d8fc8bb043884a3b095bf1cbd";
      "S 188 1877 50 0 647b4d0d8fc8bb043884a3b095bf1cbd";
      "S 262 3328 94 0 70dbdb294146fa53cacc7d2da8231269";
      "? 430 7915 244 1 -";
      "? 605 12533 394 2 -";
      "S 700 15111 469 2 652eb48c6b591b728180eda17c8dfcdf";
    ];
    [
      "S 95 1521 48 0 e5788459c3e90c3c4f076cac5ec5313b";
      "S 117 1608 48 0 e5788459c3e90c3c4f076cac5ec5313b";
      "? 305 6325 198 1 -";
      "U 346 7596 238 1 -";
      "S 410 8974 273 1 fd0072c4edc6b235287bed2bd7e1efad";
      "U 519 12190 370 1 -";
      "S 673 16061 485 2 3fc27a77f551780366375a2f3a874e57";
      "S 699 16488 493 2 7e0525ed507f2e09b2102f89a72b1b84";
      "S 720 16577 493 2 7e0525ed507f2e09b2102f89a72b1b84";
      "S 747 16863 498 2 e6887ac1ad19139a3afbbb669aab3e82";
    ];
    [
      "? 183 5168 150 1 -";
      "S 334 8484 251 2 990831cede2b8760816a5a79724f6b84";
      "S 428 11037 321 2 900f2d858c755740b936912cdb2f98e5";
      "S 445 11129 321 2 900f2d858c755740b936912cdb2f98e5";
      "S 462 11222 321 2 900f2d858c755740b936912cdb2f98e5";
      "S 479 11315 321 2 900f2d858c755740b936912cdb2f98e5";
      "S 529 11790 340 2 48784a494b1f2b496b6cb31e4ab4e13b";
      "S 556 11873 340 2 48784a494b1f2b496b6cb31e4ab4e13b";
      "U 556 11873 340 2 -";
      "S 734 15478 455 3 c3fdac58225a40d5500718d193bd3280";
    ];
    [
      "? 179 4764 150 1 -";
      "U 326 9030 279 2 -";
      "S 369 9825 305 2 bfed85c55e35051702a268a7ec23d633";
      "S 382 9922 305 2 bfed85c55e35051702a268a7ec23d633";
      "S 503 12612 386 2 8c0268880d51afb9d536d811b10acd71";
      "U 633 16028 492 3 -";
      "S 717 18082 551 3 a95319b823d5e4c9731ba6af7cf50ae1";
      "S 738 18171 551 3 a95319b823d5e4c9731ba6af7cf50ae1";
      "? 910 22948 701 4 -";
      "S 944 23858 722 4 89b37b4e5e1a34b8b9ee816d92e29450";
    ];
    [
      "S 41 826 19 0 39385c1e17a8709e165269cb49bdb34d";
      "S 59 915 19 0 39385c1e17a8709e165269cb49bdb34d";
      "U 84 1481 40 0 -";
      "U 112 2352 68 0 -";
      "S 190 3996 117 0 ecb47605082e8da7deceea27cee5b24a";
      "U 232 5233 154 0 -";
      "S 256 5628 164 0 6fad7143f24618b14b5b91fa69e58465";
      "U 288 6907 196 0 -";
      "S 305 7196 202 0 c64b7efb2740fd9f95aaaa94f2c0395c";
      "S 318 7293 202 0 c64b7efb2740fd9f95aaaa94f2c0395c";
    ];
  ]

let test_golden_trajectories () =
  let actual =
    List.concat_map
      (fun phase_seed -> List.init 8 (fun i -> trajectory ~phase_seed i))
      [ 0; 7 ]
  in
  if actual <> golden_trajectories then begin
    List.iter
      (fun steps ->
        print_string "    [";
        List.iter (Printf.printf " %S;") steps;
        print_endline " ];")
      actual;
    Alcotest.fail "solver trajectories moved (actual printed above)"
  end

let suite =
  [
    ("trivial sat", `Quick, test_trivial_sat);
    ("trivial unsat", `Quick, test_trivial_unsat);
    ("tautology and empty clause", `Quick, test_empty_clause_unsat);
    ("pigeonhole 3-2", `Quick, test_pigeonhole_3_2);
    ("assumptions", `Quick, test_assumptions);
    ("incremental", `Quick, test_incremental);
    ("budget returns", `Quick, test_budget_unknown);
    ("dimacs roundtrip", `Quick, test_dimacs_roundtrip);
    ("dimacs solve", `Quick, test_dimacs_solve);
    ("dimacs errors", `Quick, test_dimacs_errors);
    QCheck_alcotest.to_alcotest test_fuzz_vs_brute;
    ("conflicts counter", `Quick, test_conflicts_counter);
    ("level-0 conflict sticks", `Quick, test_level0_conflict_sticks);
    QCheck_alcotest.to_alcotest test_incremental_vs_brute;
    ("golden trajectories", `Quick, test_golden_trajectories);
  ]
