(* Unit and property tests for shell_util: Rng, Truthtab, Vec, Jsonw. *)

module Rng = Shell_util.Rng
module Truthtab = Shell_util.Truthtab
module Vec = Shell_util.Vec
module J = Shell_util.Jsonw

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_int_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_covers () =
  let rng = Rng.create 11 in
  let seen = Array.make 8 false in
  for _ = 1 to 500 do
    seen.(Rng.int rng 8) <- true
  done;
  Alcotest.(check bool) "all buckets hit" true (Array.for_all Fun.id seen)

let test_rng_float_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_shuffle_permutes () =
  let rng = Rng.create 5 in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 20 Fun.id) sorted

let test_rng_sample_distinct () =
  let rng = Rng.create 9 in
  let s = Rng.sample rng 10 (Array.init 30 Fun.id) in
  let tbl = Hashtbl.create 10 in
  Array.iter (fun x -> Hashtbl.replace tbl x ()) s;
  Alcotest.(check int) "distinct" 10 (Hashtbl.length tbl)

let test_rng_split_independent () =
  let a = Rng.create 42 in
  let b = Rng.split a in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr matches
  done;
  Alcotest.(check bool) "split streams differ" true (!matches < 4)

(* ---- Truthtab ---- *)

let test_tt_const () =
  Alcotest.(check bool) "const0" false (Truthtab.eval (Truthtab.const false) [||]);
  Alcotest.(check bool) "const1" true (Truthtab.eval (Truthtab.const true) [||])

let test_tt_var () =
  let t = Truthtab.var 1 ~arity:3 in
  Alcotest.(check bool) "picks v1" true (Truthtab.eval t [| false; true; false |]);
  Alcotest.(check bool) "ignores others" false
    (Truthtab.eval t [| true; false; true |])

let test_tt_ops () =
  let a = Truthtab.var 0 ~arity:2 and b = Truthtab.var 1 ~arity:2 in
  let t_and = Truthtab.land_ a b in
  let t_or = Truthtab.lor_ a b in
  let t_xor = Truthtab.lxor_ a b in
  List.iter
    (fun (x, y) ->
      let ins = [| x; y |] in
      Alcotest.(check bool) "and" (x && y) (Truthtab.eval t_and ins);
      Alcotest.(check bool) "or" (x || y) (Truthtab.eval t_or ins);
      Alcotest.(check bool) "xor" (x <> y) (Truthtab.eval t_xor ins))
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_tt_not_involution () =
  let t = Truthtab.create ~arity:4 ~bits:0xBEEFL in
  Alcotest.(check bool) "double negation" true
    (Truthtab.equal t (Truthtab.lnot (Truthtab.lnot t)))

let test_tt_cofactor () =
  (* f = x0 AND x1; cofactor x0=1 is x1's projection *)
  let f = Truthtab.land_ (Truthtab.var 0 ~arity:2) (Truthtab.var 1 ~arity:2) in
  let g = Truthtab.cofactor f 0 true in
  Alcotest.(check bool) "f|x0=1 = x1" true
    (Truthtab.equal g (Truthtab.var 0 ~arity:1));
  let z = Truthtab.cofactor f 0 false in
  Alcotest.(check (option bool)) "f|x0=0 = 0" (Some false) (Truthtab.is_const z)

let test_tt_depends_on () =
  let f = Truthtab.var 2 ~arity:4 in
  Alcotest.(check bool) "depends on x2" true (Truthtab.depends_on f 2);
  Alcotest.(check bool) "not on x0" false (Truthtab.depends_on f 0);
  Alcotest.(check int) "support 1" 1 (Truthtab.support_size f)

let test_tt_arity6 () =
  (* full-width table must not lose bit 63 *)
  let f = Truthtab.of_fun ~arity:6 (fun ins -> Array.for_all Fun.id ins) in
  Alcotest.(check bool) "row 63 set" true (Truthtab.eval f (Array.make 6 true));
  Alcotest.(check bool) "row 62 clear" false
    (Truthtab.eval f [| false; true; true; true; true; true |])

let test_tt_of_fun_roundtrip =
  QCheck.Test.make ~name:"truthtab of_fun/eval roundtrip" ~count:200
    QCheck.(pair (int_bound 5) (int_bound 0x3FFFFFFF))
    (fun (arity_minus, seed) ->
      let arity = 1 + arity_minus in
      let bits = Int64.of_int seed in
      let t = Truthtab.create ~arity ~bits in
      let t' = Truthtab.of_fun ~arity (fun ins -> Truthtab.eval t ins) in
      Truthtab.equal t t')

(* ---- Vec ---- *)

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 7" 49 (Vec.get v 7);
  Vec.set v 7 0;
  Alcotest.(check int) "set 7" 0 (Vec.get v 7)

let test_vec_pop () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Alcotest.(check (option int)) "pop" (Some 3) (Vec.pop v);
  Alcotest.(check int) "len" 2 (Vec.length v);
  ignore (Vec.pop v);
  ignore (Vec.pop v);
  Alcotest.(check (option int)) "empty pop" None (Vec.pop v)

let test_vec_bounds () =
  let v = Vec.of_list [ 1 ] in
  Alcotest.check_raises "oob get" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 1))

let test_vec_fold_iter () =
  let v = Vec.of_array (Array.init 10 Fun.id) in
  Alcotest.(check int) "fold sum" 45 (Vec.fold ( + ) 0 v);
  let acc = ref [] in
  Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  Alcotest.(check int) "iteri count" 10 (List.length !acc);
  Alcotest.(check (list int)) "to_list" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (Vec.to_list v)

(* ---- Jsonw ---- *)

let test_jsonw_escaping () =
  let nasty = "quote \" backslash \\ newline \n tab \t nul \x00 bell \x07" in
  let s = J.to_string (J.Str nasty) in
  Alcotest.(check bool) "escapes the quote" true
    (String.length s > 2 && s.[0] = '"');
  match J.of_string s with
  | Ok (J.Str back) -> Alcotest.(check string) "round-trips" nasty back
  | Ok _ -> Alcotest.fail "parsed to a non-string"
  | Error e -> Alcotest.fail ("parse error: " ^ e)

let test_jsonw_roundtrip_doc () =
  let doc =
    J.Obj
      [
        ("null", J.Null);
        ("bools", J.Arr [ J.Bool true; J.Bool false ]);
        ("int", J.Int (-42));
        ("num", J.float ~dec:3 1.5);
        ("str", J.Str "weird \"keys\"\\and\nvalues");
        ("nested", J.Obj [ ("empty_arr", J.Arr []); ("empty_obj", J.Obj []) ]);
      ]
  in
  (* the parser keeps numbers as verbatim [Num] literals, so
     round-trips are compared on the serialized form *)
  let compact = J.to_string doc in
  let pretty = J.to_string ~indent:2 doc in
  (match J.of_string compact with
  | Ok back -> Alcotest.(check string) "compact round-trips" compact (J.to_string back)
  | Error e -> Alcotest.fail ("compact parse error: " ^ e));
  match J.of_string pretty with
  | Ok back -> Alcotest.(check string) "pretty round-trips" compact (J.to_string back)
  | Error e -> Alcotest.fail ("pretty parse error: " ^ e)

let test_jsonw_float_special () =
  Alcotest.(check bool) "nan is null" true (J.float Float.nan = J.Null);
  Alcotest.(check bool) "inf is null" true (J.float Float.infinity = J.Null);
  Alcotest.(check string) "dec respected" "0.25"
    (J.to_string (J.float ~dec:2 0.25))

let test_jsonw_surrogate_pair () =
  (* U+1F600 as an escaped surrogate pair must decode to one 4-byte
     UTF-8 scalar, not two 3-byte CESU-8 halves *)
  match J.of_string "\"\\ud83d\\ude00\"" with
  | Ok (J.Str s) ->
      Alcotest.(check string) "4-byte utf-8" "\xf0\x9f\x98\x80" s;
      (* and the decoded form survives a serialize/parse cycle *)
      let again = J.to_string (J.Str s) in
      (match J.of_string again with
      | Ok (J.Str s2) -> Alcotest.(check string) "round-trips" s s2
      | Ok _ -> Alcotest.fail "re-parse gave a non-string"
      | Error e -> Alcotest.fail ("re-parse error: " ^ e))
  | Ok _ -> Alcotest.fail "parsed to a non-string"
  | Error e -> Alcotest.fail ("parse error: " ^ e)

let test_jsonw_lone_surrogate () =
  let rejects what input =
    match J.of_string input with
    | Ok _ -> Alcotest.fail (what ^ ": accepted invalid input")
    | Error _ -> ()
  in
  rejects "lone high surrogate" "\"\\ud83d\"";
  rejects "lone low surrogate" "\"\\ude00\"";
  rejects "high surrogate then text" "\"\\ud83dXY\"";
  rejects "high then non-low escape" "\"\\ud83d\\u0041\"";
  rejects "bad hex digits" "\"\\uZZZZ\""

let test_jsonw_truncated () =
  let err input =
    match J.of_string input with
    | Ok _ -> Alcotest.failf "%S: accepted a truncated document" input
    | Error e -> e
  in
  Alcotest.(check string) "open array" "unexpected end of input at byte 1"
    (err "[");
  Alcotest.(check string) "array after a comma"
    "unexpected end of input at byte 3" (err "[1,");
  Alcotest.(check string) "object after a colon"
    "unexpected end of input at byte 5" (err "{\"a\":");
  Alcotest.(check string) "blank" "empty input" (err " \n\t");
  Alcotest.(check string) "nothing" "empty input" (err "")

let test_rng_child_stable () =
  let t = Rng.create 42 in
  let a = Rng.child t 3 and b = Rng.child t 3 in
  for _ = 1 to 16 do
    Alcotest.(check int64) "same child stream" (Rng.bits64 a) (Rng.bits64 b)
  done;
  (* deriving a child must not advance the parent *)
  let p = Rng.copy t in
  ignore (Rng.child t 9);
  Alcotest.(check int64) "parent unmoved" (Rng.bits64 p) (Rng.bits64 t)

let test_rng_child_indices_differ () =
  let t = Rng.create 7 in
  let a = Rng.child t 0 and b = Rng.child t 1 in
  let same = ref 0 in
  for _ = 1 to 16 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "index streams differ" true (!same < 4)

let test_rng_split_n () =
  let t = Rng.create 5 in
  let gens = Rng.split_n t 6 in
  Alcotest.(check int) "count" 6 (Array.length gens);
  let tbl = Hashtbl.create 8 in
  Array.iter (fun g -> Hashtbl.replace tbl (Rng.bits64 g) ()) gens;
  Alcotest.(check int) "distinct first draws" 6 (Hashtbl.length tbl)

let test_rng_int_large_bound () =
  (* rejection sampling must stay in range right up to huge bounds
     (the old modulo fold-back skewed these) and stay roughly even on
     small non-power-of-two bounds *)
  let rng = Rng.create 13 in
  let big = (max_int / 2) + 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng big in
    Alcotest.(check bool) "in range" true (v >= 0 && v < big)
  done;
  let buckets = Array.make 6 0 in
  for _ = 1 to 6000 do
    let v = Rng.int rng 6 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i n ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d even" i)
        true
        (n > 800 && n < 1200))
    buckets

let test_rng_word_stream_compat () =
  (* Rng.word n draws exactly the n Rng.bool draws a scalar loop would,
     in the same order — the word path must not perturb the stream. *)
  let a = Rng.create 0x1234 and b = Rng.create 0x1234 in
  List.iter
    (fun n ->
      let w = Rng.word a n in
      let scalar = ref 0 in
      for i = 0 to n - 1 do
        if Rng.bool b then scalar := !scalar lor (1 lsl i)
      done;
      Alcotest.(check int) (Printf.sprintf "word %d" n) !scalar w)
    [ 0; 1; 5; 17; Sys.int_size ];
  (* both RNGs must land in the same state afterwards *)
  Alcotest.(check int64) "streams aligned" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_vectors_packed_stream_compat () =
  (* vectors_packed is vector-major, bit-minor: chunk (v / lanes), lane
     (v mod lanes), exactly mirroring per-vector scalar generation. *)
  let a = Rng.create 0x77 and b = Rng.create 0x77 in
  let lanes = 8 and vectors = 21 and bits = 5 in
  let chunks = Rng.vectors_packed ~lanes a ~vectors ~bits in
  Alcotest.(check int) "chunk count" 3 (Array.length chunks);
  for v = 0 to vectors - 1 do
    let vec = Array.init bits (fun _ -> Rng.bool b) in
    let words = chunks.(v / lanes) in
    let lane = v mod lanes in
    Array.iteri
      (fun i bit ->
        Alcotest.(check bool)
          (Printf.sprintf "vector %d bit %d" v i)
          bit
          ((words.(i) lsr lane) land 1 = 1))
      vec
  done;
  Alcotest.(check int64) "streams aligned" (Rng.bits64 a) (Rng.bits64 b)

let test_tt_eval_row () =
  let t = Truthtab.var 1 ~arity:3 in
  for row = 0 to 7 do
    Alcotest.(check bool)
      (Printf.sprintf "row %d" row)
      (row land 2 <> 0)
      (Truthtab.eval_row t row)
  done

let suite =
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng child stable", `Quick, test_rng_child_stable);
    ("rng child indices differ", `Quick, test_rng_child_indices_differ);
    ("rng split_n", `Quick, test_rng_split_n);
    ("rng int large bound", `Quick, test_rng_int_large_bound);
    ("rng seeds differ", `Quick, test_rng_seeds_differ);
    ("rng int range", `Quick, test_rng_int_range);
    ("rng int covers", `Quick, test_rng_int_covers);
    ("rng float range", `Quick, test_rng_float_range);
    ("rng shuffle permutes", `Quick, test_rng_shuffle_permutes);
    ("rng sample distinct", `Quick, test_rng_sample_distinct);
    ("rng split independent", `Quick, test_rng_split_independent);
    ("rng word stream compat", `Quick, test_rng_word_stream_compat);
    ("rng vectors_packed stream compat", `Quick, test_rng_vectors_packed_stream_compat);
    ("truthtab eval_row", `Quick, test_tt_eval_row);
    ("truthtab const", `Quick, test_tt_const);
    ("truthtab var", `Quick, test_tt_var);
    ("truthtab ops", `Quick, test_tt_ops);
    ("truthtab not involution", `Quick, test_tt_not_involution);
    ("truthtab cofactor", `Quick, test_tt_cofactor);
    ("truthtab depends_on", `Quick, test_tt_depends_on);
    ("truthtab arity 6", `Quick, test_tt_arity6);
    QCheck_alcotest.to_alcotest test_tt_of_fun_roundtrip;
    ("vec push/get/set", `Quick, test_vec_push_get);
    ("vec pop", `Quick, test_vec_pop);
    ("vec bounds", `Quick, test_vec_bounds);
    ("vec fold/iter", `Quick, test_vec_fold_iter);
    ("jsonw escaping", `Quick, test_jsonw_escaping);
    ("jsonw document round-trip", `Quick, test_jsonw_roundtrip_doc);
    ("jsonw float specials", `Quick, test_jsonw_float_special);
    ("jsonw surrogate pair", `Quick, test_jsonw_surrogate_pair);
    ("jsonw lone surrogate rejected", `Quick, test_jsonw_lone_surrogate);
    ("jsonw truncated documents", `Quick, test_jsonw_truncated);
  ]
