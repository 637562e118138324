let close = Alcotest.float 1e-9

let test_median () =
  Alcotest.check close "odd" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check close "even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats: no samples") (fun () ->
      ignore (Stats.median []))

let samples n = List.init n (fun i -> float_of_int (i + 1))

let test_percentile () =
  let xs = samples 10 in
  Alcotest.check close "p50 nearest rank" 5.0 (Stats.percentile xs 50);
  Alcotest.check close "p90" 9.0 (Stats.percentile xs 90);
  Alcotest.check close "p91 rounds up" 10.0 (Stats.percentile xs 91);
  Alcotest.check close "p100 is the max" 10.0 (Stats.percentile xs 100);
  Alcotest.check close "p0 clamps to the min" 1.0 (Stats.percentile xs 0)

let tail_fields n =
  match Stats.tail (List.rev (samples n)) with
  | None -> None
  | Some t -> Some (t.Stats.pct, t.Stats.value, t.Stats.beyond, t.Stats.samples)

let test_tail () =
  let t = Alcotest.(option (pair int (pair (float 1e-9) (pair int int)))) in
  let shape = Option.map (fun (p, v, b, n) -> (p, (v, (b, n)))) in
  (* 10 samples or fewer: no percentile has 10 beyond it *)
  Alcotest.check t "n=10" None (shape (tail_fields 10));
  (* n=11: only rank 1 leaves 10 beyond; p9 is the highest with rank 1 *)
  Alcotest.check t "n=11" (Some (9, (1.0, (10, 11)))) (shape (tail_fields 11));
  (* n=100: p90 is rank 90 with exactly 10 beyond; p91 leaves 9 *)
  Alcotest.check t "n=100" (Some (90, (90.0, (10, 100)))) (shape (tail_fields 100));
  (* n=84: p88 is rank 74 (10 beyond), p89 is rank 75 (9 beyond) *)
  Alcotest.check t "n=84" (Some (88, (74.0, (10, 84)))) (shape (tail_fields 84));
  (* n=1000: p99 is rank 990, 10 beyond *)
  Alcotest.check t "n=1000" (Some (99, (990.0, (10, 1000)))) (shape (tail_fields 1000))

let test_geomean () =
  Alcotest.check close "constant" 1.5 (Stats.geomean [ 1.5; 1.5; 1.5 ]);
  Alcotest.check close "2 and 8" 4.0 (Stats.geomean [ 2.0; 8.0 ]);
  Alcotest.check close "1, 3, 9" 3.0 (Stats.geomean [ 1.0; 3.0; 9.0 ]);
  Alcotest.check_raises "zero sample"
    (Invalid_argument "Stats.geomean: sample not positive") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]));
  Alcotest.check_raises "empty" (Invalid_argument "Stats.geomean: no samples")
    (fun () -> ignore (Stats.geomean []))

let test_pool_efficiency () =
  Alcotest.check close "sequential, no idle" 1.0
    (Stats.pool_efficiency ~op_seconds:[ 1.0; 2.0 ] ~jobs:1 ~wall:3.0);
  Alcotest.check close "two domains, half idle" 0.5
    (Stats.pool_efficiency ~op_seconds:[ 1.0; 2.0 ] ~jobs:2 ~wall:3.0);
  (* oversubscribed domains stretch each operation's own time *)
  Alcotest.check close "stretched ops" 1.5
    (Stats.pool_efficiency ~op_seconds:[ 3.0; 3.0 ] ~jobs:2 ~wall:2.0)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "tail percentile" `Quick test_tail;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "pool efficiency" `Quick test_pool_efficiency;
        ] );
    ]
