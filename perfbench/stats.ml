let sorted xs =
  if xs = [] then invalid_arg "Stats: no samples";
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* nearest rank: the ceil(p/100 * n)th smallest sample, 1-based;
   integer arithmetic so p = 50 of n = 10 is exactly rank 5 *)
let rank ~n p = max 1 (((p * n) + 99) / 100)

let percentile xs p =
  let a = sorted xs in
  let p = max 1 (min 100 p) in
  a.(rank ~n:(Array.length a) p - 1)

type tail = { pct : int; value : float; beyond : int; samples : int }

let tail xs =
  let n = List.length xs in
  if n <= 10 then None
  else
    let rec best p =
      let r = rank ~n p in
      if n - r >= 10 then
        Some { pct = p; value = percentile xs p; beyond = n - r; samples = n }
      else best (p - 1)
    in
    best 99

let geomean xs =
  if xs = [] then invalid_arg "Stats.geomean: no samples";
  let logs =
    List.map
      (fun x ->
        if not (x > 0.0) then invalid_arg "Stats.geomean: sample not positive";
        log x)
      xs
  in
  exp (List.fold_left ( +. ) 0.0 logs /. float_of_int (List.length xs))

let pool_efficiency ~op_seconds ~jobs ~wall =
  List.fold_left ( +. ) 0.0 op_seconds /. (float_of_int jobs *. wall)
