module N = Shell_netlist.Netlist
module Cell = Shell_netlist.Cell
module Truthtab = Shell_util.Truthtab

(* Backward observability-don't-care analysis.

   A net is OBSERVABLE when toggling its value (alone, holding every
   other net consistent with the proven constant facts) can change some
   primary output. We compute the complement conservatively: a net is
   marked unobservable only when every one of its reads is provably
   masked, so [observable] is an over-approximation of true
   observability — safe to act on its negation.

   Each masking rule below is sound on its own terms: it declares a
   read (cell, input position) masked only when, under EVERY assignment
   consistent with the constant facts, toggling that input alone cannot
   change the cell's output. Joint toggling through reconvergent paths
   is handled by the per-read granularity — a net that also reaches the
   cell through an unmasked input stays observable through that read. *)

type t = {
  observable : bool array;  (** per net: value can still reach an output *)
  masked_reads : int;  (** reads cut by a masking rule *)
  const_cuts : int;  (** nets cut because they are proven constants *)
}

(* The constant fact on input position [j]. A top-level function, not
   a local closure, because [read_masks] calls [input_masked] on every
   read. *)
let kv values (ins : int array) j = Dataflow.known values.(ins.(j))

(* Mux4 arm [idx] is still selectable under the known select bits *)
let arm_reachable values ins idx =
  (match kv values ins 0 with
  | Some s0 -> (if s0 then 1 else 0) = idx land 1
  | None -> true)
  &&
  match kv values ins 1 with
  | Some s1 -> (if s1 then 1 else 0) = idx lsr 1
  | None -> true

(* Is the read of input position [i] of cell [c] masked under the
   constant facts? *)
let input_masked values (c : Cell.t) i =
  let ins = c.Cell.ins in
  match c.Cell.kind with
  | Cell.Const _ -> true
  | Cell.And | Cell.Nand ->
      (* the other operand is a proven controlling 0 *)
      kv values ins (1 - i) = Some false
  | Cell.Or | Cell.Nor -> kv values ins (1 - i) = Some true
  | Cell.Xor | Cell.Xnor ->
      (* x xor x is constant: toggling the shared net flips both
         operands at once, leaving the output fixed *)
      ins.(0) = ins.(1)
  | Cell.Not | Cell.Buf | Cell.Dff | Cell.Config_latch -> false
  | Cell.Mux2 -> (
      match i with
      | 0 ->
          (* select masked when it provably cannot steer: arms are the
             same net, the same proven constant, or the select itself
             is pinned *)
          ins.(1) = ins.(2)
          || (match (kv values ins 1, kv values ins 2) with
             | Some a, Some b -> a = b
             | _ -> false)
          || kv values ins 0 <> None
      | 1 -> kv values ins 0 = Some true (* arm a dead when select pinned high *)
      | 2 -> kv values ins 0 = Some false
      | _ -> false)
  | Cell.Mux4 -> (
      (* ins = [|s0; s1; a; b; c; d|], {s1,s0} selects arm index *)
      match i with
      | 0 | 1 ->
          let arms_equal =
            ins.(2) = ins.(3) && ins.(3) = ins.(4) && ins.(4) = ins.(5)
          in
          arms_equal || kv values ins i <> None
      | _ -> not (arm_reachable values ins (i - 2)))
  | Cell.Lut tt ->
      (* masked when the input is pinned, or the residual table over
         the unknown inputs no longer depends on it *)
      let vals = Array.map (fun net -> values.(net)) ins in
      (match Dataflow.known vals.(i) with
      | Some _ -> true
      | None ->
          let r = Dataflow.residual_table tt vals in
          (* position of input i among the unknown inputs *)
          let j = ref 0 in
          for k = 0 to i - 1 do
            if Dataflow.known vals.(k) = None then incr j
          done;
          not (Truthtab.depends_on r !j))

(* One verdict per read, judged once: flat bytes indexed by the cell's
   offset plus the input position. A LUT builds its residual table once
   for all of its inputs instead of once per input. *)
type masks = { off : int array; bits : Bytes.t }

let read_masks values nl =
  let cells = N.cells nl in
  let nc = Array.length cells in
  let off = Array.make (nc + 1) 0 in
  for ci = 0 to nc - 1 do
    off.(ci + 1) <- off.(ci) + Array.length cells.(ci).Cell.ins
  done;
  let bits = Bytes.make off.(nc) '\000' in
  for ci = 0 to nc - 1 do
    let c = cells.(ci) in
    match c.Cell.kind with
    | Cell.Lut tt ->
        let vals = Array.map (fun net -> values.(net)) c.Cell.ins in
        let r = Dataflow.residual_table tt vals in
        (* [j] is the position of input [i] among the unknown inputs *)
        let j = ref 0 in
        Array.iteri
          (fun i v ->
            match Dataflow.known v with
            | Some _ -> Bytes.set bits (off.(ci) + i) '\001'
            | None ->
                if not (Truthtab.depends_on r !j) then
                  Bytes.set bits (off.(ci) + i) '\001';
                incr j)
          vals
    | _ ->
        for i = 0 to Array.length c.Cell.ins - 1 do
          if input_masked values c i then Bytes.set bits (off.(ci) + i) '\001'
        done
  done;
  { off; bits }

let masked m ~cell i = Bytes.get m.bits (m.off.(cell) + i) <> '\000'

let analyze ?values ?masks nl =
  let values =
    match values with Some v -> v | None -> Dataflow.const_values nl
  in
  let masks = match masks with Some m -> m | None -> read_masks values nl in
  let n = N.num_nets nl in
  let cells = N.cells nl in
  (* every driver of every net, so a multi-driven net propagates
     through each of its drivers: [drv.(dstart.(net)) ..
     drv.(dstart.(net + 1) - 1)] *)
  let dstart = Array.make (n + 1) 0 in
  Array.iter
    (fun (c : Cell.t) -> dstart.(c.Cell.out + 1) <- dstart.(c.Cell.out + 1) + 1)
    cells;
  for net = 1 to n do
    dstart.(net) <- dstart.(net) + dstart.(net - 1)
  done;
  let fill = Array.sub dstart 0 (max n 1) in
  let drv = Array.make (Array.length cells) 0 in
  Array.iteri
    (fun ci (c : Cell.t) ->
      drv.(fill.(c.Cell.out)) <- ci;
      fill.(c.Cell.out) <- fill.(c.Cell.out) + 1)
    cells;
  let observable = Array.make (max n 1) false in
  (* each net is pushed at most once: when it first becomes observable *)
  let stack = Array.make (max n 1) 0 in
  let sp = ref 0 in
  (* a proven-constant net carries no toggle: never observable *)
  let mark net =
    if net >= 0 && net < n && not observable.(net) then
      match values.(net) with
      | Dataflow.Unknown ->
          observable.(net) <- true;
          stack.(!sp) <- net;
          incr sp
      | _ -> ()
  in
  Array.iter mark (N.output_nets nl);
  (* observability only grows and every net enters the worklist once,
     so this reaches the least fixpoint in linear time, on cyclic
     netlists and through sequential feedback (state influence counts)
     alike *)
  while !sp > 0 do
    decr sp;
    let net = stack.(!sp) in
    for k = dstart.(net) to dstart.(net + 1) - 1 do
      let ci = drv.(k) in
      let ins = cells.(ci).Cell.ins in
      for i = 0 to Array.length ins - 1 do
        if not (masked masks ~cell:ci i) then mark ins.(i)
      done
    done
  done;
  (* diagnostics over the final fixpoint *)
  let masked_reads = ref 0 in
  Array.iteri
    (fun ci (c : Cell.t) ->
      if observable.(c.Cell.out) then
        for i = 0 to Array.length c.Cell.ins - 1 do
          if masked masks ~cell:ci i then incr masked_reads
        done)
    cells;
  let const_cuts = ref 0 in
  for net = 0 to n - 1 do
    if Dataflow.known values.(net) <> None then incr const_cuts
  done;
  { observable; masked_reads = !masked_reads; const_cuts = !const_cuts }
