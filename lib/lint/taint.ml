module N = Shell_netlist.Netlist
module Cell = Shell_netlist.Cell

(* Forward key-influence taint: per net, the bitset of key bits that
   can still functionally reach it. The lattice is (2^K, union) per
   net; propagation is monotone, so sweeping to the least fixpoint
   terminates (and handles sequential feedback and cycles). [reached]
   is its union projection: a one-bit worklist.

   Refinement over the plain structural cone comes from the constant
   and ODC facts: a proven-constant net carries no influence (its
   taint stays empty), and a read the masking rules prove can never
   steer the cell contributes nothing to the output's set. *)

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

let count t net = List.length (net_taint t net)

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

let reached ?values ?masks nl =
  let n = N.num_nets nl in
  let keys = N.keys nl in
  let reached = Array.make (max n 1) false in
  if keys <> [] && n > 0 then begin
    let values, masks = defaults ?values ?masks nl in
    let cells = N.cells nl in
    (* every read of every net: [(rcell.(k), rpos.(k))] for [k] from
       [rstart.(net)] to [rstart.(net + 1) - 1] *)
    let rstart = Array.make (n + 1) 0 in
    Array.iter
      (fun (c : Cell.t) ->
        Array.iter (fun net -> rstart.(net + 1) <- rstart.(net + 1) + 1) c.Cell.ins)
      cells;
    for net = 1 to n do
      rstart.(net) <- rstart.(net) + rstart.(net - 1)
    done;
    let fill = Array.sub rstart 0 n in
    let rcell = Array.make rstart.(n) 0 and rpos = Array.make rstart.(n) 0 in
    Array.iteri
      (fun ci (c : Cell.t) ->
        for i = 0 to Array.length c.Cell.ins - 1 do
          let net = c.Cell.ins.(i) in
          rcell.(fill.(net)) <- ci;
          rpos.(fill.(net)) <- i;
          fill.(net) <- fill.(net) + 1
        done)
      cells;
    (* one bit per net, so each net enters the worklist once *)
    let stack = Array.make n 0 in
    let sp = ref 0 in
    let mark net =
      if not reached.(net) then begin
        reached.(net) <- true;
        stack.(!sp) <- net;
        incr sp
      end
    in
    List.iter (fun (_, net) -> if net >= 0 && net < n then mark net) keys;
    while !sp > 0 do
      decr sp;
      let net = stack.(!sp) in
      for k = rstart.(net) to rstart.(net + 1) - 1 do
        let ci = rcell.(k) in
        let out = cells.(ci).Cell.out in
        (* a masked read steers nothing; a proven-constant output
           carries no key influence *)
        match values.(out) with
        | Dataflow.Unknown when not (Odc.masked masks ~cell:ci rpos.(k)) ->
            mark out
        | _ -> ()
      done
    done
  end;
  reached

let output_taints t nl =
  List.map (fun (nm, net) -> (nm, net_taint t net)) (N.outputs nl)
