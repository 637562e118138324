module N = Shell_netlist.Netlist
module Cell = Shell_netlist.Cell

(* Forward key reach: a net is reached when some key bit can still
   functionally steer it. This is the union projection of the per-bit
   taint lattice (per net, the set of key bits reaching it), computed
   as a one-bit worklist.

   Refinement over the plain structural cone comes from the constant
   and ODC facts: a proven-constant net carries no influence, and a
   read the masking rules prove can never steer the cell passes
   nothing to the cell's output. *)

let reached ?values ?masks nl =
  let n = N.num_nets nl in
  let keys = N.keys nl in
  let reached = Array.make (max n 1) false in
  if keys <> [] && n > 0 then begin
    let values =
      match values with Some v -> v | None -> Dataflow.const_values nl
    in
    let masks =
      match masks with Some m -> m | None -> Odc.read_masks values nl
    in
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
