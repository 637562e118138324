module Vec = Shell_util.Vec

type segment = { label : string; offset : int; length : int }

type t = { bits : bool Vec.t; mutable segs : segment list }

let builder () = { bits = Vec.create (); segs = [] }

let append t label values =
  let offset = Vec.length t.bits in
  Array.iter (Vec.push t.bits) values;
  t.segs <- { label; offset; length = Array.length values } :: t.segs

let bits t = Vec.to_array t.bits
let length t = Vec.length t.bits
let segments t = List.rev t.segs

type kind = Table | Routing

(* the single authority on label classification — [Metrics] and the
   emitter's bit counters must agree on what counts as table storage *)
let kind_of_label label =
  if String.ends_with ~suffix:"table" label then Table else Routing

let kind_bits t =
  List.fold_left
    (fun (tbl, rt) s ->
      match kind_of_label s.label with
      | Table -> (tbl + s.length, rt)
      | Routing -> (tbl, rt + s.length))
    (0, 0) (segments t)

let segment_bits t label =
  match List.find_opt (fun s -> s.label = label) (segments t) with
  | None -> None
  | Some s -> Some (Array.sub (bits t) s.offset s.length)

let to_hex t =
  let b = bits t in
  let n = Array.length b in
  let nibbles = (n + 3) / 4 in
  String.init nibbles (fun i ->
      let v = ref 0 in
      for j = 0 to 3 do
        let idx = (i * 4) + j in
        if idx < n && b.(idx) then v := !v lor (1 lsl j)
      done;
      "0123456789abcdef".[!v])

let hamming a b =
  if Array.length a <> Array.length b then
    Shell_util.Diag.failf "Bitstream.hamming: length mismatch (%d vs %d)"
      (Array.length a) (Array.length b);
  let d = ref 0 in
  Array.iteri (fun i x -> if x <> b.(i) then incr d) a;
  !d

(* ------------------------------------------------------------------ *)
(* File format                                                         *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let serialize t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "shell-bitstream 1 %d\n" (length t));
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "segment %s %d %d\n" s.label s.offset s.length))
    (segments t);
  Buffer.add_string buf ("bits " ^ to_hex t ^ "\n");
  Buffer.contents buf

let deserialize src =
  let fail msg = raise (Parse_error ("Bitstream: " ^ msg)) in
  let lines =
    String.split_on_char '\n' src |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] -> fail "empty input"
  | header :: rest ->
      let total =
        match String.split_on_char ' ' header with
        | [ "shell-bitstream"; "1"; n ] -> (
            match int_of_string_opt n with
            | Some n when n >= 0 -> n
            | _ -> fail "bad length")
        | _ -> fail "bad header"
      in
      let t = builder () in
      let bits_line = ref None in
      let segs = ref [] in
      List.iter
        (fun line ->
          match String.split_on_char ' ' line with
          | [ "segment"; label; off; len ] -> (
              match (int_of_string_opt off, int_of_string_opt len) with
              | Some offset, Some length -> segs := (label, offset, length) :: !segs
              | _ -> fail "bad segment")
          | [ "bits"; hex ] -> bits_line := Some hex
          | _ -> fail ("bad line: " ^ line))
        rest;
      let hex = match !bits_line with Some h -> h | None -> fail "missing bits" in
      let nibble c =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad hex digit"
      in
      let all_bits =
        Array.init total (fun i ->
            let n = i / 4 in
            if n >= String.length hex then fail "hex too short"
            else nibble hex.[n] land (1 lsl (i mod 4)) <> 0)
      in
      (* rebuild through the segment directory, in offset order *)
      let ordered = List.sort (fun (_, a, _) (_, b, _) -> compare a b) !segs in
      let covered = ref 0 in
      List.iter
        (fun (label, offset, len) ->
          if offset <> !covered then fail "segments not contiguous";
          if offset + len > total then fail "segment out of range";
          append t label (Array.sub all_bits offset len);
          covered := offset + len)
        ordered;
      if !covered <> total then fail "segments do not cover the bits";
      t
