type problem = { nvars : int; clauses : int list list }

type reason = Bad_header | Bad_literal | Missing_header
type error = { line : int; token : string; reason : reason }

let error_to_string e =
  let what =
    match e.reason with
    | Bad_header -> "bad header"
    | Bad_literal -> "bad literal"
    | Missing_header -> "missing p cnf header"
  in
  Printf.sprintf "Dimacs.parse: line %d: %s %S" e.line what e.token

exception Parse_error of error

let fail line token reason = raise (Parse_error { line; token; reason })
let tokens line = String.split_on_char ' ' line |> List.filter (( <> ) "")

let parse src =
  let nvars = ref 0 in
  let clauses = ref [] in
  let current = ref [] in
  let header_seen = ref false in
  (* where a header was missed: the first clause line, if any *)
  let first_clause = ref None in
  let lines = String.split_on_char '\n' src in
  let parse_line lineno line =
    let line = String.trim line in
    if line = "" || line.[0] = 'c' then ()
    else if line.[0] = 'p' then begin
      (match tokens line with
      | [ "p"; "cnf"; nv; _nc ] -> (
          match int_of_string_opt nv with
          | Some n -> nvars := n
          | None -> fail lineno nv Bad_header)
      | _ -> fail lineno line Bad_header);
      header_seen := true
    end
    else begin
      if !first_clause = None then first_clause := Some (lineno, List.hd (tokens line));
      List.iter
        (fun tok ->
          match int_of_string_opt tok with
          | None -> fail lineno tok Bad_literal
          | Some 0 ->
              clauses := List.rev !current :: !clauses;
              current := []
          | Some l ->
              if abs l > !nvars then nvars := abs l;
              current := l :: !current)
        (tokens line)
    end
  in
  match List.iteri (fun i line -> parse_line (i + 1) line) lines with
  | exception Parse_error e -> Error e
  | () ->
      if not !header_seen then begin
        let line, token =
          Option.value !first_clause ~default:(List.length lines, "")
        in
        Error { line; token; reason = Missing_header }
      end
      else begin
        if !current <> [] then clauses := List.rev !current :: !clauses;
        Ok { nvars = !nvars; clauses = List.rev !clauses }
      end

let print p =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "p cnf %d %d\n" p.nvars (List.length p.clauses));
  List.iter
    (fun c ->
      List.iter (fun l -> Buffer.add_string buf (string_of_int l ^ " ")) c;
      Buffer.add_string buf "0\n")
    p.clauses;
  Buffer.contents buf

let load_into solver p =
  Solver.ensure_vars solver p.nvars;
  List.iter (Solver.add_clause solver) p.clauses

let solve_string ?max_conflicts src =
  Result.map
    (fun p ->
      let s = Solver.create () in
      load_into s p;
      Solver.solve ?max_conflicts s)
    (parse src)
