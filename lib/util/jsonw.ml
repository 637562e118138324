type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of string
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let float ?(dec = 6) v =
  if Float.is_finite v then Num (Printf.sprintf "%.*f" dec v) else Null

let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  add_escaped buf s;
  Buffer.contents buf

let add_string_lit buf s =
  Buffer.add_char buf '"';
  add_escaped buf s;
  Buffer.add_char buf '"'

let to_buffer ?(indent = 0) buf v =
  let pad depth =
    if indent > 0 then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (indent * depth) ' ')
    end
  in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Num s -> Buffer.add_string buf s
    | Str s -> add_string_lit buf s
    | Arr [] -> Buffer.add_string buf "[]"
    | Arr items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            pad (depth + 1);
            go (depth + 1) item)
          items;
        pad depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char buf ',';
            pad (depth + 1);
            add_string_lit buf k;
            Buffer.add_string buf (if indent > 0 then ": " else ":");
            go (depth + 1) item)
          fields;
        pad depth;
        Buffer.add_char buf '}'
  in
  go 0 v

let to_string ?indent v =
  let buf = Buffer.create 256 in
  to_buffer ?indent buf v;
  Buffer.contents buf

(* ---------------- parser ---------------- *)

exception Bad of string

let utf8_of_code buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let of_string src =
  let n = String.length src in
  let pos = ref 0 in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && match src.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let eof () =
    raise (Bad (Printf.sprintf "unexpected end of input at byte %d" !pos))
  in
  let expect c =
    if !pos < n && src.[!pos] = c then incr pos
    else if !pos >= n then eof ()
    else raise (Bad (Printf.sprintf "expected %C at %d" c !pos))
  in
  let lit s v =
    if !pos + String.length s <= n && String.sub src !pos (String.length s) = s
    then begin
      pos := !pos + String.length s;
      v
    end
    else raise (Bad (Printf.sprintf "bad literal at %d" !pos))
  in
  let hex4 () =
    if !pos + 4 > n then raise (Bad "truncated \\u escape");
    match int_of_string_opt ("0x" ^ String.sub src !pos 4) with
    | None -> raise (Bad (Printf.sprintf "bad \\u escape at %d" !pos))
    | Some v ->
        pos := !pos + 4;
        v
  in
  (* A \u escape in the surrogate range must be a high surrogate
     immediately followed by an escaped low surrogate; the pair
     combines into one astral code point (one 4-byte UTF-8 sequence,
     not the two 3-byte CESU-8 sequences a naive per-escape encode
     would produce). Lone or out-of-order surrogates are malformed. *)
  let unicode_escape () =
    let u = hex4 () in
    if u >= 0xD800 && u <= 0xDBFF then begin
      if
        !pos + 2 > n || src.[!pos] <> '\\' || src.[!pos + 1] <> 'u'
      then raise (Bad "lone high surrogate");
      pos := !pos + 2;
      let lo = hex4 () in
      if lo < 0xDC00 || lo > 0xDFFF then raise (Bad "lone high surrogate");
      0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
    end
    else if u >= 0xDC00 && u <= 0xDFFF then raise (Bad "lone low surrogate")
    else u
  in
  let string_body () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise (Bad "unterminated string");
      match src.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          (if !pos >= n then raise (Bad "trailing backslash");
           let c = src.[!pos] in
           incr pos;
           match c with
           | '"' -> Buffer.add_char buf '"'
           | '\\' -> Buffer.add_char buf '\\'
           | '/' -> Buffer.add_char buf '/'
           | 'n' -> Buffer.add_char buf '\n'
           | 'r' -> Buffer.add_char buf '\r'
           | 't' -> Buffer.add_char buf '\t'
           | 'b' -> Buffer.add_char buf '\b'
           | 'f' -> Buffer.add_char buf '\012'
           | 'u' -> utf8_of_code buf (unicode_escape ())
           | c -> raise (Bad (Printf.sprintf "bad escape \\%c" c)));
          go ()
      | c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      &&
      match src.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    if !pos = start then raise (Bad (Printf.sprintf "bad token at %d" start));
    Num (String.sub src start (!pos - start))
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> eof ()
    | Some '"' -> Str (string_body ())
    | Some 'n' -> lit "null" Null
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          Arr []
        end
        else begin
          let items = ref [ value () ] in
          skip_ws ();
          while peek () = Some ',' do
            incr pos;
            items := value () :: !items;
            skip_ws ()
          done;
          expect ']';
          Arr (List.rev !items)
        end
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = string_body () in
            skip_ws ();
            expect ':';
            (k, value ())
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            incr pos;
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some _ -> number ()
  in
  skip_ws ();
  if !pos = n then Error "empty input"
  else
    match value () with
    | v ->
        skip_ws ();
        if !pos <> n then Error (Printf.sprintf "trailing input at %d" !pos)
        else Ok v
    | exception Bad m -> Error m

(* ---------------- framing ---------------- *)

let default_max_frame = 16 * 1024 * 1024

let frame ?(max_frame = default_max_frame) v =
  let body = to_string v in
  let n = String.length body in
  if n > max_frame then
    invalid_arg
      (Printf.sprintf "Jsonw.frame: %d bytes exceeds max_frame %d" n max_frame);
  let b = Bytes.create (4 + n) in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xFF));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xFF));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xFF));
  Bytes.set b 3 (Char.chr (n land 0xFF));
  Bytes.blit_string body 0 b 4 n;
  Bytes.unsafe_to_string b

type framer = {
  fbuf : Buffer.t;
  mutable fpos : int;  (* consumed prefix of [fbuf] *)
  fmax : int;
  mutable ferror : string option;  (* sticky: a bad stream stays bad *)
}

let framer ?(max_frame = default_max_frame) () =
  { fbuf = Buffer.create 256; fpos = 0; fmax = max_frame; ferror = None }

let feed fr b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Jsonw.feed";
  if fr.ferror = None then Buffer.add_subbytes fr.fbuf b off len

let feed_string fr s =
  if fr.ferror = None then Buffer.add_string fr.fbuf s

let next fr =
  match fr.ferror with
  | Some e -> `Error e
  | None ->
      let avail = Buffer.length fr.fbuf - fr.fpos in
      if avail < 4 then `Await
      else begin
        let byte i = Char.code (Buffer.nth fr.fbuf (fr.fpos + i)) in
        let len =
          (byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3
        in
        if len > fr.fmax then begin
          let e =
            Printf.sprintf "frame of %d bytes exceeds max_frame %d" len fr.fmax
          in
          fr.ferror <- Some e;
          `Error e
        end
        else if avail < 4 + len then `Await
        else begin
          let body = Buffer.sub fr.fbuf (fr.fpos + 4) len in
          fr.fpos <- fr.fpos + 4 + len;
          (* Reclaim the consumed prefix once it dominates the buffer
             so a long-lived connection doesn't grow without bound. *)
          if fr.fpos > 4096 && fr.fpos * 2 > Buffer.length fr.fbuf then begin
            let rest = Buffer.sub fr.fbuf fr.fpos (Buffer.length fr.fbuf - fr.fpos) in
            Buffer.clear fr.fbuf;
            Buffer.add_string fr.fbuf rest;
            fr.fpos <- 0
          end;
          `Frame body
        end
      end
