module N = Shell_netlist.Netlist
module Pool = Shell_util.Pool
module Obs = Shell_util.Obs
module Jsonw = Shell_util.Jsonw
module Diag = Shell_util.Diag

type severity = Info | Warn | Error

let severity_name = function Info -> "info" | Warn -> "warn" | Error -> "error"

let severity_of_string = function
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let severity_rank = function Info -> 0 | Warn -> 1 | Error -> 2

type pack = Structural | Security | Fabric

let pack_name = function
  | Structural -> "structural"
  | Security -> "security"
  | Fabric -> "fabric"

type selection = {
  design : N.t;
  route_origins : string list;
  lgc_origins : string list;
}

type subject = {
  name : string;
  netlist : N.t;
  key : bool array option;
  selection : selection option;
  fabric : Shell_fabric.Fabric.t option;
  bitstream : Shell_fabric.Bitstream.t option;
  used : Shell_fabric.Resources.t option;
  pnr : Shell_pnr.Pnr.result option;
  reference : N.t option;
  shrunk : bool;
}

let subject ?name ?key ?selection ?fabric ?bitstream ?used ?pnr ?reference
    ?(shrunk = false) netlist =
  {
    name = (match name with Some n -> n | None -> N.name netlist);
    netlist;
    key;
    selection;
    fabric;
    bitstream;
    used;
    pnr;
    reference;
    shrunk;
  }

let of_locked ?name (l : Shell_locking.Locked.t) =
  subject ?name ~key:l.Shell_locking.Locked.key l.Shell_locking.Locked.locked

type finding = {
  rule : string;
  severity : severity;
  where : string;
  message : string;
}

type ctx = {
  subj : subject;
  values : Dataflow.value array;
  reach : bool array;
  live : bool array;
  odc : Odc.t;
  key_reach : bool array;
  invalid : (N.invalid * string) list;
  acyclic : bool;
}

(* Every fact is computed here, once, before the rules fan out over the
   pool: the rules then only read the context, so nothing is forced
   lazily from several domains at once. *)
let make_ctx subj =
  let nl = subj.netlist in
  let c = Dataflow.output_cones nl in
  let values = c.Dataflow.values in
  let masks = Odc.read_masks values nl in
  let invalid =
    N.validate_all nl
    |> List.filter_map (fun d ->
           match d.Diag.payload with
           | N.Invalid iv -> Some (iv, d.Diag.message)
           | _ -> None)
  in
  {
    subj;
    values;
    reach = c.Dataflow.reach;
    live = c.Dataflow.live;
    odc = Odc.analyze ~values ~masks nl;
    key_reach = Taint.reached ~values ~masks nl;
    invalid;
    acyclic = not (N.has_comb_cycle nl);
  }

type rule = {
  name : string;
  pack : pack;
  severity : severity;
  help : string;
  check : ctx -> finding list;
}

let finding rule ?severity ~where fmt =
  let severity = match severity with Some s -> s | None -> rule.severity in
  Printf.ksprintf
    (fun message -> { rule = rule.name; severity; where; message })
    fmt

(* ---------------- fingerprints & baselines ---------------- *)

let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  let prime = 0x100000001b3L in
  String.iter
    (fun ch ->
      h := Int64.logxor !h (Int64.of_int (Char.code ch));
      h := Int64.mul !h prime)
    s;
  Printf.sprintf "%016Lx" !h

let fingerprint ~subject_name f =
  fnv1a (subject_name ^ "\x00" ^ f.rule ^ "\x00" ^ f.where)

let parse_baseline contents =
  String.split_on_char '\n' contents
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line ' ' with
           | Some i -> Some (String.sub line 0 i)
           | None -> Some line)

let load_baseline path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> Ok (parse_baseline contents)
  | exception Sys_error e -> Result.Error e

let baseline_line ~subject_name f =
  Printf.sprintf "%s  # %s %s %s [%s]"
    (fingerprint ~subject_name f)
    (severity_name f.severity) f.rule f.where subject_name

(* ---------------- running ---------------- *)

type report = {
  subject_name : string;
  findings : finding list;
  suppressed : int;
  errors : int;
  warns : int;
  infos : int;
}

let m_rules =
  Obs.counter ~stable:true ~help:"lint rules evaluated" "lint_rules_total"

let m_findings =
  Obs.counter ~stable:true ~help:"lint findings reported"
    "lint_findings_total"

let m_suppressed =
  Obs.counter ~stable:true ~help:"lint findings suppressed by baseline"
    "lint_suppressed_total"

let run ?jobs ?(severity = Info) ?(baseline = []) ~rules subj =
  let ctx = Obs.with_span "lint.ctx" (fun () -> make_ctx subj) in
  let rules_arr = Array.of_list rules in
  (* rules fan out over the pool; results are collected by rule index,
     so the report order is the registry order at any job count, and
     the pool lends the open span to each task, so the span tree has
     the same shape too *)
  let per_rule =
    Pool.map ?jobs
      (fun r ->
        Obs.with_span ("lint.rule." ^ r.name) (fun () ->
            Diag.with_context r.name (fun () -> r.check ctx)))
      rules_arr
  in
  Obs.add m_rules (Array.length rules_arr);
  let suppressed_fps = Hashtbl.create 16 in
  List.iter (fun fp -> Hashtbl.replace suppressed_fps fp ()) baseline;
  let floor = severity_rank severity in
  let suppressed = ref 0 in
  let kept = ref [] in
  Array.iteri
    (fun i fs ->
      Obs.span_add ("rule." ^ rules_arr.(i).name) (List.length fs);
      List.iter
        (fun (f : finding) ->
          if severity_rank f.severity >= floor then
            if Hashtbl.mem suppressed_fps (fingerprint ~subject_name:subj.name f)
            then incr suppressed
            else kept := f :: !kept)
        fs)
    per_rule;
  let findings = List.rev !kept in
  let count s =
    List.length
      (List.filter (fun (f : finding) -> f.severity = s) findings)
  in
  Obs.add m_findings (List.length findings);
  Obs.add m_suppressed !suppressed;
  {
    subject_name = subj.name;
    findings;
    suppressed = !suppressed;
    errors = count Error;
    warns = count Warn;
    infos = count Info;
  }

let ok r = r.errors = 0

(* ---------------- rendering ---------------- *)

let finding_json ~subject_name f =
  Jsonw.Obj
    [
      ("rule", Jsonw.Str f.rule);
      ("severity", Jsonw.Str (severity_name f.severity));
      ("where", Jsonw.Str f.where);
      ("message", Jsonw.Str f.message);
      ("fingerprint", Jsonw.Str (fingerprint ~subject_name f));
    ]

let report_json r =
  Jsonw.Obj
    [
      ("subject", Jsonw.Str r.subject_name);
      ( "findings",
        Jsonw.Arr
          (List.map (finding_json ~subject_name:r.subject_name) r.findings) );
      ("suppressed", Jsonw.Int r.suppressed);
      ("errors", Jsonw.Int r.errors);
      ("warns", Jsonw.Int r.warns);
      ("infos", Jsonw.Int r.infos);
    ]

let reports_json rs =
  Jsonw.Obj
    [
      ( "lint",
        Jsonw.Obj
          [
            ("version", Jsonw.Int 1);
            ("reports", Jsonw.Arr (List.map report_json rs));
          ] );
    ]

let pp_finding ~subject_name ppf (f : finding) =
  Format.fprintf ppf "%-5s %-20s %-18s %s [%s]"
    (severity_name f.severity) f.rule f.where f.message
    (fingerprint ~subject_name f)

let pp_report ppf r =
  Format.fprintf ppf "%s: %d error%s, %d warning%s, %d info" r.subject_name
    r.errors
    (if r.errors = 1 then "" else "s")
    r.warns
    (if r.warns = 1 then "" else "s")
    r.infos;
  if r.suppressed > 0 then
    Format.fprintf ppf " (%d suppressed by baseline)" r.suppressed;
  List.iter
    (fun f ->
      Format.fprintf ppf "@.  %a" (pp_finding ~subject_name:r.subject_name) f)
    r.findings
