(* The `shell` command-line tool: run the SheLL redaction flow, attack
   locked designs, and inspect the bundled benchmarks.

     shell list
     shell analyze  -b PicoSoC
     shell lock     -b PicoSoC [-s style] [--route PAT]... [--lgc PAT]...
                    [-o locked.v] [--bitstream bits.hex]
     shell lock-file -i design.v --route PAT ... (structural dialect)
     shell attack   -b PicoSoC [--dips N] [--conflicts N] [--seconds S]

   lock, attack, battery, fuzz and lint also take --socket ADDR, which
   submits the same job to a `shell serve` daemon instead of running it
   in-process. All subcommands are deterministic for a given --seed. *)

module N = Shell_netlist
module F = Shell_fabric
module L = Shell_locking
module A = Shell_attacks
module C = Shell_core
module Circ = Shell_circuits
module Fz = Shell_fuzz
module Diag = Shell_util.Diag
module Obs = Shell_util.Obs
module SP = Shell_serve.Protocol
module SJ = Shell_serve.Jobs
module SS = Shell_serve.Server
module SC = Shell_serve.Client
open Cmdliner

(* The single fatal-exit path: every error — bad argument, parse
   failure, aborted pipeline pass — is rendered as a structured
   diagnostic ("pass: context: message [payload]") before exit 1. *)
let die (d : Diag.t) : 'a =
  prerr_endline (Diag.to_string d);
  exit 1

let dief fmt = Format.kasprintf (fun m -> die (Diag.make m)) fmt

(* ---------------- shared arguments ---------------- *)

let bench_arg =
  let doc = "Bundled benchmark: PicoSoC, AES, FIR, SPMV, DLA, SoC or Xbar." in
  Arg.(value & opt string "PicoSoC" & info [ "b"; "benchmark" ] ~doc)

let style_arg =
  let styles =
    [
      ("openfpga", F.Style.Openfpga);
      ("fabulous", F.Style.Fabulous_std);
      ("muxchain", F.Style.Fabulous_muxchain);
    ]
  in
  let doc = "Fabric style: openfpga, fabulous or muxchain (default)." in
  Arg.(
    value
    & opt (enum styles) F.Style.Fabulous_muxchain
    & info [ "s"; "style" ] ~doc)

let route_arg =
  let doc = "Origin substring selecting a ROUTE block (repeatable)." in
  Arg.(value & opt_all string [] & info [ "route" ] ~doc)

let lgc_arg =
  let doc = "Origin substring selecting an LGC block (repeatable)." in
  Arg.(value & opt_all string [] & info [ "lgc" ] ~doc)

let seed_arg =
  let doc = "Deterministic seed for decoys and placement." in
  Arg.(value & opt int 0x51e11 & info [ "seed" ] ~doc)

let metrics_arg =
  let doc =
    "Enable the metrics registry and write a snapshot to $(docv) on \
     completion. A .prom suffix selects Prometheus text format, anything \
     else JSON (same as setting SHELL_METRICS=$(docv); \
     SHELL_METRICS_STABLE=1 restricts the snapshot to deterministic \
     metrics)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let read_file path =
  try
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with Sys_error m -> dief "%s" m

(* Every file the CLI writes goes through here, so an unwritable path
   is a diagnostic and exit 1 rather than an uncaught exception. *)
let write_file path text =
  try
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)
  with Sys_error m -> dief "%s" m

(* ---------------- job front end ---------------- *)

(* lock, attack, battery, fuzz and lint each describe a Protocol.job.
   Benchmark lookup, TfR defaults and job execution live in
   Shell_serve.Jobs, which the daemon runs too, so a job sent with
   --socket prints the bytes the in-process run prints. *)

let job_socket_arg =
  let doc =
    "Submit the job to the `shell serve` daemon at $(docv) (a Unix socket \
     path, or host:port for TCP) instead of running it in-process; stdout \
     and exit status are the same. Flags the job cannot carry are refused. \
     Not read from SHELL_SOCKET, so an exported variable never turns a \
     local run into a remote one."
  in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"ADDR" ~doc)

let priority_arg =
  Arg.(
    value & opt int 0
    & info [ "priority" ] ~docv:"N"
        ~doc:"Daemon queue priority (with --socket): higher runs first.")

let address_of_arg s =
  match SS.address_of_string s with Ok a -> a | Error m -> dief "%s" m

let with_daemon socket f =
  let addr = address_of_arg socket in
  match SC.with_connection addr f with
  | r -> r
  | exception Unix.Unix_error (e, _, _) ->
      dief "cannot reach daemon at %s: %s (is `shell serve` running?)" socket
        (Unix.error_message e)

(* The response contract mirrors the in-process run: Result bytes go to
   stdout verbatim and a failed verdict exits 1; Rejected/Failed render
   on stderr with exit 1. *)
let client_submit socket priority job =
  match with_daemon socket (fun c -> SC.submit c ~priority job) with
  | Ok (SP.Result { output; ok; _ }) ->
      print_string output;
      if not ok then exit 1
  | Ok (SP.Rejected { reason; _ }) -> dief "rejected: %s" reason
  | Ok (SP.Failed { message; _ }) -> dief "%s" message
  | Ok _ -> dief "unexpected response type from daemon"
  | Error m -> dief "%s" m

(* With --socket, submit [job]; otherwise run [local] in-process.
   [local_only] names each flag setting the job record cannot carry:
   any that is set is refused before connecting. *)
let run_job socket priority job ~local_only local =
  match socket with
  | None ->
      if priority <> 0 then dief "--priority needs --socket";
      local ()
  | Some addr ->
      List.iter
        (fun (flag, set) ->
          if set then
            dief "%s cannot be used with --socket: the daemon job does not \
                  carry it" flag)
        local_only;
      client_submit addr priority job

(* ---------------- list ---------------- *)

let list_cmd =
  let run () =
    Printf.printf "%-9s %-38s %6s  %s\n" "name" "description" "cells"
      "SheLL TfR";
    List.iter
      (fun (e : Circ.Catalog.entry) ->
        let nl = e.Circ.Catalog.netlist () in
        Printf.printf "%-9s %-38s %6d  %s\n" e.Circ.Catalog.name
          e.Circ.Catalog.description (N.Netlist.num_cells nl)
          e.Circ.Catalog.tfr_shell.Circ.Catalog.label)
      Circ.Catalog.all;
    Printf.printf "%-9s %-38s %6d  %s\n" "SoC" "Fig. 3 platform (4 cores + Xbar)"
      (N.Netlist.num_cells (Circ.Soc.netlist ()))
      "Xbar + wrappers";
    Printf.printf "%-9s %-38s %6d  %s\n" "Xbar" "8-channel AXI crossbar (Table I)"
      (N.Netlist.num_cells (Circ.Axi_xbar.netlist ()))
      "whole Xbar"
  in
  Cmd.v (Cmd.info "list" ~doc:"List the bundled benchmark circuits.")
    Term.(const run $ const ())

(* ---------------- analyze ---------------- *)

let analyze_cmd =
  let run bench =
    match SJ.netlist_of_bench bench with
    | Error d -> die d
    | Ok nl ->
        let t = C.Connectivity.analyze nl in
        Printf.printf "%d cells, %d blocks\n\n" (N.Netlist.num_cells nl)
          (Array.length t.C.Connectivity.blocks);
        Printf.printf "%-46s %5s %6s %7s  %s\n" "block" "cells" "route"
          "score" "attributes";
        let scored =
          Array.to_list t.C.Connectivity.blocks
          |> List.filter (fun b -> b.C.Connectivity.name <> "")
          |> List.map (fun b ->
                 (C.Score.eval C.Score.shell_choice b.C.Connectivity.attrs, b))
          |> List.sort (fun (a, _) (b, _) -> compare b a)
        in
        List.iteri
          (fun i (s, (b : C.Connectivity.block)) ->
            if i < 25 then
              Printf.printf "%-46s %5d %6.2f %7.3f  %s\n" b.C.Connectivity.name
                (List.length b.C.Connectivity.cells)
                b.C.Connectivity.route_fraction s
                (Format.asprintf "%a" C.Score.pp_attrs b.C.Connectivity.attrs))
          scored
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Run the connectivity analysis and print scored blocks.")
    Term.(const run $ bench_arg)

(* ---------------- lock ---------------- *)

let lock_spec bench style route lgc seed =
  { SP.bench; style = SJ.style_id style; route; lgc; seed }

let lock_run socket priority bench style route lgc seed trace metrics out
    bitstream_out =
  let spec = lock_spec bench style route lgc seed in
  run_job socket priority (SP.Lock spec)
    ~local_only:
      [
        ("-o", out <> None);
        ("--bitstream", bitstream_out <> None);
        ("--trace", trace);
        ("--metrics", metrics <> None);
      ]
  @@ fun () ->
  if trace then Obs.trace_at_exit ();
  Option.iter Obs.write_at_exit metrics;
  match SJ.lock_flow spec with
  | Error d -> die d
  | Ok r ->
      print_string (SJ.lock_render r);
      (match out with
      | None -> ()
      | Some path ->
          write_file path (N.Verilog.to_string r.C.Flow.locked_full);
          Printf.printf "locked design written to %s\n" path);
      (match bitstream_out with
      | None -> ()
      | Some path ->
          write_file path
            (F.Bitstream.to_hex r.C.Flow.emitted.F.Emit.bitstream ^ "\n");
          Printf.printf "bitstream written to %s\n" path)

let trace_arg =
  let doc =
    "Print the span tree (per-pass wall time and counters) to stderr at \
     exit (same as setting SHELL_TRACE=1)."
  in
  Arg.(value & flag & info [ "trace" ] ~doc)

let lock_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~doc:"Write the locked design (netlist dialect).")
  in
  let bs_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "bitstream" ] ~doc:"Write the correct bitstream (hex).")
  in
  Cmd.v
    (Cmd.info "lock" ~doc:"Redact a benchmark with the SheLL flow.")
    Term.(
      const lock_run $ job_socket_arg $ priority_arg $ bench_arg $ style_arg
      $ route_arg $ lgc_arg $ seed_arg $ trace_arg $ metrics_arg $ out_arg
      $ bs_arg)

(* ---------------- lock-file ---------------- *)

let lock_file_run input style route lgc seed trace metrics out bitstream_out =
  if trace then Obs.trace_at_exit ();
  Option.iter Obs.write_at_exit metrics;
  let nl =
    match N.Verilog.parse (read_file input) with
    | nl -> nl
    | exception N.Verilog.Parse_error m -> dief "parse error: %s" m
  in
  if route = [] && lgc = [] then dief "pass --route/--lgc origin patterns";
  Printf.printf "parsed %s: %d cells
" (N.Netlist.name nl)
    (N.Netlist.num_cells nl);
  let cfg =
    {
      (C.Flow.shell_config
         ~target:
           (C.Flow.Fixed
              { route; lgc; label = String.concat "+" (route @ lgc) })
         ())
      with
      C.Flow.style;
      seed;
    }
  in
  let r = try C.Flow.run cfg nl with Diag.Error d -> die d in
  Format.printf "%a@." C.Flow.pp_summary r;
  Printf.printf "verify: %s
" (if C.Flow.verify r then "PASS" else "FAIL");
  (match out with
  | None -> ()
  | Some path ->
      write_file path (N.Verilog.to_string r.C.Flow.locked_full);
      Printf.printf "locked design written to %s
" path);
  match bitstream_out with
  | None -> ()
  | Some path ->
      write_file path (F.Bitstream.serialize r.C.Flow.emitted.F.Emit.bitstream);
      Printf.printf "bitstream written to %s
" path

let lock_file_cmd =
  let input =
    Arg.(
      required
      & opt (some string) None
      & info [ "i"; "input" ] ~doc:"Structural netlist file (library dialect).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~doc:"Write the locked design.")
  in
  let bs_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "bitstream" ] ~doc:"Write the bitstream (versioned format).")
  in
  Cmd.v
    (Cmd.info "lock-file"
       ~doc:"Redact an external structural netlist with the SheLL flow.")
    Term.(
      const lock_file_run $ input $ style_arg $ route_arg $ lgc_arg $ seed_arg
      $ trace_arg $ metrics_arg $ out_arg $ bs_arg)

(* ---------------- attack ---------------- *)

(* every attack command funnels through the unified interface now: one
   verdict type, one budget record, any registered attack by name *)
let attack_run socket priority bench style route lgc seed attack_name dips
    conflicts seconds vectors metrics =
  let job =
    SP.Attack
      {
        SP.target = lock_spec bench style route lgc seed;
        attack = attack_name;
        dips;
        conflicts;
        seconds;
        vectors;
      }
  in
  run_job socket priority job ~local_only:[ ("--metrics", metrics <> None) ]
  @@ fun () ->
  Option.iter Obs.write_at_exit metrics;
  match SJ.run job with
  | Error d -> die d
  | Ok o -> print_string o.SJ.output

let dips_arg = Arg.(value & opt int 64 & info [ "dips" ] ~doc:"Max DIPs.")

let conflicts_arg =
  Arg.(value & opt int 200_000 & info [ "conflicts" ] ~doc:"Max conflicts.")

let seconds_arg =
  Arg.(value & opt float 30.0 & info [ "seconds" ] ~doc:"Time limit.")

let vectors_arg =
  Arg.(
    value & opt int 256
    & info [ "vectors" ]
        ~doc:"Simulation sample size for the sim-family attacks.")

let attack_cmd =
  let attack_name_arg =
    Arg.(
      value & opt string "sat"
      & info [ "a"; "attack" ] ~docv:"NAME"
          ~doc:"Registered attack to run (see `shell battery --list-attacks`).")
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:"Run one registered attack on a SheLL-redacted benchmark.")
    Term.(
      const attack_run $ job_socket_arg $ priority_arg $ bench_arg $ style_arg
      $ route_arg $ lgc_arg $ seed_arg $ attack_name_arg $ dips_arg
      $ conflicts_arg $ seconds_arg $ vectors_arg $ metrics_arg)

(* ---------------- battery ---------------- *)

let battery_run socket priority benches schemes attack_names jobs seed dips
    conflicts seconds vectors json metrics list_attacks =
  let spec =
    {
      SP.benches;
      schemes;
      attacks = attack_names;
      bt_seed = seed;
      bt_dips = dips;
      bt_conflicts = conflicts;
      bt_seconds = seconds;
      bt_vectors = vectors;
    }
  in
  run_job socket priority (SP.Battery spec)
    ~local_only:
      [
        ("-j", jobs <> None);
        ("--list-attacks", list_attacks);
        ("--metrics", metrics <> None);
        ("text output (without --json)", not json);
      ]
  @@ fun () ->
  Option.iter Obs.write_at_exit metrics;
  if list_attacks then
    List.iter
      (fun (a : A.Attack.t) ->
        Printf.printf "%-11s %-12s %s\n" a.A.Attack.name
          (String.concat ","
             (List.map A.Attack.capability_name a.A.Attack.capabilities))
          a.A.Attack.description)
      A.Battery.all
  else
    match SJ.battery_matrix ?jobs spec with
    | Error d -> die d
    | Ok m ->
        if json then print_string (SJ.battery_render_json m)
        else Format.printf "%a@." A.Battery.pp_matrix m

let battery_cmd =
  let benches =
    Arg.(
      value & opt_all string []
      & info [ "b"; "benchmark" ] ~docv:"NAME"
          ~doc:"Benchmark to lock and attack (repeatable).")
  in
  let schemes =
    Arg.(
      value
      & opt_all string [ "xor:8"; "mux:8" ]
      & info [ "scheme" ] ~docv:"SPEC"
          ~doc:
            "Locking scheme spec: xor:N, rlut:N, hlut:N, mux:N or muxlut:N \
             (repeatable; default xor:8 and mux:8).")
  in
  let attacks =
    Arg.(
      value & opt_all string []
      & info [ "a"; "attack" ] ~docv:"NAME"
          ~doc:"Restrict to one registered attack (repeatable; default all).")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the (subject x attack) fan-out (default: \
             SHELL_JOBS or the core count). The matrix is byte-identical for \
             any value.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Machine-readable matrix on stdout (stable: no wall-clock \
             fields).")
  in
  let list_attacks =
    Arg.(
      value & flag
      & info [ "list-attacks" ] ~doc:"List the attack registry and exit.")
  in
  Cmd.v
    (Cmd.info "battery"
       ~doc:
         "Run the whole attack battery over locked variants of the bundled \
          benchmarks and print the per-scheme x per-attack resilience \
          matrix.")
    Term.(
      const battery_run $ job_socket_arg $ priority_arg $ benches $ schemes
      $ attacks $ jobs $ seed_arg $ dips_arg $ conflicts_arg $ seconds_arg
      $ vectors_arg $ json $ metrics_arg $ list_attacks)

(* ---------------- stats ---------------- *)

let stats_run bench style route lgc seed attack =
  Obs.set_enabled true;
  match SJ.lock_flow (lock_spec bench style route lgc seed) with
  | Error d -> die d
  | Ok r ->
      if attack then begin
        let lk = C.Flow.locked_sub r in
        ignore
          (A.Sat_attack.attack.A.Attack.run
             (A.Attack.budget ~max_dips:32 ~max_conflicts:50_000
                ~time_limit:5.0 ())
             (A.Attack.subject
                ~cycle_blocks:r.C.Flow.emitted.F.Emit.cycle_blocks
                ~original:r.C.Flow.cut.C.Extraction.sub lk))
      end;
      Printf.printf "span tree for `lock -b %s`%s:\n" bench
        (if attack then " + attack" else "");
      Obs.pp_spans Format.std_formatter (Obs.spans ());
      print_newline ();
      let nonzero (s : Obs.sample) =
        match s.Obs.value with
        | Obs.Counter v | Obs.Gauge v -> v <> 0
        | Obs.Histogram { count; _ } -> count <> 0
      in
      print_string
        (Obs.to_prometheus (List.filter nonzero (Obs.snapshot ())))

let stats_cmd =
  let attack =
    Arg.(
      value & flag
      & info [ "attack" ]
          ~doc:"Also run a short SAT attack so its spans show up.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run the lock flow with telemetry on and print the hierarchical \
          span tree plus every non-zero metric (Prometheus text format).")
    Term.(
      const stats_run $ bench_arg $ style_arg $ route_arg $ lgc_arg $ seed_arg
      $ attack)

(* ---------------- fuzz ---------------- *)

let fuzz_run socket priority metrics seed cases jobs oracle_names self_test
    no_shrink dir list_oracles =
  run_job socket priority
    (SP.Fuzz { SP.fz_seed = seed; cases })
    ~local_only:
      [
        ("-j", jobs <> None);
        ("--oracle", oracle_names <> []);
        ("--self-test", self_test);
        ("--dir", dir <> None);
        ("--list-oracles", list_oracles);
        ("--metrics", metrics <> None);
        ("shrinking (without --no-shrink)", not no_shrink);
      ]
  @@ fun () ->
  Option.iter Obs.write_at_exit metrics;
  if list_oracles then
    List.iter
      (fun (o : Fz.Oracles.t) ->
        Printf.printf "%-12s %s\n" o.Fz.Oracles.name o.Fz.Oracles.description)
      Fz.Oracles.all
  else begin
    let oracles =
      match oracle_names with
      | [] -> Fz.Oracles.all
      | names ->
          List.map
            (fun nm ->
              match Fz.Oracles.find nm with
              | Some o -> o
              | None -> dief "unknown oracle %S (try --list-oracles)" nm)
            names
    in
    if self_test then begin
      let stats = Fz.Runner.self_test ?jobs ~oracles ~seed ~cases () in
      Fz.Runner.pp_self_test Format.std_formatter stats;
      if not (Fz.Runner.self_test_ok stats) then begin
        prerr_endline "self-test failed: some oracle is blind to its fault class";
        exit 1
      end
    end
    else begin
      let report =
        Fz.Runner.run ?jobs ~oracles ~shrink:(not no_shrink) ?out_dir:dir ~seed
          ~cases ()
      in
      Fz.Runner.pp_report Format.std_formatter report;
      if not (Fz.Runner.ok report) then exit 1
    end
  end

let fuzz_cmd =
  let cases =
    Arg.(
      value & opt int 200
      & info [ "n"; "cases" ] ~docv:"N"
          ~doc:"Number of random cases to generate.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains (default: SHELL_JOBS or the core count). The \
             report is byte-identical for any value.")
  in
  let oracle =
    Arg.(
      value & opt_all string []
      & info [ "oracle" ] ~docv:"NAME"
          ~doc:"Run only this oracle (repeatable; default: all).")
  in
  let self_test =
    Arg.(
      value & flag
      & info [ "self-test" ]
          ~doc:
            "Mutation-injection mode: inject single faults and verify every \
             oracle catches its fault class at least once.")
  in
  let no_shrink =
    Arg.(
      value & flag
      & info [ "no-shrink" ] ~doc:"Report failures without minimizing them.")
  in
  let dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Write a minimized Verilog reproducer per failure into $(docv).")
  in
  let list_oracles =
    Arg.(
      value & flag
      & info [ "list-oracles" ] ~doc:"List the oracle battery and exit.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random netlists through the oracle battery \
          (sim vs SAT, passes vs Equiv, lock/unlock, emit round-trips). \
          Deterministic in --seed; exits 1 on any failure.")
    Term.(
      const fuzz_run $ job_socket_arg $ priority_arg $ metrics_arg $ seed_arg
      $ cases $ jobs $ oracle $ self_test $ no_shrink $ dir $ list_oracles)

(* ---------------- lint ---------------- *)

module Lint = Shell_lint.Lint
module Rules = Shell_lint.Rules

let lint_run socket priority metrics benches files locked style seed jobs
    json_out severity baseline update_baseline list_rules =
  run_job socket priority
    (SP.Lint
       {
         SP.lint_benches = benches;
         locked;
         lint_style = SJ.style_id style;
         lint_seed = seed;
       })
    ~local_only:
      [
        ("-i", files <> []);
        ("-j", jobs <> None);
        ("--severity " ^ severity, severity <> "info");
        ("--baseline", baseline <> None);
        ("--update-baseline", update_baseline);
        ("--list-rules", list_rules);
        ("--metrics", metrics <> None);
        ("text output (without --json)", not json_out);
      ]
  @@ fun () ->
  Option.iter Obs.write_at_exit metrics;
  if list_rules then
    List.iter
      (fun (r : Lint.rule) ->
        Printf.printf "%-22s %-10s %-5s %s\n" r.Lint.name
          (Lint.pack_name r.Lint.pack)
          (Lint.severity_name r.Lint.severity)
          r.Lint.help)
      Rules.all
  else begin
    if update_baseline && baseline = None then
      dief "--update-baseline needs --baseline FILE";
    let severity =
      match Lint.severity_of_string severity with
      | Some s -> s
      | None -> dief "unknown severity %S (error, warn or info)" severity
    in
    let base_fps =
      match baseline with
      | Some path when not update_baseline -> (
          match Lint.load_baseline path with
          | Ok fps -> fps
          | Error m -> dief "%s" m)
      | _ -> []
    in
    if benches = [] && files = [] then
      dief "nothing to lint: pass -b BENCH and/or -i FILE";
    let bench_subjects =
      match SJ.lint_subjects ~locked ~style ~seed benches with
      | Ok subjects -> subjects
      | Error d -> die d
    in
    let file_subjects =
      List.map
        (fun path ->
          match N.Verilog.parse (read_file path) with
          | nl -> Lint.subject nl
          | exception N.Verilog.Parse_error m ->
              dief "%s: parse error: %s" path m)
        files
    in
    let reports =
      List.map
        (Lint.run ?jobs ~severity ~baseline:base_fps ~rules:Rules.all)
        (bench_subjects @ file_subjects)
    in
    let plural n noun =
      Printf.sprintf "%d %s%s" n noun (if n = 1 then "" else "s")
    in
    (match baseline with
    | Some path when update_baseline ->
        let lines =
          List.concat_map
            (fun (r : Lint.report) ->
              List.map
                (fun f ->
                  Lint.baseline_line ~subject_name:r.Lint.subject_name f ^ "\n")
                r.Lint.findings)
            reports
        in
        write_file path
          (String.concat ""
             ("# shell lint baseline: one fingerprint per accepted finding\n"
             :: lines));
        Printf.printf "baseline written to %s (%s)\n" path
          (plural (List.length lines) "finding")
    | _ -> ());
    let total f = List.fold_left (fun acc r -> acc + f r) 0 reports in
    if json_out then
      print_endline
        (Shell_util.Jsonw.to_string ~indent:2 (Lint.reports_json reports))
    else begin
      List.iter (fun r -> Format.printf "%a@.@?" Lint.pp_report r) reports;
      Printf.printf "lint: %s, %s, %s, %s, %d suppressed\n"
        (plural (List.length reports) "subject")
        (plural (total (fun r -> r.Lint.errors)) "error")
        (plural (total (fun r -> r.Lint.warns)) "warning")
        (plural (total (fun r -> r.Lint.infos)) "note")
        (total (fun r -> r.Lint.suppressed))
    end;
    if total (fun r -> r.Lint.errors) > 0 && not update_baseline then exit 1
  end

let lint_cmd =
  let benches =
    Arg.(
      value & opt_all string []
      & info [ "b"; "benchmark" ] ~docv:"NAME"
          ~doc:"Lint a bundled benchmark (repeatable).")
  in
  let files =
    Arg.(
      value & opt_all string []
      & info [ "i"; "input" ] ~docv:"FILE"
          ~doc:"Lint a structural netlist file (repeatable).")
  in
  let locked =
    Arg.(
      value & flag
      & info [ "locked" ]
          ~doc:
            "Run the SheLL flow on each benchmark first and lint the locked \
             result with its fabric, bitstream and selection artifacts \
             (activates the security and fabric rule packs).")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the rule fan-out (default: SHELL_JOBS or the \
             core count). Output is byte-identical for any value.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Machine-readable report on stdout.")
  in
  let severity =
    Arg.(
      value & opt string "info"
      & info [ "severity" ] ~docv:"LEVEL"
          ~doc:"Reporting floor: error, warn or info (default).")
  in
  let baseline =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Suppress findings whose fingerprint appears in $(docv) (one per \
             line, # comments allowed).")
  in
  let update_baseline =
    Arg.(
      value & flag
      & info [ "update-baseline" ]
          ~doc:
            "Rewrite the --baseline file to accept every finding of this \
             run, then exit 0.")
  in
  let list_rules =
    Arg.(
      value & flag
      & info [ "list-rules" ] ~doc:"List the rule registry and exit.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static analysis over netlists and locked designs: structural \
          well-formedness, the paper's locking invariants and \
          fabric/bitstream accounting. Exits 1 on unsuppressed errors.")
    Term.(
      const lint_run $ job_socket_arg $ priority_arg $ metrics_arg $ benches
      $ files $ locked $ style_arg $ seed_arg $ jobs $ json $ severity
      $ baseline $ update_baseline $ list_rules)

(* ---------------- bench ---------------- *)

module BH = Shell_bench_history

let bench_run targets jobs history record check report allowlist
    time_tolerance commit against list_targets =
  if list_targets then
    List.iter
      (fun (t : BH.Targets.t) ->
        Printf.printf "%-10s %s\n" t.BH.Targets.name t.BH.Targets.description)
      BH.Targets.all
  else
    let opts =
      {
        BH.Runner.targets;
        jobs;
        history;
        record;
        check;
        report;
        allowlist;
        time_tolerance;
        commit;
        against;
      }
    in
    match BH.Runner.execute opts with
    | Ok () -> ()
    | Error ds ->
        List.iter (fun d -> prerr_endline (Diag.to_string d)) ds;
        exit 1

let bench_cmd =
  let targets =
    Arg.(
      value & opt_all string []
      & info [ "t"; "target" ] ~docv:"NAME"
          ~doc:
            "Bench target to run (repeatable; default all). See \
             --list-targets.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains (default: SHELL_JOBS or the core count). The \
             stable part of every record is byte-identical for any value.")
  in
  let history =
    Arg.(
      value
      & opt (some string) None
      & info [ "history" ] ~docv:"FILE"
          ~doc:"JSONL history file (default ./BENCH_HISTORY.jsonl).")
  in
  let record =
    Arg.(
      value & flag
      & info [ "record" ]
          ~doc:"Append one record per target to the history.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Diff each fresh record's stable counters and span structure \
             against the last committed record of the same target; exit 1 \
             on unexplained drift.")
  in
  let report =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:
            "Write a self-contained HTML trend page over the history to \
             $(docv).")
  in
  let allowlist =
    Arg.(
      value
      & opt (some string) None
      & info [ "allowlist" ] ~docv:"FILE"
          ~doc:
            "Intentional-change patterns, one per line: $(i,key) or \
             $(i,target:key), trailing * wildcard, # comments.")
  in
  let time_tolerance =
    Arg.(
      value
      & opt (some float) None
      & info [ "time-tolerance" ] ~docv:"FRAC"
          ~doc:
            "Also flag per-bench wall times drifting beyond the \
             $(docv)-relative band (e.g. 0.5 = +-50%). Off by default: \
             times are machine noise; counters are the gate.")
  in
  let commit =
    Arg.(
      value
      & opt (some string) None
      & info [ "commit" ] ~docv:"ID"
          ~doc:
            "Commit id stamped into records (default: SHELL_BENCH_COMMIT or \
             the git HEAD read from .git).")
  in
  let against =
    Arg.(
      value
      & opt (some string) None
      & info [ "against" ] ~docv:"COMMIT"
          ~doc:
            "--check baseline selector: a commit id (prefixes ok) or \
             $(b,merge-base) to use SHELL_BENCH_MERGE_BASE / the origin \
             default-branch tip read from .git. Falls back to the last \
             record per target, with a warning, when no record matches.")
  in
  let list_targets =
    Arg.(
      value & flag
      & info [ "list-targets" ] ~doc:"List the target registry and exit.")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run the recordable bench targets and maintain the JSONL perf \
          history: --record appends, --check gates on stable-counter drift, \
          --report renders the HTML trend page.")
    Term.(
      const bench_run $ targets $ jobs $ history $ record $ check
      $ report $ allowlist $ time_tolerance $ commit $ against $ list_targets)

(* ---------------- serve ---------------- *)

let socket_arg =
  let doc =
    "Daemon socket: a Unix socket path (anything containing '/', the \
     default) or host:port for TCP."
  in
  let env = Cmd.Env.info "SHELL_SOCKET" in
  Arg.(
    value
    & opt string "/tmp/shell-serve.sock"
    & info [ "socket" ] ~env ~docv:"ADDR" ~doc)

let serve_run socket queue_cap max_frame max_seconds cache_dir cache_max_bytes
    gc_only verbose =
  if gc_only then begin
    match cache_dir with
    | None -> dief "serve --gc needs --cache-dir"
    | Some dir ->
        let max_bytes = Option.value ~default:0 cache_max_bytes in
        let rep = Shell_serve.Store.gc (Shell_serve.Store.create ~root:dir) ~max_bytes in
        Format.printf "%a@." Shell_serve.Store.pp_gc_report rep
  end
  else
    let cfg =
      {
        SS.address = address_of_arg socket;
        queue_cap;
        max_frame;
        max_seconds;
        store_dir = cache_dir;
        cache_max_bytes;
        log = verbose;
      }
    in
    SS.serve cfg

let serve_cmd =
  let queue_cap =
    Arg.(
      value & opt int 64
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:
            "Admission queue depth; submissions beyond it are rejected with \
             a typed queue_full diagnostic.")
  in
  let max_frame =
    Arg.(
      value
      & opt int Shell_util.Jsonw.default_max_frame
      & info [ "max-frame" ] ~docv:"BYTES"
          ~doc:"Reject request frames larger than $(docv).")
  in
  let max_seconds =
    Arg.(
      value & opt float 600.0
      & info [ "max-seconds" ] ~docv:"S"
          ~doc:"Clamp per-job time budgets to $(docv) seconds.")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Spill the pass cache to a content-addressed store under \
             $(docv) so warm hits survive daemon restarts. Evict by \
             deleting the directory.")
  in
  let cache_max_bytes =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-max-bytes" ] ~docv:"BYTES"
          ~doc:
            "Size cap on the spill store: least-recently-read blobs are \
             pruned back under $(docv) at daemon startup (and by \
             $(b,--gc)). Off by default.")
  in
  let gc_only =
    Arg.(
      value & flag
      & info [ "gc" ]
          ~doc:
            "Don't start the daemon: prune the --cache-dir store to \
             --cache-max-bytes (default 0 = empty it), print the typed \
             report and exit.")
  in
  let verbose =
    Arg.(
      value & flag & info [ "verbose" ] ~doc:"Log admissions/jobs to stderr.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the lock-as-a-service daemon: lock/attack/battery/fuzz/lint \
          jobs over a Unix/TCP socket as length-prefixed JSON, with an \
          admission-control queue, per-job priorities and budget caps, \
          Prometheus metrics, and an on-disk pass-cache spill store (size \
          capped via --cache-max-bytes; prune offline with --gc). Stop it \
          with `shell client shutdown`.")
    Term.(
      const serve_run $ socket_arg $ queue_cap $ max_frame $ max_seconds
      $ cache_dir $ cache_max_bytes $ gc_only $ verbose)

(* ---------------- client ---------------- *)

(* status, metrics, ping and shutdown: one request each, its answer
   rendered on stdout *)
let client_query name ~doc query =
  let run socket =
    match with_daemon socket query with
    | Ok text -> print_string text
    | Error m -> dief "%s" m
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ socket_arg)

let client_cmd =
  Cmd.group
    (Cmd.info "client"
       ~doc:
         "Talk to a running `shell serve` daemon: query its status or \
          metrics, ping it or shut it down. Jobs go to the daemon with \
          --socket on lock, attack, battery, fuzz and lint.")
    [
      client_query "status"
        ~doc:
          "Print the daemon's queue depth, job counts, cache hit rates and \
           per-job-kind span summaries as JSON."
        (fun c ->
          Result.map
            (fun info ->
              Shell_util.Jsonw.to_string ~indent:2 (SP.status_info_json info)
              ^ "\n")
            (SC.status c));
      client_query "metrics"
        ~doc:"Print the daemon's live metrics (Prometheus text format)."
        SC.metrics;
      client_query "ping" ~doc:"Check the daemon is alive." (fun c ->
          Result.map (Printf.sprintf "pong (protocol v%d)\n") (SC.ping c));
      client_query "shutdown" ~doc:"Ask the daemon to exit." SC.shutdown;
    ]

(* ---------------- main ---------------- *)

let () =
  let doc = "SheLL: shrinking eFPGA fabrics for logic locking (DATE 2023)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "shell" ~version:"1.0.0" ~doc)
          [
            list_cmd;
            analyze_cmd;
            lock_cmd;
            lock_file_cmd;
            attack_cmd;
            battery_cmd;
            stats_cmd;
            fuzz_cmd;
            lint_cmd;
            bench_cmd;
            serve_cmd;
            client_cmd;
          ]))
