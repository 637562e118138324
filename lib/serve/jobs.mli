(** Job execution shared by the CLI and the daemon.

    The serve contract is byte-identity: a job submitted over the
    socket returns exactly the bytes the equivalent CLI invocation
    prints. Both front ends call these functions, so the property
    holds by construction. Everything returns [(_, Diag.t) result] —
    only the CLI maps errors to [exit 1]. *)

module C = Shell_core
module F = Shell_fabric
module A = Shell_attacks

val netlist_of_bench :
  string -> (Shell_netlist.Netlist.t, Shell_util.Diag.t) result
(** Bundled benchmarks: the catalog plus soc/xbar/desx. *)

val default_tfr : string -> (string list * string list * string) option
(** Per-benchmark SheLL TfR defaults: (route, lgc, label). *)

val style_id : F.Style.t -> string
(** Wire spelling ("openfpga" | "fabulous" | "muxchain") — the same
    strings the CLI's --style enum accepts. *)

val style_of_string : string -> (F.Style.t, Shell_util.Diag.t) result

val lock_flow :
  Protocol.lock_spec -> (C.Flow.result, Shell_util.Diag.t) result
(** Resolve benchmark + TfR and run the full SheLL flow. *)

val lock_render : C.Flow.result -> string
(** The `shell lock` stdout bytes: summary + verify line. *)

val battery_matrix :
  ?jobs:int ->
  Protocol.battery_spec ->
  (A.Battery.matrix, Shell_util.Diag.t) result

val battery_render_json : A.Battery.matrix -> string
(** The `shell battery --json` stdout bytes. *)

val lint_subjects :
  locked:bool ->
  style:F.Style.t ->
  seed:int ->
  string list ->
  (Shell_lint.Lint.subject list, Shell_util.Diag.t) result
(** One lint subject per bundled benchmark, in order. With [~locked]
    each is first run through the default SheLL flow and linted with
    its fabric, bitstream and selection artifacts — the subject the
    pipeline's own lint pass checks. *)

type outcome = {
  output : string;  (** the stdout bytes of the equivalent command *)
  ok : bool;
      (** false when a lint report has errors or a fuzz campaign has
          failures: the command exits 1 *)
}

val run : ?jobs:int -> Protocol.job -> (outcome, Shell_util.Diag.t) result
(** Run any protocol job. The output is what the in-process command
    prints for the same flags: `lock`, `attack`, `battery --json`,
    `fuzz --no-shrink` (full oracle battery, no reproducer files: a
    shared daemon shouldn't write into its working directory for a
    remote client) and `lint --json`. *)
