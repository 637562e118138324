(** Summary statistics for the benchmark's metrics. Pure functions
    over float samples, kept apart from the workloads so they can be
    unit-tested. *)

val median : float list -> float
(** Median (mean of the two middle values for an even count). Raises
    [Invalid_argument] on an empty list. *)

val percentile : float list -> int -> float
(** [percentile xs p] is the nearest-rank [p]th percentile: the
    smallest sample with at least [p]% of the samples at or below it.
    [p] is clamped to [1, 100]. Raises [Invalid_argument] on an empty
    list. *)

type tail = {
  pct : int;  (** the percentile reported *)
  value : float;
  beyond : int;  (** samples strictly above its rank *)
  samples : int;
}

val tail : float list -> tail option
(** The highest whole percentile that still has at least 10 samples
    beyond its nearest rank; [None] when there are 10 samples or
    fewer, so no percentile qualifies. *)

val geomean : float list -> float
(** Geometric mean of positive samples. Raises [Invalid_argument] on an
    empty list or a sample that is not positive. *)

val pool_efficiency : op_seconds:float list -> jobs:int -> wall:float -> float
(** Sum of the operation times over [jobs] x [wall]: 1.0 when every
    domain is busy with operations for the whole wall time. *)
