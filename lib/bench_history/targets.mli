(** The recordable bench targets.

    Each target is a fixed, budget-capped workload chosen so that its
    diffable counters — stable Obs metrics plus the {!extra_counters}
    pinned for these specific workloads — are a pure function of the
    committed code: DIP/conflict/vector ceilings bind before any wall
    clock, randomness is seeded, and fan-out rides the deterministic
    domain pool. Wall times are measured and recorded but never part
    of the stable contract. *)

type t = {
  name : string;
  description : string;
  run : jobs:int -> (string * float) list;
      (** Execute the workload at the given job count; returns
          per-benchmark wall seconds, in a deterministic order. *)
}

val all : t list
(** grid, simulate, battery — registry order. *)

val find : string -> t option
val names : unit -> string list

val extra_counters : string list
(** Unstable-registered counters that {e are} deterministic under
    these capped workloads (solver totals, pass-cache traffic, DIS
    iterations, battery breaks) and therefore ride in each record's
    diffable counter snapshot alongside the stable set. Wall-clock
    histograms are deliberately absent. *)
