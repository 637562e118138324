(** CDCL SAT solver.

    Complete conflict-driven clause learning with two-literal watching,
    VSIDS-style decision ordering, phase saving, first-UIP learning and
    Luby restarts. Literals use the DIMACS convention: variable [v > 0],
    literal [v] or [-v].

    The solver is incremental in the way the SAT attack needs: clauses
    may be added between [solve] calls, and [solve] accepts assumption
    literals that hold for that call only. A conflict at decision level
    0 proves the clauses themselves unsatisfiable: every later [solve]
    returns [Unsat], with or without assumptions.

    {1 Kernel layout}

    The search allocates nothing per propagation or decision, and per
    conflict only the learnt clause it keeps. Internally variable [v] has literals [2v] and [2v+1]. A value array
    indexed by literal answers "is this literal true?" with one read.
    Clauses are bare [int array]s in a growable array, watched in slots
    0 and 1. Watch lists, trail, trail limits and the VSIDS heap are
    int buffers owned by the solver, and conflict analysis reuses one
    learnt-clause buffer. [add_clause] deduplicates literals with a
    per-literal stamp.

    There are no blocker literals, no learnt-clause minimisation and no
    clause-database reduction. Each of them changes which clause is
    visited, learnt or kept, and so the search itself. The solver's
    effort counters ([solver_decisions], [solver_conflicts],
    [solver_learned_len], ...) and the attack's DIP counts are pinned
    exactly by the bench history ([shell bench --check]), so the search
    is part of the contract: the order of literals in a stored clause
    (reverse order of first occurrence), watch-list order and its
    in-place compaction, heap ties, the VSIDS bump order, phase saving
    and the Luby schedule all stay fixed. *)

type t

type result = Sat | Unsat | Unknown

val create : ?seed:int -> unit -> t
(** [seed] perturbs the initial saved phase of each variable (the
    default 0 keeps MiniSat's all-false phases). Distinct seeds steer
    the search down different branches of the same instance — the knob
    the attack portfolio races over. *)

val new_var : t -> int
(** Allocate the next variable (1, 2, ...). *)

val ensure_vars : t -> int -> unit
(** Make sure variables [1..n] exist. *)

val num_vars : t -> int

val add_clause : t -> int list -> unit
(** Clauses over existing variables. Adding a clause that is already
    falsified at level 0 makes the instance permanently unsatisfiable. *)

val add_shifted : t -> shift:int -> int array -> unit
(** [add_shifted t ~shift c] adds clause [c] with every variable moved
    up by [shift] ([l > 0] becomes [l + shift], [-v] becomes
    [-(v + shift)]), exactly as {!add_clause} would add the shifted
    list. One clause template then stamps out many copies of a circuit
    without building a shifted copy of the template first. [shift] must
    be non-negative; [c] is not retained. *)

val solve : ?assumptions:int list -> ?max_conflicts:int -> t -> result
(** [Unknown] only when [max_conflicts] was exhausted. *)

val value : t -> int -> bool
(** Model value of a variable after [Sat] (unassigned vars read [false]). *)

val model : t -> bool array
(** Index [v] holds the value of variable [v]; index 0 unused. *)

val num_conflicts : t -> int
(** Total conflicts across all [solve] calls (attack effort metric). *)

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
}
(** Cumulative search effort across all [solve] calls on this solver. *)

val stats : t -> stats
