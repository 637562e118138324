(** DIMACS CNF reading/writing, for interoperability and tests. *)

type problem = { nvars : int; clauses : int list list }

type reason =
  | Bad_header  (** a [p] line that is not [p cnf <int> <count>] *)
  | Bad_literal  (** a clause token that is not an integer *)
  | Missing_header  (** no [p cnf] line anywhere *)

type error = {
  line : int;  (** 1-based *)
  token : string;
      (** the offending token: the variable count of a bad header (the
          whole line when the header has the wrong shape), the bad
          literal, or the first token of the first clause line when the
          header is missing ([""] when there is no clause line; [line]
          is then the last line) *)
  reason : reason;
}

val error_to_string : error -> string

val parse : string -> (problem, error) result
(** Comment lines and a single [p cnf] header are accepted; the header
    may follow clause lines. Parsing stops at the first error. *)

val print : problem -> string

val load_into : Solver.t -> problem -> unit
(** Allocate variables and add all clauses. *)

val solve_string : ?max_conflicts:int -> string -> (Solver.result, error) result
(** Parse and solve in one step. *)
