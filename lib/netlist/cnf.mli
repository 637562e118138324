(** Tseitin encoding of combinational netlists into CNF.

    Variables are positive integers; literal [-v] is the negation of
    [v]. The encoding allocates one variable per net. Netlists must be
    combinational ([Dff]-free — take {!Netlist.comb_view} first);
    [Config_latch] outputs are treated as free variables (they are the
    bitstream the attacker solves for). *)

type t = {
  nvars : int;
  clauses : int list list;
  var_of_net : int array;  (** net id -> CNF variable (1-based) *)
}

val encode : Netlist.t -> t

val var_of : int -> t -> int
(** CNF variable of a net. *)

val lit : t -> int -> bool -> int
(** [lit t net polarity] is the literal asserting net = polarity. *)

(** {1 Growing an encoding}

    The SAT attack conjoins several circuit copies plus comparison
    logic. Each copy is the same clause list with its variables shifted
    past the previous copy's (the solver takes the shift as it adds a
    clause); [equal_clauses]/[xor_var] wire nets together. *)

val equal_clauses : int -> int -> int list list
(** [equal_clauses a b]: variable [a] equals variable [b]. *)

val xor_var : fresh:int -> int -> int -> int list list
(** [xor_var ~fresh a b]: clauses forcing variable [fresh] = a XOR b. *)

val or_clause : int list -> int list
(** Identity; kept for symmetry when assembling miters. *)

val to_dimacs : t -> string
