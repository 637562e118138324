(** Outside-in layer tracing: wall time and minor-heap allocation
    around direct calls into a layer's public functions. One probe is
    meant for one domain — allocation is read from the calling
    domain's own minor-word counter. *)

type t

val create : unit -> t

val layer : t -> string -> (unit -> 'a) -> 'a
(** [layer t name f] runs [f ()], adding its wall seconds and the
    minor words it allocated to [name]'s totals. Calls may nest; the
    outer layer's totals then include the inner one's. *)

val count : t -> string -> int -> unit
(** Add to a named integer count. *)

val seconds : t -> string -> float
val mwords : t -> string -> float
(** Totals for a layer name (0 when never entered). *)

val counted : t -> string -> int
(** A named count (0 when never counted). *)
