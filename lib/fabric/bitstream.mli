(** Bitstreams: the secret configuration of a redacted fabric.

    A bitstream is an ordered bit vector plus a segment directory
    mapping each configured element (LUT table, route select, chain
    select, flop bypass) to its bit range — the structure an attacker
    reconstructs, and what the verifier feeds back as the key. *)

type segment = {
  label : string;  (** e.g. ["lut42.table"], ["lut42.in2.sel"] *)
  offset : int;
  length : int;
}

type t

val builder : unit -> t
val append : t -> string -> bool array -> unit
(** Append a named segment; returns nothing, records offset. *)

val bits : t -> bool array
val length : t -> int
val segments : t -> segment list
val segment_bits : t -> string -> bool array option

type kind = Table | Routing  (** LUT truth-table vs route/chain select *)

val kind_of_label : string -> kind
(** Classify a segment label: [*table] segments hold truth-table
    storage, everything else is routing configuration. The one shared
    classifier behind {!Shell_attacks.Metrics} and the emitter's bit
    counters. *)

val kind_bits : t -> int * int
(** [(table_bits, routing_bits)] totals over all segments. *)

val to_hex : t -> string
(** Little-endian nibbles, segment directory not included. *)

val hamming : bool array -> bool array -> int
(** Bit differences between two keys (attack-quality metric). *)

(** {1 File format}

    A line-oriented text format: a header, one [segment] line per
    configured element, then the bits as hex. Round-trips through
    {!serialize}/{!deserialize}. *)

val serialize : t -> string

exception Parse_error of string

val deserialize : string -> t
(** Raises {!Parse_error} on malformed input. *)
