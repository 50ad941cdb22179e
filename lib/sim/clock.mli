(** Virtual-time clock arithmetic.

    The simulation counts time in CPU cycles of a nominal core frequency
    (default 2.4 GHz, matching the Xeon Gold 6448H base clock used in the
    paper's testbed).  This module converts between cycles and wall-clock
    units.  All conversions are pure. *)

type t = private {
  hz : float;  (** core frequency in cycles per second *)
}

val create : ?ghz:float -> unit -> t
(** [create ~ghz ()] makes a clock for a core running at [ghz] GHz.
    Default 2.4.  Raises [Invalid_argument] if [ghz <= 0.]. *)

val default : t
(** A 2.4 GHz clock. *)

val cycles_of_us : t -> float -> int64
val cycles_of_ms : t -> float -> int64
val cycles_of_sec : t -> float -> int64

val ns_of_cycles : t -> int64 -> float
val us_of_cycles : t -> int64 -> float
val ms_of_cycles : t -> int64 -> float
val sec_of_cycles : t -> int64 -> float

val pp_cycles : t -> Format.formatter -> int64 -> unit
(** Pretty-print a cycle count as a human-friendly duration
    (ns / µs / ms / s, three significant digits). *)
