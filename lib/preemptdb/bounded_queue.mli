(** Bounded FIFO scheduling queue (models the lock-free per-worker queues
    of §4.1; capacity = the paper's queue-size knob). *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity < 1]. *)

val capacity : 'a t -> int
val length : 'a t -> int
val is_empty : 'a t -> bool
val free_slots : 'a t -> int

val push : 'a t -> 'a -> bool
(** [false] when full. *)

val pop : 'a t -> 'a option
val clear : 'a t -> unit
