(** Reference event queue: the original boxed-cell binary min-heap.

    Kept solely as the oracle for the event-queue differential test
    harness ([test/test_queue_diff.ml] and the interleaving property in
    [test/test_sim.ml]): both implementations are driven through identical
    operation scripts and must produce identical [(time, payload)] pop
    sequences.  The production queue is {!Event_queue}, a flat heap over
    unboxed arrays; this module must never be used on a hot path.

    Removing this module breaks the differential suite at compile time —
    deliberately.  Keyed on [(time, seq)] with FIFO tie-break, exactly like
    the production queue; [clear] keeps the tie-break counter in both. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Fresh empty queue.  [capacity] is an initial hint (default 256). *)

val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> time:int64 -> 'a -> unit
(** Schedule an event at absolute virtual [time] (cycles). *)

val peek_time : 'a t -> int64 option
(** Time of the earliest event, if any. *)

val pop : 'a t -> (int64 * 'a) option
(** Remove and return the earliest event with its time. *)

val pop_exn : 'a t -> int64 * 'a
(** @raise Invalid_argument on an empty queue. *)

val clear : 'a t -> unit
(** Empty the queue and reset the tie-break counter. *)

val drain : 'a t -> (int64 * 'a) list
(** Pop everything, earliest first. *)
