(** Priority queue of timestamped events.

    A binary min-heap keyed on [(time, seq)], where [seq] is a per-queue
    counter that increases with every push, so events scheduled for the
    same virtual time pop in insertion order (deterministic replay).  Pop
    order is bit-identical to the reference heap {!Event_queue_ref} — the
    differential suite in [test/test_queue_diff.ml] holds both to that
    contract.

    The heap is three native-int arrays (time, seq, cell id) that sift by
    value; payloads sit in a cell store written once per push and cleared
    at pop.  Pushing allocates nothing (once the arrays have grown to the
    queue's high-water mark); popping allocates only what it returns.
    Push and pop cost O(log n), peek O(1).  The simulator's queue holds a
    few dozen events (a few hundred in the largest cluster); on its own
    push/pop sequence the heap takes half the time of the timing wheel it
    replaced (EXPERIMENTS.md). *)

type 'a t

(** Queue operations as seen by a {!set_tracer} hook, in execution order.
    Used to capture a workload-shaped operation trace for differential
    replay against the reference heap. *)
type trace_op =
  | Op_push of int64  (** a push at this time *)
  | Op_pop of int64  (** a pop that returned this time *)
  | Op_clear

val create : ?capacity:int -> unit -> 'a t
(** Fresh empty queue.  [capacity] is an initial hint (default 256). *)

val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> time:int64 -> 'a -> unit
(** Schedule an event at absolute virtual [time] (cycles).
    @raise Invalid_argument if [time] does not fit a 63-bit native int. *)

val push_int : 'a t -> time:int -> 'a -> unit
(** [push] taking the time as an unboxed native int — the allocation-free
    path the DES hot loop uses.  Identical ordering semantics. *)

val peek_time : 'a t -> int64 option
(** Time of the earliest event, if any. *)

val peek_time_int : 'a t -> int
(** Time of the earliest event as an unboxed native int — the
    allocation-free peek the DES hot loop uses.
    @raise Invalid_argument on an empty queue. *)

val pop : 'a t -> (int64 * 'a) option
(** Remove and return the earliest event with its time. *)

val pop_exn : 'a t -> int64 * 'a
(** @raise Invalid_argument on an empty queue. *)

val pop_exn_int : 'a t -> int * 'a
(** {!pop_exn} with the time as an unboxed native int — the DES inner
    loop's pop, which would otherwise box one int64 per event.
    @raise Invalid_argument on an empty queue. *)

val clear : 'a t -> unit
(** Empty the queue.  The tie-break counter keeps counting: seqs only order
    relative to each other, so a reused queue pops exactly like a fresh
    one. *)

val drain : 'a t -> (int64 * 'a) list
(** Pop everything, earliest first. *)

val set_tracer : 'a t -> (trace_op -> unit) option -> unit
(** Install (or clear) an operation tracer.  The hook observes every
    push/pop/clear; it must not mutate the queue. *)
