(** One-shot integer-valued gates: preemptible protocol waits.

    A gate is a write-once cell another actor resolves exactly once (2PC:
    the coordinator's vote-collection outcome, a participant's
    commit/abort decision).  Waiting on a gate from a transaction program
    is expressed as a [Gate_wait] micro-op, which the worker serves with
    the same park/unpark machinery as durable-commit waits — so a 2PC
    round trip never holds a context slot hostage.

    Registries are single-domain, like the DES: check-then-park within one
    worker activation is race-free. *)

type t

val create : unit -> t

val fresh : t -> int
(** Allocate a new unresolved gate and return its id. *)

val resolve : t -> int -> value:int -> unit
(** Latch [value] and fire registered waiters in registration order.
    Idempotent: the first resolve wins; later calls (duplicated fabric
    deliveries, a timeout racing the real decision) are counted in
    {!dup_resolves} and otherwise ignored.
    @raise Invalid_argument on an unknown id. *)

val ready : t -> int -> bool
(** The gate has been resolved.  @raise Invalid_argument on unknown id. *)

val value : t -> int -> int
(** @raise Invalid_argument when unresolved or unknown. *)

val park : t -> int -> notify:(unit -> unit) -> unit
(** Register a waiter; fires at resolve time, or immediately when the
    gate is already resolved.  @raise Invalid_argument on unknown id. *)
