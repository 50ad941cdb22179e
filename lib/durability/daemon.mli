(** Pipelined group-commit daemon (Aether/ERMIA-style).

    At most one device flush is in flight; commits accumulating meanwhile
    form the next batch.  A flush starts when pending bytes reach the group
    threshold (checked on every commit via the log's kick hook and after
    each completion) or at the sweep interval, whichever comes first — so
    a lone commit waits at most one interval.

    Acks: a transaction's commit is acknowledged only when its marker LSN
    is inside the durable prefix.  {!try_ack} answers immediately (and
    records the ack); when it refuses, the worker either parks the
    transaction with {!park} — flush completion runs the notify closure,
    which the worker turns into a userspace interrupt — or, in the
    blocking ablation, spins re-asking {!try_ack}. *)

type t

val create :
  des:Sim.Des.t ->
  log:Log.t ->
  device:Device.t ->
  group_bytes:int ->
  group_interval:int64 ->
  unit ->
  t
(** [group_interval] is in cycles.  The device's fsync floor is declared
    as a path ({!Sim.Des.add_path}): a commit's step submits a flush whose
    completion, an event, wakes waiters on other workers no sooner.
    @raise Invalid_argument when either threshold is < 1. *)

val start : t -> unit
(** Install the log kick hook and begin the sweep loop.  The loop also
    keeps the DES event queue non-empty, which the workers' run-ahead
    protocol relies on while a transaction blocks on commit. *)

val set_emit : t -> (Obs.Event.t -> unit) option -> unit

val set_ack_gate : t -> (lsn:int -> bool) option -> unit
(** Semi-sync replication hook: when installed, an ack additionally
    requires the gate to pass for the marker LSN (i.e. the replica has
    acknowledged persisting it).  Parked waiters blocked only on the gate
    are released by {!notify_external}.  [None] (async / no replication)
    restores ack-on-local-durable. *)

val set_on_flush : t -> (unit -> unit) option -> unit
(** Runs after each flush completion advances the durable LSN, before
    waiters are notified — the log shipper streams the newly-durable
    suffix from here. *)

val notify_external : t -> unit
(** Re-examine parked waiters against the durable LSN and the ack gate.
    The shipper calls this when replica-ack progress advances, and when
    the gate is cleared on semi-sync → async degrade (replica crash). *)

val try_ack : t -> lsn:int -> bool
(** [true] iff the marker is durable — and, when an ack gate is
    installed, the gate passes — (the ack is recorded).  Always [false]
    after a crash. *)

val park : t -> lsn:int -> notify:(unit -> unit) -> unit
(** Register a commit waiter; [notify] runs (and the ack is recorded) at
    the first flush completion whose durable prefix covers [lsn], in
    commit order.  Dropped without notification on crash. *)

val crash : t -> rng:Sim.Rng.t -> unit
(** Fail-stop: the in-flight flush tears (a seeded random prefix of it
    survives — durable only ever advances), buffered records are lost,
    waiters are dropped, no further acks or flushes. *)

val crashed : t -> bool
val flushes : t -> int
val durable_lsn : t -> int
val log : t -> Log.t
val device : t -> Device.t
val waiting : t -> int

val acked : t -> int list
(** Marker LSNs acknowledged, oldest first — the crash oracle's "must
    survive" set. *)

val acked_count : t -> int

val ack_violations : t -> int
(** Acks recorded for LSNs not yet durable.  Always 0 unless the
    early-ack fault is armed; the crash oracle's self-test arms it to
    prove the checker catches a lying daemon. *)

val set_early_ack : t -> bool -> unit
val lost_at_crash : t -> int

val flush_bytes_hist : t -> Sim.Histogram.t
val group_txns_hist : t -> Sim.Histogram.t
