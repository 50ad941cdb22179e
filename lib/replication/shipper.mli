(** Primary-side log shipper.

    Streams durable log suffixes to the standby, batched per group-commit
    flush completion; heartbeats carry the durable LSN so the replica can
    detect gaps even when the lost batch was the last one.  NAKs rewind
    the ship cursor and re-send from the log (at-least-once; the replica's
    apply is idempotent).  In [Semi_sync] mode the shipper installs the
    daemon's ack gate — commits acknowledge only once the replica has
    persisted past their marker LSN — and degrades to async (releasing
    all gated waiters) when the replica stops acking for the degrade
    timeout while shipped data is outstanding. *)

type mode = Async | Semi_sync

type t

val create :
  ?obs:Obs.Sink.t ->
  Sim.Des.t ->
  clock:Sim.Clock.t ->
  log:Durability.Log.t ->
  daemon:Durability.Daemon.t ->
  ship_ch:Msg.to_replica Uintr.Channel.t ->
  mode:mode ->
  hb_interval_us:float ->
  degrade_timeout_us:float ->
  unit ->
  t
(** @raise Invalid_argument when an interval is not positive. *)

val start : t -> unit
(** Install the flush hook (and, in semi-sync, the ack gate) and begin
    the heartbeat/watchdog loop. *)

val handle : t -> Msg.to_primary -> unit
(** Process a replica ack or NAK (wired as the ack channel's receiver). *)

val halt : t -> unit
(** Primary crash: stop shipping and heartbeats, drop the flush hook. *)

val mode : t -> mode

val shipped_upto : t -> int
(** Next LSN the replica is expected to receive. *)

val degraded : t -> bool
(** Semi-sync fell back to async (replica silent past the timeout). *)

val batches : t -> int
val records_shipped : t -> int

val resent_records : t -> int
(** Records re-shipped in response to NAKs (at-least-once overhead). *)

val naks : t -> int
val acks : t -> int
val heartbeats : t -> int
