(** The standby: persists shipped LSN ranges on its own device, applies
    them through {!Durability.Recovery.Applier} (redo-only, idempotent —
    duplicated and overlapping deliveries are harmless), tracks apply lag
    in LSNs and virtual µs, and acks progress.  A batch carries no
    records: of a range [first, upto) the replica keeps the fresh part
    [max first expected_next, upto) and, when its device write
    completes, reads those records from the primary's log, whose entries
    below the durable LSN never change.  LSN gaps — a batch starting
    past the expected LSN, or a heartbeat advertising a durable LSN
    beyond it — trigger NAK re-requests.  Applied state always equals the
    replica's own durable prefix: records are fed only at device write
    completion, and a write still in flight at promotion is discarded
    like a torn tail.  The applier holds flat per-table arrays until the
    engine is built, at {!promote} or at the first {!engine} call. *)

type t

val create :
  ?obs:Obs.Sink.t ->
  Sim.Des.t ->
  clock:Sim.Clock.t ->
  primary_log:Durability.Log.t ->
  device:Durability.Device.t ->
  ack_ch:Msg.to_primary Uintr.Channel.t ->
  unit ->
  t

val start : t -> unit
(** Seed the replica engine from the primary's bootstrap image (call
    after the primary snapshots its base, before any batch arrives). *)

val set_on_alive : t -> (unit -> unit) option -> unit
(** Liveness tap: runs on every delivery from the primary (batch or
    heartbeat) — the failure detector's food. *)

val handle : t -> Msg.to_replica -> unit
(** Process a shipped batch or heartbeat (wired as the ship channel's
    receiver).  Ignored after promotion or halt. *)

val promote : t -> Storage.Engine.t * int * int
(** Finish promotion: discard buffered markerless transactions (the torn
    tail), resume the timestamp counter, return
    [(engine, applied_lsn, torn_discarded)].  The engine is ready to
    serve new transactions. *)

val halt : t -> unit
(** Replica crash: stop processing (in-flight device writes are
    abandoned). *)

val engine : t -> Storage.Engine.t
(** The applied state as an engine, built at the first call if
    {!promote} has not built it; read it once the run is over, since a
    device write completing after the build raises. *)

val persisted_lsn : t -> int
val applied_lsn : t -> int

val promoted : t -> bool
val batches : t -> int

val gaps : t -> int
(** LSN gaps detected (each one NAKed). *)

val dup_records : t -> int
(** Already-applied records received again (duplicates / re-ship
    overlap). *)

val txns_applied : t -> int

val lag_lsn_hist : t -> Sim.Histogram.t
(** Apply lag behind the primary's durable LSN, sampled per batch. *)

val lag_us_hist : t -> Sim.Histogram.t
(** Flush-to-applied latency per batch, virtual µs. *)

val max_lag_lsn : t -> int
