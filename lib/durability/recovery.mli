(** ARIES-lite redo recovery.

    Rebuild an engine from a log: install the newest image (a completed
    checkpoint pass if one exists, else the bootstrap base), then replay
    the durable log suffix from the image's start LSN, walking its LSNs
    through the log's column readers (no {!Log.record} is built).  Replay is
    redo-only and transaction-atomic — a transaction's records apply only
    when its commit marker is durable, so a torn tail (records flushed,
    marker lost) leaves no partial effects.  Per-record installs are
    idempotent by commit timestamp, which makes the fuzzy-checkpoint
    double-apply (image and replayed suffix both carrying a record)
    converge. *)

type stats = {
  rec_from_ckpt : bool;
  rec_image_rows : int;
  rec_entries_replayed : int;
  rec_txns_applied : int;
  rec_txns_torn : int;  (** records durable but commit marker lost *)
  rec_tables_created : int;
}

(** The incremental redo applier under [recover]: buffer records per
    transaction, apply on commit marker, idempotent per-row installs by
    commit timestamp.  A log-shipping replica feeds shipped LSN ranges
    through the same loop one batch at a time — duplicated or overlapping
    deliveries re-feed already-applied records harmlessly.  Crash
    recovery, the standby and the 2PC oracle ({!Check.Atomic}) all use it.

    Applied state is flat: per table, in creation order, the latest
    payload and commit timestamp of each OID (absent, tombstone or row).
    The engine is built from it once — at {!finish} or at the first
    {!engine} call, whichever comes first — with the same tables and
    table ids as their creation order, one tuple per OID up to the
    highest installed one (OID gaps as empty tuples), and one committed
    version per installed OID. *)
module Applier : sig
  type t

  val create : unit -> t
  (** An empty applier: no tables, no engine yet. *)

  val engine : t -> Storage.Engine.t
  (** The applied state as an engine, built at the first call (or by
      {!finish}); every later call returns the same engine.  Its
      timestamp counter resumes only at {!finish}. *)

  val create_table : t -> string -> unit
  (** @raise Invalid_argument once the engine is built, like every call
      below that installs. *)

  val load_image : t -> (string * (int * Storage.Value.t option * int64) list) list -> int
  (** Install a base/checkpoint image; returns rows installed. *)

  val feed : t -> Log.t -> first:int -> upto:int -> unit
  (** Feed the log's entries [first, upto) in LSN order, reading their
      columns (re-feeding already-applied records is harmless; skipping
      one is not — callers own gap detection).  Empty when
      [first >= upto]. *)

  val applied : t -> int

  val discard_pending : t -> int
  (** Drop buffered markerless transactions (torn tail at promotion);
      returns how many were discarded. *)

  val finish : t -> unit
  (** Build the engine if it is not built yet, and resume its
      commit-timestamp counter past the replayed maximum — required
      before the engine serves new transactions. *)

  (** {2 2PC in-doubt handling} (cross-shard recovery, {e lib/shard}) *)

  val prepared_count : t -> int
  (** In-doubt transactions: prepare marker durable, unresolved. *)

  val prepared : t -> int -> bool
  (** [prepared t gid]: gid's prepare marker was fed and is unresolved. *)

  val installed : t -> int -> bool
  (** [installed t gid]: gid's -4 install marker was fed (its writes were
      committed in memory before the crash). *)

  val installed_gids : t -> int list

  val decisions : t -> (int * int64 * int list) list
  (** Coordinator decision records fed to this applier:
      [(gid, commit_ts, participant shards)]. *)

  val resolve_in_doubt : t -> decided:(int -> int64 option) -> int * int
  (** Resolve every in-doubt transaction against the union of durable
      decisions across all shards: install at the decision timestamp when
      [decided gid] is [Some ts], presume abort otherwise.  Returns
      [(committed, aborted)].  Call before {!discard_pending}/{!finish}.
      @raise Invalid_argument once the engine is built. *)
end

val recover : Log.t -> Storage.Engine.t
val recover_with_stats : Log.t -> Storage.Engine.t * stats

val recover_applier : Log.t -> Applier.t
(** Like {!recover}, but stop after feeding the durable suffix: torn tails
    are NOT yet discarded and the timestamp counter NOT yet resumed.  The
    sharded-recovery caller unions {!Applier.decisions} across every
    shard's log, runs {!Applier.resolve_in_doubt} on each, then
    {!Applier.discard_pending} and {!Applier.finish}. *)

val durable_state_equal : Storage.Engine.t -> Storage.Engine.t -> bool
(** Same tables, same committed rows (tombstones and never-committed
    slots ignored, allocation counts ignored). *)
