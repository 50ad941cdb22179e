(** The global redo log: dense LSNs, per-worker buffer accounting, durable
    prefix.

    Commits append their write records plus a trailing commit marker in one
    atomic step (inside the engine's commit protocol), so a transaction's
    records always occupy a contiguous LSN range and the marker being
    durable implies every record before it is too — the group-commit ack
    rule reduces to [marker_lsn < durable].

    Records are stored once, in fixed-size chunks of parallel columns
    indexed by LSN: transaction id, commit timestamp (unboxed), table and
    oid packed in one word, and the payload the committed version already
    holds.  Appends write the columns directly; a {!record} is built only
    when a reader asks for one ({!entry}, {!durable_entries}, the dump).
    The standby and recovery read ranges through the column readers
    ({!txn_at} and its siblings).

    {b Contract} — the standby relies on it to read a shipped LSN range
    from this log when its own device write completes: an entry below
    {!durable_lsn} never changes.  Appends go only at the end,
    {!set_durable} only advances, and a crash
    ({!Daemon.crash}) tears only the suffix past the durable LSN.

    The log also remembers the bootstrap-loaded {!base} image (direct
    installs bypass commits, so the log alone cannot reproduce them) and an
    optional fuzzy {!checkpoint}; {!Recovery} starts from whichever is
    newer and replays the durable suffix. *)

type record = {
  lsn : int;
  txn_id : int;
  commit_ts : int64;
  rtable : string;
  oid : int;
      (** -1 = DDL (table created), -2 = commit marker, -3 = 2PC prepare
          marker, -4 = 2PC install marker, -6 = 2PC coordinator decision
          record ([txn_id] = the global transaction id for the 2PC kinds) *)
  payload : Storage.Value.t option;  (** [None] = tombstone (or no payload) *)
  bytes : int;  (** modeled on-device size *)
}

(** A record's kind, from its oid. *)
type kind =
  | Write  (** [oid >= 0] *)
  | Ddl  (** -1 *)
  | Commit_marker  (** -2 *)
  | Prepare_marker  (** -3 *)
  | Install_marker  (** -4 *)
  | Decision
      (** -6: the coordinator's commit decision; its durability is the
          distributed commit point (presumed abort: no durable decision ⟹
          abort). *)

(** Per table: rows as [(oid, payload, commit_ts)], OID order. *)
type image = (string * (int * Storage.Value.t option * int64) list) list

type t

val create : n_workers:int -> unit -> t
(** Each worker's redo buffer holds 4096 records between drains; see
    {!buffer_overflows}.  @raise Invalid_argument when [n_workers < 1]. *)

val set_kick : t -> (unit -> unit) option -> unit
(** Hook invoked after each commit's records land, so the {!Daemon} can
    start a flush as soon as a batch threshold is crossed. *)

val attach : t -> Storage.Engine.t -> unit
(** Install the engine durability hooks: reserve at commit-begin, release
    at abort, record redo + marker at commit-install, DDL on table
    creation. *)

val snapshot_base : t -> Storage.Engine.t -> unit
(** Capture the current committed state as the recovery base image.  Call
    after bootstrap loading, before the run starts. *)

val next_lsn : t -> int
val durable_lsn : t -> int

val entry : t -> int -> record
(** Build the record at an LSN.
    @raise Invalid_argument when the LSN was never allocated. *)

val durable_entries : t -> record list
(** The durable prefix, LSN order — what survives a crash. *)

(** {2 Column readers} — one field of the entry at an LSN, with no
    {!record} built; the same bounds rule as {!entry}. *)

val kind_at : t -> int -> kind
val txn_at : t -> int -> int
val ts_at : t -> int -> int64
val oid_at : t -> int -> int
val table_at : t -> int -> string
val payload_at : t -> int -> Storage.Value.t option

val range_bytes : t -> first:int -> upto:int -> int
(** The modeled bytes of the entries [first, upto) — the sum of their
    records' [bytes].
    @raise Invalid_argument when the range leaves [0, next_lsn]. *)

val pending_bytes : t -> int
(** Bytes appended but not yet handed to the device. *)

val drain_all : t -> int * int * int * int
(** Hand the whole un-flushed suffix to the daemon as one batch:
    [(first_lsn, upto_lsn, bytes, commit_markers)] covering LSNs
    [first, upto).  Empties every worker's buffer. *)

val set_durable : t -> int -> unit
(** Advance the durable prefix (flush completion, or a crash's torn-tail
    resolution).  @raise Invalid_argument when moving backwards or past
    {!next_lsn}. *)

(** {1 2PC records} — cross-shard transactions (see {e lib/shard}). *)

val append_prepare : t -> worker:int -> gid:int -> Storage.Txn.t -> int
(** Append the prepared transaction's writes under global id [gid] with
    ts 0, sealed by a -3 prepare marker; returns the marker's LSN (the
    participant's vote-durability point).  Recovery buffers these as
    in-doubt instead of installing. *)

val append_twopc_install : t -> worker:int -> gid:int -> commit_ts:int64 -> int
(** Append a -4 marker: the prepared writes of [gid] were committed in
    memory at [commit_ts] (hygiene record; lets audits distinguish
    installed from still-in-doubt prepares). *)

val append_decision :
  t -> worker:int -> gid:int -> commit_ts:int64 -> participants:int list -> int
(** Append the coordinator's -6 commit-decision record, carrying the
    participant shard ids as payload.  Its durability is the distributed
    commit point: recovery commits an in-doubt [gid] iff some shard's
    durable log holds its decision (presumed abort otherwise). *)

val install_checkpoint : t -> start_lsn:int -> image -> unit
(** Replace the checkpoint with a completed pass's image; recovery replays
    from [start_lsn] (the log position when the pass began). *)

val base : t -> image
val catalog : t -> string list
val checkpoint : t -> (int * image) option

val buffer_overflows : t -> int
(** Appends that found their worker's buffer full (4096 records since the
    last {!drain_all}) and forced an emergency drain of it. *)

val committed : t -> int
val open_reservations : t -> int
(** Transactions past commit-begin that have neither committed nor
    aborted; nonzero at shutdown means a leaked park registration. *)

(** {1 Dump / load} — the crash artifact consumed by [preemptdb recover]. *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** Load a dump.  Strict: a malformed member — payload, image row,
    catalog entry, [base], [ckpt] or entry — is an [Error] naming it and
    its LSN, or its table and OID. *)
