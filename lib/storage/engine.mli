(** The memory-optimized MVCC engine (ERMIA-style, §2.2).

    Reads are latch-free version-chain traversals; writers install in-flight
    versions at update time (first-updater-wins); commit is {e staged} so the
    scheduling layer can interleave — and preempt — between stages:

    {ol
    {- {!commit_begin} sorts the latch plan in (table, OID) order — the
       "consistent lock ordering" of §4.4;}
    {- {!commit_latch_next} acquires one latch per call (one micro-op);}
    {- {!commit_validate} runs OCC backward validation (serializable only);}
    {- {!commit_install} draws the commit timestamp, stamps versions,
       hands redo records to the durability layer and releases latches.}}

    A preemption landing between stages while latches are held is exactly
    the deadlock hazard non-preemptible regions exist to prevent; the
    executor wraps the staged sequence in [Region.with_region]. *)

type t

type stats = {
  mutable commits : int;
  mutable aborts_conflict : int;
  mutable aborts_validation : int;
  mutable aborts_deadlock : int;
  mutable aborts_user : int;
  mutable reads : int;
  mutable updates : int;
  mutable inserts : int;
  mutable deletes : int;
}

val create : unit -> t

val timestamp : t -> Timestamp.t
val stats : t -> stats
val total_aborts : stats -> int

(** {1 Instrumentation}

    Hooks for the correctness-checking harness ({e lib/check}): an access
    observer capturing per-transaction read/write footprints, and fault
    injection producing a deliberately broken engine variant that the
    harness' oracles must flag (self-test). *)

type observer = {
  obs_read : txn:Txn.t -> table:Table.t -> oid:int -> version:Version.t option -> unit;
      (** Every {!read}, with the version actually returned ([None] when
          invisible/deleted).  An uncommitted version means the reader saw
          its own in-flight write. *)
  obs_write : txn:Txn.t -> table:Table.t -> oid:int -> unit;
      (** Every successful {!update}/{!delete}/{!insert} installation
          (including in-place rewrites of the txn's own version). *)
  obs_commit : txn:Txn.t -> commit_ts:int64 -> unit;
  obs_abort : txn:Txn.t -> reason:Err.abort_reason -> unit;
}

val set_observer : t -> observer option -> unit
(** Install (or clear) the access observer.  Observation only: callbacks
    must not start, mutate or finish transactions. *)

(** Transaction lifecycle hooks, distinct from the access {!observer}: the
    maintenance layer ({e lib/maint}) registers transactions with the epoch
    manager here without the storage layer depending on it. *)
type lifecycle = {
  on_begin : Txn.t -> unit;  (** after the snapshot is drawn, before any access *)
  on_end : Txn.t -> unit;  (** after commit install or abort — the snapshot is dead *)
}

val set_lifecycle : t -> lifecycle option -> unit

val active_snapshots : t -> int64 list
(** Begin timestamps of every live transaction, unordered — recorded by the
    reclaimer's audit trail so the check-layer oracle can decide, per
    unlink, whether any concurrent snapshot could have needed a dropped
    version. *)

type fault =
  | Skip_write_lock
      (** {!update}/{!delete} install in-flight versions without the
          first-updater-wins check, the snapshot-freshness check or the
          install latch — concurrent writers silently overwrite each other
          (lost updates). *)

val inject_fault : t -> fault option -> unit
(** Arm (or disarm) a deliberate bug.  Only for checker self-tests — never
    in benchmarks. *)

val fault : t -> fault option

(** Durability hooks.  The write-ahead log, group-commit daemon and
    recovery live {e above} storage (in [lib/durability], which owns
    LSN allocation and the simulated log device); the engine signals it
    through these closures so the dependency points upward. *)
type durability = {
  dur_reserve : Txn.t -> unit;
      (** at {!commit_begin} — the transaction may later park on its
          commit's durability *)
  dur_release : Txn.t -> unit;
      (** at {!abort}, on {e every} abort path; idempotent *)
  dur_commit : Txn.t -> commit_ts:int64 -> int;
      (** at {!commit_install}, after versions are stamped: append the
          redo records and commit marker, returning the marker LSN
          (stored in [txn.commit_lsn]) *)
  dur_table_created : string -> unit;  (** DDL record *)
}

val set_durability : t -> durability option -> unit
val durability : t -> durability option

val create_table : t -> string -> Table.t
(** @raise Invalid_argument on a duplicate name. *)

val table : t -> string -> Table.t
(** @raise Not_found on an unknown name. *)

val tables : t -> Table.t list

(** Per-table committed version-chain statistics (in-flight heads not
    counted).  Cheap enough for end-of-run reporting; reclamation keeps
    [cs_max_len] bounded, without it the chains grow monotonically. *)
type chain_stat = {
  cs_table : string;
  cs_tuples : int;
  cs_versions : int;  (** committed versions across all chains *)
  cs_max_len : int;
  cs_mean_len : float;
}

val chain_stats : t -> chain_stat list
(** In table-creation order. *)

val version_pool : t -> Version.pool
(** The engine's version-node freelist.  [install_write] draws from it;
    transaction abort and GC unlink (via
    [Version.truncate_older_than ~release]) return nodes to it. *)

(** {1 Transactions} *)

val begin_txn : ?iso:Txn.iso -> ?writes:Txn.writes -> t -> worker:int -> ctx:int -> Txn.t
(** Default isolation: [Si].  With [writes], every {!update}, {!delete}
    and {!insert} outside the declaration fails loudly
    ({!Txn.check_table}). *)

val active_txn : t -> int -> Txn.t option
(** Look up a live transaction by id (used for same-thread deadlock
    detection by the executor). *)

val read : t -> Txn.t -> Table.t -> oid:int -> Value.t option
(** Latch-free read under the transaction's isolation level.  [None] when
    the record is invisible at the snapshot or deleted. *)

val update : t -> Txn.t -> Table.t -> oid:int -> Value.t -> (unit, Err.abort_reason) result
(** Install an in-flight version.  [Error Write_conflict] on
    first-updater/first-committer conflicts; the caller must then
    {!abort}. *)

val insert : t -> Txn.t -> Table.t -> Value.t -> Tuple.t
(** Allocate a record with an in-flight initial version.  Never conflicts
    (the record is unpublished until the caller adds index entries). *)

val delete : t -> Txn.t -> Table.t -> oid:int -> (unit, Err.abort_reason) result
(** Install a tombstone version. *)

(** {1 Staged commit} *)

val commit_begin : t -> Txn.t -> unit
(** Enter [Preparing]; build the ordered latch plan (write set, plus read
    set under [Serializable]). *)

val commit_latch_next : t -> Txn.t -> [ `Acquired | `Busy of int | `Done ]
(** Acquire the next planned latch.  [`Busy owner] reports the holding
    transaction id; the caller decides to spin or to declare deadlock. *)

val commit_validate : t -> Txn.t -> (unit, Err.abort_reason) result
(** Serializable: every read-set tuple's newest committed version must not
    postdate the snapshot.  Always [Ok] under [Si]/[Read_committed]. *)

val commit_install : t -> Txn.t -> int64
(** Stamp, log (when durability is armed), release; returns the commit
    timestamp. *)

val commit : t -> Txn.t -> (int64, Err.abort_reason) result
(** One-shot commit driving all stages; treats a busy latch as
    [Latch_deadlock] (single-context callers cannot legitimately block).
    On [Error] the transaction has been aborted. *)

val abort : ?reason:Err.abort_reason -> t -> Txn.t -> unit
(** Release held latches, unlink in-flight versions, run undo hooks (LIFO).
    Default reason: [User_abort]. *)
