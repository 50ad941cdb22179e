(** Record versions and version chains (§2.2).

    Each record is an ordered new-to-old chain of versions, each tagged with
    the commit timestamp of its creating transaction.  An in-flight
    (uncommitted) version sits at the head with [begin_ts = Int64.max_int]
    and its writer's id; it becomes visible to others when the committing
    transaction stamps it.  Reads never take locks — the key property that
    makes pausing a preempted reader safe.

    A chain link is a plain [t], not an option: every chain ends at the
    shared {!nil}.  [nil] is cyclic ([nil.next == nil]), so structural
    equality or comparison on a [t] does not terminate — compare versions
    with [==] or {!is_nil}. *)

type t = {
  mutable data : Value.t option;  (** [None] is a delete tombstone *)
  mutable begin_ts : int64;
  mutable writer : int option;  (** creating txn while uncommitted *)
  mutable next : t;  (** older version, {!nil} at the end of the chain *)
}

val nil : t
(** The end of every chain, and the "no version" result of the chain
    functions below.  Its fields are [data = None], [begin_ts = 0L],
    [writer = None] and [next = nil], and are never written. *)

val is_nil : t -> bool

val committed : ?ts:int64 -> Value.t option -> t
(** A committed version (default [ts]: {!Timestamp.bootstrap}). *)

val in_flight : writer:int -> Value.t option -> t

type pool
(** Freelist of retired version nodes, threaded through their [next]
    fields.  Write-heavy runs churn one node per installed write; recycling
    through the pool keeps that churn out of the minor heap (and, worse,
    out of promotion — nodes live just long enough to be tenured). *)

val pool_create : unit -> pool

val in_flight_of : pool -> writer:int -> Value.t option -> t
(** {!in_flight}, served from the pool's freelist when it has a node. *)

val release : pool -> t -> unit
(** Return a node to the pool.  The caller must guarantee the node is no
    longer reachable from any chain — the explicit choke points are
    transaction abort (the unlinked in-flight version) and GC unlink (the
    truncated suffix).  The payload and writer are cleared so the pool
    retains no row data. *)

val is_committed : t -> bool

val stamp : t -> int64 -> unit
(** Commit an in-flight version with the given commit timestamp.
    @raise Invalid_argument if already committed. *)

val latest_committed : t -> t
(** First committed version in a chain (skipping in-flight heads) — the
    read-committed read rule.  {!nil} when the chain holds none. *)

val snapshot_read : t -> snapshot:int64 -> reader:int -> t
(** First visible version in a chain — the SI read rule: a version is
    visible when the reader wrote it, or it committed at or before the
    reader's snapshot.  {!nil} when none is. *)

val chain_length : t -> int

val committed_length : t -> int
(** Committed versions only (the in-flight head, if any, is not counted). *)

val truncate_older_than : ?release:(t -> unit) -> t -> boundary:int64 -> int
(** Epoch reclamation's unlink micro-op: find the first (newest) committed
    version with [begin_ts <= boundary] and cut the chain immediately after
    it, returning the number of versions dropped.  [release] (when given)
    receives each dropped node, newest first — the pool recycling hook.  That version is the one
    every snapshot at or above [boundary] reads (or something newer), so the
    suffix is unreachable.  Tombstones qualify as boundary versions like any
    committed version — a reader must keep seeing the delete.  When no
    committed version is old enough the chain is left untouched and [0] is
    returned. *)

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
(** New-to-old fold over a chain. *)

val well_formed : t -> bool
(** Committed timestamps strictly decrease along the chain, and at most the
    head is in-flight — the chain invariant checked by property tests. *)
