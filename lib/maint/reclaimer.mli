(** The version-chain reclaimer: epoch-based GC as preemptible background
    maintenance.

    The reclaimer walks tables in disjoint OID ranges ({e chunks}) on a
    {!Storage.Sweep}; each chunk is packaged as an ordinary {!Workload.Program.t} that the
    scheduling thread submits at low priority, so arriving high-priority
    transactions preempt a scan mid-chunk through the production uintr
    path.  Per tuple the chunk charges one [Gc_scan] micro-op, then — only
    inside a non-preemptible region — cuts the chain after the newest
    committed version at or below the epoch manager's
    {!Epoch.reclaim_boundary} and charges [Gc_unlink n].

    Truncation preserves tombstone semantics: a committed delete at or
    below the boundary is itself the kept boundary version, so readers
    keep observing the deletion (the chain is never pruned to nothing).
    Chains whose versions all postdate the boundary, or that hold only an
    in-flight head, are left untouched. *)

type t

(** One audited unlink, recorded when {!set_audit} is armed (the check
    harness): everything the reclaim-safety oracle needs to decide —
    independently of the epoch machinery — whether any live snapshot could
    have read a dropped version. *)
type audit = {
  au_table : string;
  au_oid : int;
  au_boundary : int64;  (** reclaim boundary the chunk used *)
  au_kept_ts : int64;  (** commit ts of the kept boundary version *)
  au_dropped : int64 list;  (** commit ts of unlinked versions, newest first *)
  au_active : int64 list;  (** snapshots live at unlink time *)
}

val create :
  ?chunk_tuples:int ->
  ?non_preemptible_chunks:bool ->
  eng:Storage.Engine.t ->
  epoch:Epoch.t ->
  unit ->
  t
(** [chunk_tuples] (default 256) tuples are scanned per chunk program.
    [non_preemptible_chunks] is the ablation: the whole chunk runs in one
    region, modelling a GC that cannot be preempted (expect the latency
    spike).  @raise Invalid_argument when [chunk_tuples < 1]. *)

val epoch : t -> Epoch.t

val chunk_program : t -> Workload.Program.t
(** The next chunk as a schedulable program.  The OID range is claimed when
    the program {e starts executing} (not when it is enqueued), so
    concurrently dispatched chunks never overlap; the reclaim boundary is
    read once per chunk.  Always finishes as [Committed 0L] — chunks never
    conflict and are never retried. *)

val set_emit : t -> (Obs.Event.t -> unit) option -> unit
(** Sink for [Gc_chunk] completion events (wired by the scheduler). *)

val set_audit : t -> bool -> unit
(** Record an {!audit} per unlink (checker runs only — the trail grows
    unboundedly). *)

val audits : t -> audit list
(** Recorded audits, oldest first. *)

(** {1 Counters} *)

val chunks : t -> int
val tuples_scanned : t -> int
val versions_reclaimed : t -> int

val passes : t -> int
(** Completed full sweeps over all tables. *)

val chain_histogram : t -> Sim.Histogram.t
(** Committed chain length of every scanned tuple, sampled {e before}
    truncation — the distribution reclamation keeps bounded. *)
