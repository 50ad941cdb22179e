(** Warehouse-sharded scale-out cluster.

    Each shard is a single-node {!Preemptdb.Runner.assembly} — its own
    engine partition (the TPC-C warehouses {!Router} maps to it), worker
    pool, redo log and group-commit daemon — plus a scheduling thread and
    a {!Uintr.Gate} registry for its workers' preemptible 2PC waits.  All
    shards share one {!Preemptdb.Runner.host} (one DES virtual clock, one
    uintr fabric, one cycle profiler), and directed shard pairs are
    connected by {!Uintr.Channel} links carrying {!Msg} frames.

    Cross-shard NewOrder/Payment transactions run two-phase commit with
    presumed abort:

    - the coordinator registers its vote gate, fans out [Prepare]s, runs
      its local slice, latches + validates (local prepare), durably logs
      a -3 prepare record, then {e parks} on the vote gate
      ([Program.Gate_wait]) — released by the last yes vote, any no vote,
      or the vote-collection timeout;
    - a participant re-executes the shipped {!Msg.rop}s, prepares, logs
      its own -3 record, waits for that record's flush
      ([Program.Commit_wait]), votes yes, and parks on its decision gate;
    - on all-yes the coordinator durably logs the -6 decision record (the
      distributed commit point), sends [Commit]s, and installs; on any
      failure it sends [Abort]s and presumes abort everywhere.

    Both waits go through the worker's park/unpark machinery (or the
    blocking-spin ablation when [sh_blocking] is set), so a parked
    coordinator's core keeps executing other transactions — the paper's
    why-wait-when-you-can-preempt argument applied to distributed commit. *)

module Config = Preemptdb.Config
module Metrics = Preemptdb.Metrics
module Worker = Preemptdb.Worker

type t

val create :
  cfg:Config.t ->
  ?tpcc_cfg:Workload.Tpcc_schema.config ->
  ?origins:int list ->
  ?bug_early_vote:bool ->
  ?arrival_interval_us:float ->
  unit ->
  t
(** Assemble the cluster described by [cfg.shard] (and [cfg.durability],
    both required — use {!Config.with_shard}).  [cfg.n_workers] is the
    {e per-shard} pool size; worker ids are globally unique
    ([sid * n_workers + k]).  The default TPC-C config spreads
    [shards × n_workers] warehouses over the shards with per-line
    [remote_pct] forced to 0 (remote supply is the 2PC path's job).
    [origins] restricts which shards originate cross-shard transactions
    (default: all) — the crash-role grid uses a single origin so
    coordinator-crash and participant-crash cells stay distinct.  Each
    shard's scheduling thread generates one high-priority request every
    [arrival_interval_us] (default 40).
    [bug_early_vote] arms the intentional protocol bug (participants vote
    {e before} their prepare record is durable) that the atomicity
    oracle's self-test must catch.
    @raise Invalid_argument when [cfg.shard] or [cfg.durability] is unset,
    when the config arms replication, reclamation or checkpointing (no
    shard runs a standby, reclaimer or checkpointer), or when there are
    fewer warehouses than shards. *)

val des : t -> Sim.Des.t
val clock : t -> Sim.Clock.t
val n_shards : t -> int
val policy : t -> Config.shard_policy

val run : t -> horizon_sec:float -> unit
(** {!Preemptdb.Runner.start} every shard (base image, daemon, scheduling
    thread), {!Preemptdb.Runner.run_des} the shared DES to the horizon —
    counted in {!Preemptdb.Runner.perf_totals} — and close each shard's
    idle-cycle ledger. *)

val crash_shard : t -> sid:int -> rng:Sim.Rng.t -> unit
(** Fail-stop one shard mid-run: {!Preemptdb.Runner.crash_primary} tears
    its daemon (random prefix of the pending tail lost), kills its workers
    and halts its scheduling thread, and every link touching the shard
    severs.  The rest of the cluster keeps
    running — in-flight 2PC involving the shard resolves via the
    coordinator timeout (participant crash) or stays parked until the
    horizon (coordinator crash; presumed abort at recovery). *)

val crashed : t -> sid:int -> bool

(** {1 Post-run accessors} *)

val horizon : t -> int64
val wall_s : t -> float
val engine : t -> sid:int -> Storage.Engine.t
val log : t -> sid:int -> Durability.Log.t
val metrics : t -> sid:int -> Metrics.t
val workers : t -> sid:int -> Worker.t array
val events_processed : t -> int

val coord_pending : t -> sid:int -> int
(** 2PC rounds this shard coordinates that are still collecting votes. *)

val decision_waits : t -> sid:int -> int
(** Participant decision gates still registered (prepared slices whose
    [Commit]/[Abort] has not arrived). *)

type shard_stats = {
  ss_sid : int;
  ss_crashed : bool;
  ss_committed : int;  (** all commits recorded by this shard's metrics *)
  ss_aborted : int;
  ss_xs_started : int;  (** cross-shard transactions originated here *)
  ss_xs_committed : int;
  ss_xs_aborted : int;
  ss_coord_timeouts : int;
  ss_prepares_recv : int;
  ss_votes_yes : int;
  ss_votes_no : int;
  ss_decisions_commit : int;  (** [Commit] frames received as participant *)
  ss_decisions_abort : int;
  ss_late_votes : int;
  ss_dup_votes : int;
  ss_inject_retries : int;
  ss_inject_drops : int;
  ss_gate_parks : int;
  ss_gate_unparks : int;
  ss_gate_immediate : int;
  ss_gate_block_cycles : int;
  ss_parked_left : int;  (** contexts still parked at the horizon *)
  ss_flushes : int;
  ss_durable_lsn : int;
  ss_link_sends : int;  (** frames sent on this shard's outgoing links *)
  ss_link_bytes : int;
}

val stats : t -> shard_stats array

val coordinator_labels : string list
(** Metrics classes counted as origin-side committed work
    (["NewOrder"; "Payment"; "NewOrderX"; "PaymentX"]); the participant
    class ["XPart"] is excluded — those commits are halves of a
    coordinator transaction already counted at its origin. *)
