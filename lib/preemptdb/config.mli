(** Scheduling-engine configuration.

    A field lives here only when some caller (a CLI flag, a bench or
    perfbench cell, or a test that pushes it past any default run) sets
    it.  Fixed model constants live in the module that uses them, once:
    - micro-op cycle costs: {!Op_costs.default}, read by {!Worker};
    - retry backoff (500 cycles, doubling, 100 000 cap): {!Worker};
    - watchdog deadline, resend budget and backoff cap, and the
      degradation scores and cooperative interval: {!Sched_thread};
    - log-device setup and bandwidth cost: the defaults of
      [Durability.Device.create]; the per-worker redo buffer (4096
      records): [Durability.Log]; checkpoint chunk size: the default of
      [Storage.Sweep.create];
    - the standby's log device: [Durability.Device.create ()] in
      {!Runner};
    - the post-promotion probe count (8): [Replication.Failover];
    - replication and inter-shard link costs: [Uintr.Channel.create];
    - the 2PC prepare timeout and participant latch budget:
      [Shard.Cluster]. *)

type policy =
  | Wait
      (** non-preemptive FIFO with a high- and a low-priority queue; the
          high-priority queue is exhausted first at transaction
          boundaries *)
  | Cooperative of int
      (** yield interval: check the high-priority queue after this many
          record accesses (paper default: 10 000) *)
  | Cooperative_handcrafted of int
      (** yield only at {!Workload.Program.op.Yield_hint} markers, every
          [n] blocks (paper: 1000 nested Q2 blocks) *)
  | Preempt of float
      (** user-interrupt preemption with the given starvation threshold
          [L_max] ∈ [0, 1]; 1.0 effectively disables starvation
          prevention *)

val policy_to_string : policy -> string

type reclaim_policy = {
  rc_chunk_tuples : int;  (** tuples scanned per background GC chunk *)
  rc_epoch_interval_us : float;  (** global epoch advance cadence *)
  rc_gc_interval_us : float;  (** GC chunk dispatch cadence *)
  rc_chunks_per_tick : int;
      (** chunks enqueued per GC tick, one per worker with a free
          low-priority slot *)
  rc_non_preemptible : bool;
      (** ablation: run each whole chunk in one non-preemptible region — a
          GC that cannot be preempted, for measuring the latency spike *)
}

val default_reclaim : reclaim_policy
(** 256-tuple chunks every 200 µs, epochs every 50 µs, 2 chunks per tick,
    preemptible. *)

type durability_policy = {
  du_group_bytes : int;
      (** flush as soon as this much redo is pending (group-commit byte
          threshold) *)
  du_group_interval_us : float;
      (** sweep cadence: pending redo is flushed at least this often, so a
          lone commit's ack latency is bounded *)
  du_fsync_floor_us : float;  (** minimum latency of any flush *)
  du_blocking : bool;
      (** ablation: a committing context holds its hardware thread until
          its LSN is durable instead of parking and freeing it *)
  du_ckpt_interval_us : float;
      (** fuzzy-checkpoint chunk dispatch cadence; 0 disables
          checkpointing *)
}

val default_durability : durability_policy
(** 16 KiB groups, 10 µs sweep, 4 µs fsync floor, preemptible
    (non-blocking) commit waits, checkpointing off. *)

type replication_mode =
  | Repl_async
      (** ack on primary-durable; shipped asynchronously, bounded RPO *)
  | Repl_semi_sync
      (** ack only after the replica persisted past the marker: RPO = 0,
          the commit wait covers the fabric round trip + replica fsync *)

val replication_mode_to_string : replication_mode -> string

type replication_policy = {
  rp_mode : replication_mode;
  rp_hb_interval_us : float;
      (** primary heartbeat (and ship-watchdog) period *)
  rp_hb_timeout_us : float;
      (** failure-detector deadline on primary silence *)
  rp_hb_miss_budget : int;
      (** consecutive detector misses before failover (hysteresis) *)
  rp_degrade_timeout_us : float;
      (** semi-sync degrades to async when the replica acks nothing for
          this long while shipped data is outstanding *)
  rp_failover : bool;
      (** promote the replica when the detector declares the primary dead *)
}

val default_replication : replication_policy
(** Semi-sync; 20 µs heartbeats, 60 µs timeout, 3-miss budget, 200 µs
    degrade timeout; failover armed. *)

type shard_policy = {
  sh_shards : int;
      (** warehouse partitions; each owns a scheduler thread, worker pool,
          engine partition and durability log *)
  sh_cross_pct : int;
      (** percent of NewOrder/Payment transactions touching a remote
          warehouse (TPC-C spec: ~10) — those run 2PC over the fabric *)
  sh_blocking : bool;
      (** ablation: 2PC gate waits spin holding the context instead of
          parking (the [du_blocking] analogue for prepare/decision waits) *)
}

val default_shard : shard_policy
(** 2 shards, 10 % cross-shard, preemptible (non-blocking) gate waits. *)

type t = {
  policy : policy;
  n_workers : int;
  n_priority_levels : int;
      (** contexts and queues per worker; 2 reproduces the paper, 3 adds
          the [Urgent] level of the §5 multi-level extension *)
  hp_queue_size : int;  (** per worker and per level ≥ 1 (paper default: 4) *)
  lp_queue_size : int;  (** per worker (paper default: 1) *)
  uintr_costs : Uintr.Costs.t;
  regions_enabled : bool;
      (** non-preemptible regions honored (§4.4); disable only for the
          deadlock ablation *)
  empty_interrupts : bool;
      (** Fig. 8 overhead mode: the scheduling thread periodically
          interrupts workers without dispatching high-priority work *)
  hp_backlog_cap : int;
      (** admission-control bound on undispatched high-priority requests;
          beyond it new arrivals are dropped (counted) *)
  retry_max_attempts : int;
      (** per-request budget: a conflict-class abort on the last attempt
          becomes a terminal [Txn_exhausted] abort *)
  watchdog : bool;
      (** arm the delivery/stuck-worker watchdog and, fed by its failure
          scores, graceful degradation to cooperative scheduling ([false]
          = seed behavior); only meaningful under [Preempt] *)
  shed_deadline_us : float option;
      (** deadline-based load shedding: backlog entries whose sojourn
          exceeds this are dropped (counted per class); [None] sheds only
          on the admission cap *)
  reclaim : reclaim_policy option;
      (** epoch-based version reclamation as background maintenance
          ([None] = seed behavior: chains grow without bound) *)
  durability : durability_policy option;
      (** group-commit WAL with preemptible commit waits ([None] = seed
          behavior: commits acknowledged at in-memory install) *)
  replication : replication_policy option;
      (** log-shipping standby with failure detection and failover
          ([None] = single node); requires [durability] *)
  shard : shard_policy option;
      (** warehouse-sharded scale-out with 2PC cross-shard commit
          ([None] = single shard); requires [durability].  In a sharded
          run [n_workers] is the per-shard pool size. *)
  seed : int64;
}

val default : ?policy:policy -> ?n_workers:int -> unit -> t
(** Paper defaults: 16 workers, hp queue 4, lp queue 1, policy
    [Preempt 1.0], regions on, 1000 retry attempts, watchdog and shedding
    off. *)

val with_resilience : ?shed_deadline_us:float -> t -> t
(** Arm the full overload-resilience stack: delivery watchdog, graceful
    degradation and deadline shedding (default 20 ms). *)

val with_reclaim : ?reclaim:reclaim_policy -> t -> t
(** Arm epoch-based version reclamation (default {!default_reclaim}).
    Also grows [lp_queue_size] by one: the scheduler reserves that slot
    for background GC chunks so neither the lp stream nor the reclaimer
    crowds the other out. *)

val with_durability : ?durability:durability_policy -> t -> t
(** Arm the durability subsystem (default {!default_durability}).  When
    checkpointing is on ([du_ckpt_interval_us > 0]) this also grows
    [lp_queue_size] by one for the checkpoint maintenance lane, mirroring
    {!with_reclaim}. *)

val with_replication : ?replication:replication_policy -> t -> t
(** Arm log-shipping replication (default {!default_replication}).
    Replication ships the durability log, so a config without a
    durability policy gets {!default_durability} implied. *)

val with_shard : ?shard:shard_policy -> t -> t
(** Arm warehouse sharding (default {!default_shard}).  2PC prepares must
    be durably logged before a participant votes, so a config without a
    durability policy gets {!default_durability} implied. *)
