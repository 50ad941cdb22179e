(** Scheduling-engine configuration. *)

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

type retry_policy = {
  retry_max_attempts : int;
      (** per-request budget: a conflict-class abort on the last attempt
          becomes a terminal [Txn_exhausted] abort *)
  retry_backoff_base : int;  (** cycles; doubled per attempt *)
  retry_backoff_cap : int;  (** cycles; ceiling on the doubled backoff *)
}

val default_retry : retry_policy
(** The historical hardcoded worker formula:
    [min (500 * 2^min(attempts,7)) 100_000], 1000 attempts. *)

type watchdog_policy = {
  wd_deadline_us : float;
      (** a dispatched batch's [senduipi] must reach the receiver's UPID
          within this deadline, else the watchdog re-sends *)
  wd_max_resends : int;  (** resend budget per dispatch episode *)
  wd_backoff_cap_us : float;  (** cap on the doubled resend deadline *)
}

val default_watchdog : watchdog_policy
(** 5 µs deadline, 3 resends, 50 µs backoff cap. *)

type degrade_policy = {
  dg_enter_score : int;
      (** per-worker failure score at (or above) which the worker falls
          back from [Preempt] to [Cooperative] *)
  dg_exit_score : int;
      (** score at (or below) which a degraded worker recovers; keeping it
          well under [dg_enter_score] provides the hysteresis band *)
  dg_fail_weight : int;
      (** score added per missed delivery deadline; the score saturates at
          twice [dg_enter_score] so a long outage cannot push recovery out
          of reach once the fabric heals *)
  dg_coop_interval : int;  (** [Cooperative] yield interval while degraded *)
}

val default_degrade : degrade_policy
(** Enter at 6, exit at 0, +2 per miss, −1 per on-time delivery: at least
    three consecutive misses to fall back, six clean deliveries to
    recover. *)

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
  du_setup_cycles : int;  (** per-flush device setup cost *)
  du_per_byte_cycles_x100 : int;
      (** bandwidth term, in cycles per 100 bytes (60 ≈ 4 GB/s at
          2.4 GHz) *)
  du_fsync_floor_us : float;  (** minimum latency of any flush *)
  du_buffer_records : int;  (** per-worker log ring capacity *)
  du_blocking : bool;
      (** ablation: a committing context holds its hardware thread until
          its LSN is durable instead of parking and freeing it *)
  du_ckpt_interval_us : float;
      (** fuzzy-checkpoint chunk dispatch cadence; 0 disables
          checkpointing *)
  du_ckpt_chunk_tuples : int;  (** tuples per checkpoint chunk *)
}

val default_durability : durability_policy
(** 16 KiB groups, 10 µs sweep, 4 µs fsync floor, ≈ 4 GB/s bandwidth,
    4096-record buffers, preemptible (non-blocking) commit waits,
    checkpointing off. *)

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
  rp_ship_base_cycles : int;  (** ship-channel per-message cost *)
  rp_ship_per_byte_cycles : int;  (** ship-channel per-byte cost *)
  rp_replica_fsync_floor_us : float;  (** standby log-device fsync floor *)
  rp_failover : bool;
      (** promote the replica when the detector declares the primary dead *)
  rp_probes : int;  (** post-promotion probe commits *)
}

val default_replication : replication_policy
(** Semi-sync; 20 µs heartbeats, 60 µs timeout, 3-miss budget, 200 µs
    degrade timeout; ~0.5 µs + 1 cycle/byte ship channel; 4 µs standby
    fsync floor; failover armed with 8 probes. *)

type shard_policy = {
  sh_shards : int;
      (** warehouse partitions; each owns a scheduler thread, worker pool,
          engine partition and durability log *)
  sh_cross_pct : int;
      (** percent of NewOrder/Payment transactions touching a remote
          warehouse (TPC-C spec: ~10) — those run 2PC over the fabric *)
  sh_link_base_cycles : int;  (** inter-shard channel per-message cost *)
  sh_link_per_byte_cycles : int;  (** inter-shard channel per-byte cost *)
  sh_prepare_timeout_us : float;
      (** coordinator abandons vote collection (aborts) after this long *)
  sh_latch_budget : int;
      (** participant prepare-latch spins before voting no — 2PC holds
          remote latches across a fabric round trip, so unbounded spinning
          would let one straggler wedge a shard *)
  sh_blocking : bool;
      (** ablation: 2PC gate waits spin holding the context instead of
          parking (the [du_blocking] analogue for prepare/decision waits) *)
}

val default_shard : shard_policy
(** 2 shards, 10 % cross-shard, replication-grade links (~0.5 µs + 1
    cycle/byte), 200 µs prepare timeout, 64-spin latch budget,
    preemptible (non-blocking) gate waits. *)

type t = {
  policy : policy;
  n_workers : int;
  n_priority_levels : int;
      (** contexts and queues per worker; 2 reproduces the paper, 3 adds
          the [Urgent] level of the §5 multi-level extension *)
  hp_queue_size : int;  (** per worker and per level ≥ 1 (paper default: 4) *)
  lp_queue_size : int;  (** per worker (paper default: 1) *)
  op_costs : Op_costs.t;
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
  retry : retry_policy;
  watchdog : watchdog_policy option;
      (** [None] disables the delivery/stuck-worker watchdog (seed
          behavior); only meaningful under [Preempt] *)
  degrade : degrade_policy option;
      (** graceful degradation to cooperative scheduling; requires
          [watchdog] (the failure scores live there) *)
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
    [Preempt 1.0], regions on, watchdog/degrade/shedding off. *)

val with_resilience :
  ?watchdog:watchdog_policy ->
  ?degrade:degrade_policy ->
  ?shed_deadline_us:float ->
  t ->
  t
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
