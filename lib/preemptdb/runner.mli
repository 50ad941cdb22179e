(** End-to-end experiment driver: assemble a node (engine, uintr fabric,
    workers, and the durability / replication / maintenance subsystems its
    config arms), load the workload databases, run the scheduling thread
    to a virtual horizon, and collect results.

    A node is an {!assembly}.  Six [run_*] drivers, one per workload, share
    one body — assemble, load, generate, schedule, {!finish}:
    - {!run_mixed} — the target mixed workload (§6.1): TPC-H Q2 as the
      long-running low-priority transaction, TPC-C NewOrder + Payment as
      the short high-priority ones;
    - {!run_tpcc} — the full five-transaction TPC-C mix, all low-priority
      (the Fig. 8 overhead experiment);
    - {!run_htap}, {!run_tiered}, {!run_ledger}, {!run_maintenance} — the
      same-table HTAP, multi-level, serializable-ledger and
      memory-footprint workloads.

    A warehouse-sharded cluster ({e lib/shard}) is N assemblies on one
    {!host}: {!start}, {!run_des} and {!close_idle} are {!finish}'s steps,
    exposed so each can run over several assemblies. *)

type worker_totals = {
  passive_switches : int;
  active_switches : int;
  drops_region : int;
  drops_window : int;
  uintr_recognized : int;
  coop_yield_checks : int;
  coop_yields_taken : int;
  busy_cycles : int64;
  hp_context_cycles : int64;
  retries : int;
  exhausted : int;  (** terminal aborts whose retry budget ran out *)
  gc_preempted : int;
      (** passive switches that interrupted a running GC chunk — preempting
          the background maintenance in place *)
  dur_parks : int;  (** commits that parked awaiting durability *)
  dur_unparks : int;  (** parked commits resumed by a flush interrupt *)
  dur_immediate : int;  (** commits already durable at publish *)
  dur_block_cycles : int64;
      (** cycles spun in the blocking-commit ablation *)
  gate_parks : int;  (** 2PC gate waits that parked the context *)
  gate_unparks : int;  (** parked gate waits resumed by resolution *)
  gate_immediate : int;  (** gates already resolved at the wait *)
  gate_block_cycles : int64;
      (** cycles spun in the blocking-gate ablation *)
}

(** Post-run maintenance totals, present when [cfg.reclaim] armed the
    epoch/reclamation subsystem ({e lib/maint}). *)
type maint_summary = {
  ms_epoch : int;  (** final global epoch *)
  ms_safe : int;  (** final safe epoch *)
  ms_max_lag : int;  (** worst epoch lag observed at an advance *)
  ms_advances : int;
  ms_chunks : int;  (** GC chunk programs that ran *)
  ms_tuples_scanned : int;
  ms_versions_reclaimed : int;
  ms_passes : int;  (** completed full sweeps over all tables *)
  ms_chain_hist : Sim.Histogram.t;
      (** committed chain length per scanned tuple, pre-truncation *)
}

(** Post-run durability totals, present when [cfg.durability] armed the
    group-commit subsystem ({e lib/durability}). *)
type dur_summary = {
  ds_flushes : int;  (** device flushes completed *)
  ds_durable_lsn : int;
  ds_next_lsn : int;
  ds_log_commits : int;  (** transactions whose redo records hit the log *)
  ds_acked : int;  (** commit acknowledgements issued *)
  ds_ack_violations : int;
      (** acks for non-durable LSNs — 0 unless the early-ack fault lied *)
  ds_open_reservations : int;
      (** nonzero at shutdown means a leaked commit registration *)
  ds_buffer_overflows : int;  (** per-worker ring overflows (emergency drains) *)
  ds_crashed : bool;
  ds_lost_at_crash : int;  (** unflushed records dropped by the crash *)
  ds_ckpt_passes : int;
  ds_ckpt_chunks : int;
  ds_ckpt_tuples : int;
  ds_device_bytes : int64;
  ds_device_busy : int64;
  ds_flush_bytes_hist : Sim.Histogram.t;
  ds_group_txns_hist : Sim.Histogram.t;  (** commit markers per flush batch *)
}

(** Post-run replication totals, present when [cfg.replication] armed the
    log-shipping subsystem ({e lib/replication}). *)
type repl_summary = {
  rs_mode : Config.replication_mode;
  rs_shipped_upto : int;  (** next LSN the shipper would send *)
  rs_persisted_lsn : int;  (** replica durable prefix *)
  rs_applied_lsn : int;  (** replica applied prefix (= persisted by design) *)
  rs_batches : int;  (** batches shipped *)
  rs_records : int;  (** records shipped (first sends + re-ships) *)
  rs_resent : int;  (** records re-shipped after NAKs *)
  rs_naks : int;
  rs_acks : int;
  rs_heartbeats : int;
  rs_gaps : int;  (** LSN gaps the replica detected (each NAKed) *)
  rs_dup_records : int;  (** duplicate records the replica filtered *)
  rs_txns_applied : int;  (** transactions redone on the replica *)
  rs_degraded : bool;  (** semi-sync fell back to async *)
  rs_detector_suspected : bool;
  rs_detector_misses : int;
  rs_ship_sends : int;  (** ship-channel messages (batches + heartbeats) *)
  rs_ship_lost : int;  (** ship-channel messages the fault plan dropped *)
  rs_ship_duplicated : int;
  rs_ship_bytes : int;
  rs_lag_lsn_hist : Sim.Histogram.t;  (** apply lag behind primary durable *)
  rs_lag_us_hist : Sim.Histogram.t;  (** flush→applied latency, virtual µs *)
  rs_max_lag_lsn : int;
  rs_failover : Replication.Failover.outcome option;
      (** present iff the detector fired and the replica was promoted *)
  rs_acked_lost : int;
      (** RPO in acked commits: acknowledged markers beyond the surviving
          replica prefix.  0 without a crash; must be 0 in un-degraded
          semi-sync even with one. *)
}

type result = {
  cfg : Config.t;
  eng : Storage.Engine.t;  (** post-run engine, for inspection/recovery *)
  clock : Sim.Clock.t;
  horizon : int64;  (** virtual cycles simulated *)
  metrics : Metrics.t;
  workers : worker_totals;
  uintr_sends : int;
  uintr_lost : int;  (** sends the (faulty) fabric never delivered *)
  uintr_duplicated : int;  (** extra deliveries beyond one per send *)
  delivery_hist : Sim.Histogram.t;
  engine_stats : Storage.Engine.stats;
  backlog_left : int;
  queued_left : int;  (** requests still waiting in worker queues *)
  inflight_left : int;  (** requests still occupying a context slot *)
  dropped_at_kill : int;
      (** requests discarded when a primary crash killed the workers
          ({!Worker.dropped_at_kill} summed); 0 without a kill *)
  generated_hp : int;
  generated_lp : int;
  generated_gc : int;  (** GC-chunk requests dispatched by the scheduler *)
  maint : maint_summary option;
  durability : dur_summary option;
  replication : repl_summary option;
  skipped_starved : int;
  shed : int;  (** backlog entries dropped by deadline shedding *)
  watchdog_resends : int;
  watchdog_giveups : int;
  degrade_enters : int;
  degrade_exits : int;
  events : int;  (** DES events and worker activations dispatched *)
  digest : string;
      (** the virtual-schedule digest ({!schedule_digest}): what must not
          move when only the host-side cutting of activations changes *)
  profile : Obs.Profiler.t;
      (** every simulated cycle attributed to a (worker × phase) bucket;
          after the run each worker's buckets (idle included) sum to the
          horizon — the conservation invariant *)
  stages : Uintr.Stages.t;
      (** per-preemption latency breakdown:
          senduipi → delivery → recognition → switch → resume *)
  des_max_queue : int;  (** event-queue high-water mark *)
  wall_s : float;  (** wall-clock seconds spent inside [Sim.Des.run] *)
}

(** The durability subsystem's live parts, built iff [cfg.durability] is
    set: the fault injector crashes the daemon, the checking harness audits
    the log against the recovered engine. *)
type dur_parts = {
  dur_log : Durability.Log.t;
  dur_daemon : Durability.Daemon.t;
  dur_device : Durability.Device.t;
  dur_ckpt : Durability.Checkpoint.t option;
      (** present iff [du_ckpt_interval_us > 0] *)
}

(** The replication subsystem's live parts, built iff [cfg.replication]
    is set (which implies durability): the standby's device, the two
    payload channels, and the shipper / replica / detector / failover
    actors wired together.  The fault injector severs and crashes these;
    the failover oracle audits the promoted engine. *)
type repl_parts = {
  repl_device : Durability.Device.t;
  repl_ship_ch : Replication.Msg.to_replica Uintr.Channel.t;
  repl_ack_ch : Replication.Msg.to_primary Uintr.Channel.t;
  repl_replica : Replication.Replica.t;
  repl_shipper : Replication.Shipper.t;
  repl_detector : Replication.Failure_detector.t;
  repl_failover : Replication.Failover.t option;
      (** present iff [rp_failover] *)
}

(** The simulation a node runs on: one DES (seeded from [cfg.seed]), one
    uintr fabric and one cycle-accounting profiler.  A single-node run
    builds its own; a sharded cluster builds one and assembles every shard
    on it. *)
type host = private {
  h_des : Sim.Des.t;
  h_fabric : Uintr.Fabric.t;
  h_prof : Obs.Profiler.t;
  mutable h_workers : int;  (** workers registered on the fabric so far *)
  mutable h_requests : int;  (** request ids drawn so far *)
}

val host : ?obs:Obs.Sink.t -> Config.t -> host
(** [obs], when given, receives the fabric's send/deliver events. *)

val next_request_id : host -> int
(** The host's next request id (1, 2, ...): every request generator on
    the host draws from this one counter, so a run numbers its requests
    the same whatever ran before it in the process. *)

(** The wired-up node before any workload is attached: DES, engine,
    uintr fabric, metrics and workers.  {!assemble} builds it; callers
    (the standard [run_*] drivers below, the correctness-checking harness
    in {e lib/check}, the sharded cluster, custom experiments) load
    databases, create a {!Sched_thread} with their generators, then
    {!finish}. *)
type assembly = {
  host : host;  (** the simulation the node runs on *)
  des : Sim.Des.t;
  eng : Storage.Engine.t;
  fabric : Uintr.Fabric.t;
  metrics : Metrics.t;
  workers : Worker.t array;
  maint : Maint.Reclaimer.t option;
      (** built (epoch manager attached to the engine, reclaimer over its
          tables) iff [cfg.reclaim] is set *)
  dur : dur_parts option;
  repl : repl_parts option;
  prof : Obs.Profiler.t;  (** shared cycle-accounting profiler, one per host *)
  mutable sched : Sched_thread.t option;
      (** set by {!start} before the run starts, so mid-run fault
          callbacks can halt the scheduling thread *)
}

val assemble : ?obs:Obs.Sink.t -> ?host:host -> Config.t -> assembly
(** Create an engine and [cfg.n_workers] workers (each registered in the
    fabric's UITT) on [host] — by default a fresh {!host} of its own.
    Workers are numbered after those already on the host's fabric, so ids
    stay unique across every assembly sharing it.

    The [?prepare] hook of the [run_*] drivers below receives this
    assembly after workload loading and before the scheduling thread
    starts — the seam where the fault injector ({e lib/faults}) and the
    checking harness attach to the fabric and workers. *)

val crash_primary : assembly -> rng:Sim.Rng.t -> unit
(** Fail-stop the primary node mid-run (the failover scenario): tear the
    group-commit daemon ([rng] seeds the torn tail), kill every worker,
    halt the scheduling thread, stop the shipper, sever both replication
    channels, and stamp the crash time on the failover controller.  The
    DES keeps running so failure detection and promotion play out.
    Degenerates gracefully when subsystems are absent (no durability: only
    workers and scheduler die). *)

val crash_replica : assembly -> unit
(** Fail-stop the standby: halt the replica and detector, sever both
    channels.  In semi-sync the primary's degrade watchdog later releases
    the gated commit waiters.  No-op without replication. *)

val schedule_digest : Metrics.t list -> Obs.Profiler.t -> string
(** Hex digest of a run's virtual schedule: every {!Metrics.digest} (per
    request arrival, first op, preemptions, completion and outcome) and
    every worker's profiler cells.  Unlike the event count and the
    [(time, seq)] event hash, it does not depend on where worker
    activations are cut. *)

val finish : assembly -> Config.t -> Sched_thread.t -> horizon:int64 -> result
(** {!start}, {!run_des} to [horizon] (virtual cycles), {!close_idle},
    and collect the run's totals. *)

val start : assembly -> Sched_thread.t -> unit
(** Arm the node for its run: record [sched] as its scheduling thread,
    capture the recovery base image, start the group-commit daemon and the
    replication loops, then the scheduling thread. *)

val run_des : Sim.Des.t -> horizon:int64 -> float
(** Run the DES to [horizon] and return the wall-clock seconds it took,
    adding them and the simulated span to {!perf_totals}. *)

val close_idle : assembly -> horizon:int64 -> unit
(** Close the profiler's cycle ledger: account [horizon - busy] as idle
    for each of the node's workers. *)

val perf_totals : unit -> float * float
(** [(wall_seconds, virtual_microseconds)] accumulated across every
    {!run_des} in this process — the bench driver diffs successive readings
    to report a per-experiment simulation rate. *)

val throughput_ktps : result -> string -> float
val latency_us : result -> string -> pct:float -> float option
val sched_latency_us : result -> string -> pct:float -> float option
val geomean_latency_us : result -> string -> float option

val commit_wait_us : result -> string -> pct:float -> float option
(** Durability commit-wait percentile (publish → ack) in µs. *)

val run_mixed :
  cfg:Config.t ->
  ?tpcc_cfg:Workload.Tpcc_schema.config ->
  ?tpch_cfg:Workload.Tpch_schema.config ->
  ?obs:Obs.Sink.t ->
  ?prepare:(assembly -> unit) ->
  ?arrival_interval_us:float ->
  ?lp_interval_us:float ->
  ?horizon_sec:float ->
  ?hp_batch:int ->
  unit ->
  result
(** Defaults: scaled-down TPC-C ({!Workload.Tpcc_schema.small} with one
    warehouse per worker) and TPC-H ({!Workload.Tpch_schema.default}),
    1 ms arrival interval, 0.3 virtual seconds, batch = workers × hp-queue
    size.  High-priority requests are a 50/50 NewOrder/Payment mix with the
    executing worker's warehouse as home; low-priority requests are Q2 with
    random parameters. *)

val run_tpcc :
  cfg:Config.t ->
  ?tpcc_cfg:Workload.Tpcc_schema.config ->
  ?obs:Obs.Sink.t ->
  ?prepare:(assembly -> unit) ->
  ?horizon_sec:float ->
  ?arrival_interval_us:float ->
  ?empty_interrupt_ticks:int ->
  unit ->
  result
(** Full TPC-C mix on the regular path only.  Pair with
    [cfg.empty_interrupts = true] to measure the uintr machinery as pure
    overhead (Fig. 8); empty interrupts fire every [empty_interrupt_ticks]
    arrival ticks (default 4, i.e. every 100 µs at the default 25 µs
    arrival interval). *)

val run_htap :
  cfg:Config.t ->
  ?tpcc_cfg:Workload.Tpcc_schema.config ->
  ?obs:Obs.Sink.t ->
  ?prepare:(assembly -> unit) ->
  ?arrival_interval_us:float ->
  ?horizon_sec:float ->
  ?hp_batch:int ->
  unit ->
  result
(** Same-table HTAP: CH-benCHmark reporting queries (low priority) over
    the live TPC-C tables that NewOrder/Payment (high priority) mutate —
    analytics are paused over data being written, relying on snapshot
    isolation exactly as §1.2 argues. *)

val run_tiered :
  cfg:Config.t ->
  ?tpcc_cfg:Workload.Tpcc_schema.config ->
  ?tpch_cfg:Workload.Tpch_schema.config ->
  ?obs:Obs.Sink.t ->
  ?prepare:(assembly -> unit) ->
  ?arrival_interval_us:float ->
  ?horizon_sec:float ->
  ?hp_batch:int ->
  ?urgent_batch:int ->
  unit ->
  result
(** The §5 multi-level extension workload: Q2 low, StockLevel high,
    BalanceCheck urgent.  With [cfg.n_priority_levels >= 3] urgent requests
    preempt in-progress StockLevels on a third context; with 2 levels they
    merge into the high-priority queue (the baseline). *)

val run_ledger :
  cfg:Config.t ->
  ?obs:Obs.Sink.t ->
  ?prepare:(assembly -> unit) ->
  ?arrival_interval_us:float ->
  ?horizon_sec:float ->
  ?hp_batch:int ->
  unit ->
  result * int
(** Serializable ledger workload ("Audit" low priority, "Transfer" high
    priority) over {!Workload.Ledger.default} — the read-set-latching regime where non-preemptible regions
    matter (§4.4).  Also returns the post-run total balance, which every
    committed transaction conserves (initial: accounts × 1000). *)

val run_maintenance :
  cfg:Config.t ->
  ?tpcc_cfg:Workload.Tpcc_schema.config ->
  ?obs:Obs.Sink.t ->
  ?prepare:(assembly -> unit) ->
  ?arrival_interval_us:float ->
  ?horizon_sec:float ->
  ?hp_batch:int ->
  unit ->
  result
(** The memory-footprint experiment workload: a high-priority-only
    NewOrder/Payment stream (the update-heavy mix whose hot rows — warehouse
    and district YTD, customer balances — grow a version per commit), with
    no low-priority analytics so GC chunks own the low-priority level when
    [cfg.reclaim] is set.  With reclamation off, chains grow monotonically
    for the whole run. *)

val lanes : assembly -> Config.t -> Sched_thread.lane list
(** The [?lanes] argument for a hand-built {!Sched_thread.create} (pass
    the reclaimer's epoch as [?epoch] beside it): a ["GC"] lane of
    reclaimer chunks every [rc_gc_interval_us], [rc_chunks_per_tick] per
    firing, when the assembly was built with [cfg.reclaim]; then a
    ["Ckpt"] lane of one checkpoint chunk every [du_ckpt_interval_us] when
    [cfg.durability] asked for checkpointing.  Each lane mints requests
    from its own random stream (seed + 77 and seed + 79). *)

val total_tpcc_ktps : result -> float
