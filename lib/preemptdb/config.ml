type policy =
  | Wait
  | Cooperative of int
  | Cooperative_handcrafted of int
  | Preempt of float

let policy_to_string = function
  | Wait -> "Wait"
  | Cooperative n -> Printf.sprintf "Cooperative(%d)" n
  | Cooperative_handcrafted n -> Printf.sprintf "Handcrafted(%d)" n
  | Preempt l -> Printf.sprintf "PreemptDB(Lmax=%g)" l

type retry_policy = {
  retry_max_attempts : int;
  retry_backoff_base : int;
  retry_backoff_cap : int;
}

(* Reproduces the historical hardcoded formula:
   min (500 * 2^min(attempts,7)) 100_000, 1000 attempts. *)
let default_retry =
  {
    retry_max_attempts = 1000;
    retry_backoff_base = 500;
    retry_backoff_cap = 100_000;
  }

type watchdog_policy = {
  wd_deadline_us : float;
  wd_max_resends : int;
  wd_backoff_cap_us : float;
}

let default_watchdog = { wd_deadline_us = 5.0; wd_max_resends = 3; wd_backoff_cap_us = 50.0 }

type degrade_policy = {
  dg_enter_score : int;
  dg_exit_score : int;
  dg_fail_weight : int;
  dg_coop_interval : int;
}

let default_degrade =
  { dg_enter_score = 6; dg_exit_score = 0; dg_fail_weight = 2; dg_coop_interval = 1000 }

type reclaim_policy = {
  rc_chunk_tuples : int;
  rc_epoch_interval_us : float;
  rc_gc_interval_us : float;
  rc_chunks_per_tick : int;
  rc_non_preemptible : bool;
}

(* 256-tuple chunks every 200 µs keep one full TPC-C sweep under ~50 ms at
   the seed scale while costing well under one worker of capacity; epochs
   advance 4x faster than chunks are cut so the reclaim boundary is never
   the bottleneck. *)
let default_reclaim =
  {
    rc_chunk_tuples = 256;
    rc_epoch_interval_us = 50.0;
    rc_gc_interval_us = 200.0;
    rc_chunks_per_tick = 2;
    rc_non_preemptible = false;
  }

type durability_policy = {
  du_group_bytes : int;  (* flush as soon as this much redo is pending *)
  du_group_interval_us : float;  (* ... or at this sweep interval *)
  du_setup_cycles : int;
  du_per_byte_cycles_x100 : int;
  du_fsync_floor_us : float;
  du_buffer_records : int;  (* per-worker ring capacity *)
  du_blocking : bool;  (* ablation: hold the context instead of parking *)
  du_ckpt_interval_us : float;  (* 0 = checkpointing off *)
  du_ckpt_chunk_tuples : int;
}

(* 16 KiB groups every 10 µs against a ~4 GB/s device with a 4 µs fsync
   floor: a loaded run flushes on bytes, a quiet one on the sweep, and a
   lone commit waits at most ~14 µs for its ack. *)
let default_durability =
  {
    du_group_bytes = 16_384;
    du_group_interval_us = 10.0;
    du_setup_cycles = 1200;
    du_per_byte_cycles_x100 = 60;
    du_fsync_floor_us = 4.0;
    du_buffer_records = 4096;
    du_blocking = false;
    du_ckpt_interval_us = 0.;
    du_ckpt_chunk_tuples = 256;
  }

type replication_mode = Repl_async | Repl_semi_sync

let replication_mode_to_string = function
  | Repl_async -> "async"
  | Repl_semi_sync -> "semi_sync"

type replication_policy = {
  rp_mode : replication_mode;
  rp_hb_interval_us : float;  (* heartbeat + ship-watchdog period *)
  rp_hb_timeout_us : float;  (* detector deadline on primary silence *)
  rp_hb_miss_budget : int;  (* consecutive misses before failover *)
  rp_degrade_timeout_us : float;  (* semi-sync -> async on silent replica *)
  rp_ship_base_cycles : int;  (* channel cost: per message *)
  rp_ship_per_byte_cycles : int;  (* channel cost: per shipped byte *)
  rp_replica_fsync_floor_us : float;  (* standby log device floor *)
  rp_failover : bool;  (* promote the replica on primary crash *)
  rp_probes : int;  (* post-promotion probe commits *)
}

(* Heartbeats every 20 µs with a 60 µs deadline and a 3-miss budget:
   detection in ~120-180 virtual µs, far above any fault-plan delivery
   delay (10x of a ~0.3 µs nominal) so storms and stragglers cannot fake
   a death.  The ship channel costs roughly a cross-NUMA interconnect
   (~0.5 µs base + per-byte), the standby fsync floor matches the
   primary's device default. *)
let default_replication =
  {
    rp_mode = Repl_semi_sync;
    rp_hb_interval_us = 20.0;
    rp_hb_timeout_us = 60.0;
    rp_hb_miss_budget = 3;
    rp_degrade_timeout_us = 200.0;
    rp_ship_base_cycles = 1200;
    rp_ship_per_byte_cycles = 1;
    rp_replica_fsync_floor_us = 4.0;
    rp_failover = true;
    rp_probes = 8;
  }

type shard_policy = {
  sh_shards : int;  (* warehouse partitions, each with its own engine/log *)
  sh_cross_pct : int;  (* % of NewOrder/Payment touching a remote warehouse *)
  sh_link_base_cycles : int;  (* inter-shard channel cost: per message *)
  sh_link_per_byte_cycles : int;  (* ... per wire byte *)
  sh_prepare_timeout_us : float;  (* coordinator gives up collecting votes *)
  sh_latch_budget : int;  (* participant latch spins before voting no *)
  sh_blocking : bool;  (* ablation: spin on 2PC gates instead of parking *)
}

(* Inter-shard links cost the same as the replication ship channel (a
   cross-NUMA-ish interconnect); the prepare timeout sits an order of
   magnitude above a healthy round trip (~2-6 µs) so only real failures
   trip it, and well under the horizon so orphaned coordinators drain. *)
let default_shard =
  {
    sh_shards = 2;
    sh_cross_pct = 10;
    sh_link_base_cycles = 1200;
    sh_link_per_byte_cycles = 1;
    sh_prepare_timeout_us = 200.0;
    sh_latch_budget = 64;
    sh_blocking = false;
  }

type t = {
  policy : policy;
  n_workers : int;
  n_priority_levels : int;
  hp_queue_size : int;
  lp_queue_size : int;
  op_costs : Op_costs.t;
  uintr_costs : Uintr.Costs.t;
  regions_enabled : bool;
  empty_interrupts : bool;
  hp_backlog_cap : int;
  retry : retry_policy;
  watchdog : watchdog_policy option;
  degrade : degrade_policy option;
  shed_deadline_us : float option;
  reclaim : reclaim_policy option;
  durability : durability_policy option;
  replication : replication_policy option;
  shard : shard_policy option;
  seed : int64;
}

let default ?(policy = Preempt 1.0) ?(n_workers = 16) () =
  {
    policy;
    n_workers;
    n_priority_levels = 2;
    hp_queue_size = 4;
    lp_queue_size = 1;
    op_costs = Op_costs.default;
    uintr_costs = Uintr.Costs.default;
    regions_enabled = true;
    empty_interrupts = false;
    hp_backlog_cap = 100_000;
    retry = default_retry;
    watchdog = None;
    degrade = None;
    shed_deadline_us = None;
    reclaim = None;
    durability = None;
    replication = None;
    shard = None;
    seed = 42L;
  }

let with_resilience ?(watchdog = default_watchdog) ?(degrade = default_degrade)
    ?(shed_deadline_us = 20_000.) cfg =
  { cfg with watchdog = Some watchdog; degrade = Some degrade;
             shed_deadline_us = Some shed_deadline_us }

(* The extra lp queue slot is the one the scheduler reserves for GC
   chunks; without it a capacity-1 lp queue would leave either the lp
   stream or the reclaimer permanently crowded out. *)
let with_reclaim ?(reclaim = default_reclaim) cfg =
  { cfg with reclaim = Some reclaim; lp_queue_size = cfg.lp_queue_size + 1 }

(* Checkpoint chunks ride the same maintenance lane as GC chunks, so they
   too get a reserved lp slot — but only when checkpointing is actually
   armed; plain group commit adds no scheduler traffic. *)
let with_durability ?(durability = default_durability) cfg =
  {
    cfg with
    durability = Some durability;
    lp_queue_size =
      (cfg.lp_queue_size + if durability.du_ckpt_interval_us > 0. then 1 else 0);
  }

(* Replication ships the durability log, so it implies group commit: a
   config without a durability policy gets the default one. *)
let with_replication ?(replication = default_replication) cfg =
  let cfg =
    match cfg.durability with Some _ -> cfg | None -> with_durability cfg
  in
  { cfg with replication = Some replication }

(* 2PC prepares must be durably logged before a participant may vote, so
   sharding implies group commit the same way replication does.  In a
   sharded run [n_workers] is the per-shard pool size. *)
let with_shard ?(shard = default_shard) cfg =
  let cfg =
    match cfg.durability with Some _ -> cfg | None -> with_durability cfg
  in
  { cfg with shard = Some shard }
