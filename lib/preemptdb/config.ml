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
  du_fsync_floor_us : float;
  du_blocking : bool;  (* ablation: hold the context instead of parking *)
  du_ckpt_interval_us : float;  (* 0 = checkpointing off *)
}

(* 16 KiB groups every 10 µs against a ~4 GB/s device with a 4 µs fsync
   floor: a loaded run flushes on bytes, a quiet one on the sweep, and a
   lone commit waits at most ~14 µs for its ack. *)
let default_durability =
  {
    du_group_bytes = 16_384;
    du_group_interval_us = 10.0;
    du_fsync_floor_us = 4.0;
    du_blocking = false;
    du_ckpt_interval_us = 0.;
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
  rp_failover : bool;  (* promote the replica on primary crash *)
}

(* Heartbeats every 20 µs with a 60 µs deadline and a 3-miss budget:
   detection in ~120-180 virtual µs, far above any fault-plan delivery
   delay (10x of a ~0.3 µs nominal) so storms and stragglers cannot fake
   a death. *)
let default_replication =
  {
    rp_mode = Repl_semi_sync;
    rp_hb_interval_us = 20.0;
    rp_hb_timeout_us = 60.0;
    rp_hb_miss_budget = 3;
    rp_degrade_timeout_us = 200.0;
    rp_failover = true;
  }

type shard_policy = {
  sh_shards : int;  (* warehouse partitions, each with its own engine/log *)
  sh_cross_pct : int;  (* % of NewOrder/Payment touching a remote warehouse *)
  sh_blocking : bool;  (* ablation: spin on 2PC gates instead of parking *)
}

let default_shard = { sh_shards = 2; sh_cross_pct = 10; sh_blocking = false }

type t = {
  policy : policy;
  n_workers : int;
  n_priority_levels : int;
  hp_queue_size : int;
  lp_queue_size : int;
  uintr_costs : Uintr.Costs.t;
  regions_enabled : bool;
  empty_interrupts : bool;
  hp_backlog_cap : int;
  retry_max_attempts : int;
  watchdog : bool;
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
    uintr_costs = Uintr.Costs.default;
    regions_enabled = true;
    empty_interrupts = false;
    hp_backlog_cap = 100_000;
    retry_max_attempts = 1000;
    watchdog = false;
    shed_deadline_us = None;
    reclaim = None;
    durability = None;
    replication = None;
    shard = None;
    seed = 42L;
  }

let with_resilience ?(shed_deadline_us = 20_000.) cfg =
  { cfg with watchdog = true; shed_deadline_us = Some shed_deadline_us }

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
