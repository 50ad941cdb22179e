module P = Workload.Program
module Tpcc = Workload.Tpcc
module Tpcc_db = Workload.Tpcc_db
module Tpcc_schema = Workload.Tpcc_schema
module Tpch_db = Workload.Tpch_db
module Tpch_schema = Workload.Tpch_schema
module Tpch_q2 = Workload.Tpch_q2

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
  exhausted : int;
  gc_preempted : int;
  dur_parks : int;
  dur_unparks : int;
  dur_immediate : int;
  dur_block_cycles : int64;
  gate_parks : int;
  gate_unparks : int;
  gate_immediate : int;
  gate_block_cycles : int64;
}

type maint_summary = {
  ms_epoch : int;
  ms_safe : int;
  ms_max_lag : int;
  ms_advances : int;
  ms_chunks : int;
  ms_tuples_scanned : int;
  ms_versions_reclaimed : int;
  ms_passes : int;
  ms_chain_hist : Sim.Histogram.t;
}

type dur_summary = {
  ds_flushes : int;
  ds_durable_lsn : int;
  ds_next_lsn : int;
  ds_log_commits : int;
  ds_acked : int;
  ds_ack_violations : int;
  ds_open_reservations : int;
  ds_buffer_overflows : int;
  ds_crashed : bool;
  ds_lost_at_crash : int;
  ds_ckpt_passes : int;
  ds_ckpt_chunks : int;
  ds_ckpt_tuples : int;
  ds_device_bytes : int64;
  ds_device_busy : int64;
  ds_flush_bytes_hist : Sim.Histogram.t;
  ds_group_txns_hist : Sim.Histogram.t;
}

type repl_summary = {
  rs_mode : Config.replication_mode;
  rs_shipped_upto : int;
  rs_persisted_lsn : int;
  rs_applied_lsn : int;
  rs_batches : int;
  rs_records : int;
  rs_resent : int;
  rs_naks : int;
  rs_acks : int;
  rs_heartbeats : int;
  rs_gaps : int;
  rs_dup_records : int;
  rs_txns_applied : int;
  rs_degraded : bool;
  rs_detector_suspected : bool;
  rs_detector_misses : int;
  rs_ship_sends : int;
  rs_ship_lost : int;
  rs_ship_duplicated : int;
  rs_ship_bytes : int;
  rs_lag_lsn_hist : Sim.Histogram.t;
  rs_lag_us_hist : Sim.Histogram.t;
  rs_max_lag_lsn : int;
  rs_failover : Replication.Failover.outcome option;
  rs_acked_lost : int;
}

type result = {
  cfg : Config.t;
  eng : Storage.Engine.t;
  clock : Sim.Clock.t;
  horizon : int64;
  metrics : Metrics.t;
  workers : worker_totals;
  uintr_sends : int;
  uintr_lost : int;
  uintr_duplicated : int;
  delivery_hist : Sim.Histogram.t;
  engine_stats : Storage.Engine.stats;
  backlog_left : int;
  queued_left : int;
  inflight_left : int;
  dropped_at_kill : int;
  generated_hp : int;
  generated_lp : int;
  generated_gc : int;
  maint : maint_summary option;
  durability : dur_summary option;
  replication : repl_summary option;
  skipped_starved : int;
  shed : int;
  watchdog_resends : int;
  watchdog_giveups : int;
  degrade_enters : int;
  degrade_exits : int;
  events : int;
  digest : string;
  profile : Obs.Profiler.t;
  stages : Uintr.Stages.t;
  des_max_queue : int;
  wall_s : float;
}

let throughput_ktps r label =
  Metrics.throughput_ktps r.metrics label ~horizon:r.horizon ~clock:r.clock

let latency_us r label ~pct = Metrics.latency_us r.metrics label ~pct ~clock:r.clock

let sched_latency_us r label ~pct =
  Metrics.sched_latency_us r.metrics label ~pct ~clock:r.clock

let geomean_latency_us r label = Metrics.geomean_latency_us r.metrics label ~clock:r.clock

let commit_wait_us r label ~pct =
  Metrics.commit_wait_us r.metrics label ~pct ~clock:r.clock

let sum_worker_stats workers =
  Array.fold_left
    (fun acc w ->
      let s = Worker.stats w in
      {
        passive_switches = acc.passive_switches + s.Worker.passive_switches;
        active_switches = acc.active_switches + s.Worker.active_switches;
        drops_region = acc.drops_region + s.Worker.drops_region;
        drops_window = acc.drops_window + s.Worker.drops_window;
        uintr_recognized = acc.uintr_recognized + s.Worker.uintr_recognized;
        coop_yield_checks = acc.coop_yield_checks + s.Worker.coop_yield_checks;
        coop_yields_taken = acc.coop_yields_taken + s.Worker.coop_yields_taken;
        busy_cycles = Int64.add acc.busy_cycles (Int64.of_int s.Worker.busy_cycles);
        hp_context_cycles =
          Int64.add acc.hp_context_cycles (Int64.of_int s.Worker.hp_context_cycles);
        retries = acc.retries + s.Worker.retries;
        exhausted = acc.exhausted + s.Worker.exhausted;
        gc_preempted = acc.gc_preempted + s.Worker.gc_preempted;
        dur_parks = acc.dur_parks + s.Worker.dur_parks;
        dur_unparks = acc.dur_unparks + s.Worker.dur_unparks;
        dur_immediate = acc.dur_immediate + s.Worker.dur_immediate;
        dur_block_cycles =
          Int64.add acc.dur_block_cycles (Int64.of_int s.Worker.dur_block_cycles);
        gate_parks = acc.gate_parks + s.Worker.gate_parks;
        gate_unparks = acc.gate_unparks + s.Worker.gate_unparks;
        gate_immediate = acc.gate_immediate + s.Worker.gate_immediate;
        gate_block_cycles =
          Int64.add acc.gate_block_cycles (Int64.of_int s.Worker.gate_block_cycles);
      })
    {
      passive_switches = 0;
      active_switches = 0;
      drops_region = 0;
      drops_window = 0;
      uintr_recognized = 0;
      coop_yield_checks = 0;
      coop_yields_taken = 0;
      busy_cycles = 0L;
      hp_context_cycles = 0L;
      retries = 0;
      exhausted = 0;
      gc_preempted = 0;
      dur_parks = 0;
      dur_unparks = 0;
      dur_immediate = 0;
      dur_block_cycles = 0L;
      gate_parks = 0;
      gate_unparks = 0;
      gate_immediate = 0;
      gate_block_cycles = 0L;
    }
    workers

type dur_parts = {
  dur_log : Durability.Log.t;
  dur_daemon : Durability.Daemon.t;
  dur_device : Durability.Device.t;
  dur_ckpt : Durability.Checkpoint.t option;
}

type repl_parts = {
  repl_device : Durability.Device.t;  (* the standby's own log device *)
  repl_ship_ch : Replication.Msg.to_replica Uintr.Channel.t;
  repl_ack_ch : Replication.Msg.to_primary Uintr.Channel.t;
  repl_replica : Replication.Replica.t;
  repl_shipper : Replication.Shipper.t;
  repl_detector : Replication.Failure_detector.t;
  repl_failover : Replication.Failover.t option;
}

(* The simulation a node runs on: one DES, one uintr fabric and one cycle
   profiler.  A single-node run builds its own; a sharded cluster
   assembles every shard on one host. *)
type host = {
  h_des : Sim.Des.t;
  h_fabric : Uintr.Fabric.t;
  h_prof : Obs.Profiler.t;
  mutable h_workers : int;  (* workers registered on the fabric so far *)
  mutable h_requests : int;  (* request ids drawn so far *)
}

let host ?obs (cfg : Config.t) =
  let des = Sim.Des.create ~seed:cfg.Config.seed () in
  {
    h_des = des;
    h_fabric = Uintr.Fabric.create ?obs des ~costs:cfg.Config.uintr_costs;
    h_prof = Obs.Profiler.create ();
    h_workers = 0;
    h_requests = 0;
  }

let next_request_id h =
  h.h_requests <- h.h_requests + 1;
  h.h_requests

type assembly = {
  host : host;
  des : Sim.Des.t;
  eng : Storage.Engine.t;
  fabric : Uintr.Fabric.t;
  metrics : Metrics.t;
  workers : Worker.t array;
  maint : Maint.Reclaimer.t option;
  dur : dur_parts option;
  repl : repl_parts option;
  prof : Obs.Profiler.t;
  mutable sched : Sched_thread.t option;
      (* set by [start] so mid-run fault callbacks (primary crash) can
         halt the scheduling thread *)
}

let assemble ?obs ?host:h (cfg : Config.t) =
  let h = match h with Some h -> h | None -> host ?obs cfg in
  let des = h.h_des and fabric = h.h_fabric and prof = h.h_prof in
  let eng = Storage.Engine.create () in
  let timeline_window =
    Sim.Clock.cycles_of_us (Sim.Des.clock des) 10_000.  (* 10 ms intervals *)
  in
  let metrics = Metrics.create ~timeline_window () in
  let workers =
    Array.init cfg.Config.n_workers (fun k ->
        Worker.create ?obs ~prof ~des ~cfg ~fabric ~metrics ~eng ~id:(h.h_workers + k) ())
  in
  h.h_workers <- h.h_workers + cfg.Config.n_workers;
  (* Daemon-style subsystems record on their own timeline tracks
     (durability, maintenance) instead of riding the scheduler's. *)
  let track wid =
    Option.map
      (fun s ev -> Obs.Sink.record s ~time:(Sim.Des.now des) ~wid ~ctx:0 ev)
      obs
  in
  let maint =
    match cfg.Config.reclaim with
    | None -> None
    | Some rp ->
      let epoch = Maint.Epoch.create (Storage.Engine.timestamp eng) in
      Maint.Epoch.attach epoch eng;
      let r =
        Maint.Reclaimer.create ~chunk_tuples:rp.Config.rc_chunk_tuples
          ~non_preemptible_chunks:rp.Config.rc_non_preemptible ~eng ~epoch ()
      in
      Maint.Reclaimer.set_emit r (track Obs.Sink.maint_track);
      Some r
  in
  let dur =
    match cfg.Config.durability with
    | None -> None
    | Some dp ->
      let clock = Sim.Des.clock des in
      let dur_device =
        Durability.Device.create
          ~fsync_floor_cycles:(Sim.Clock.cycles_of_us clock dp.Config.du_fsync_floor_us)
          ()
      in
      let dur_log = Durability.Log.create ~n_workers:cfg.Config.n_workers () in
      Durability.Log.attach dur_log eng;
      let dur_daemon =
        Durability.Daemon.create ~des ~log:dur_log ~device:dur_device
          ~group_bytes:dp.Config.du_group_bytes
          ~group_interval:
            (Int64.max 1L (Sim.Clock.cycles_of_us clock dp.Config.du_group_interval_us))
          ()
      in
      Array.iter
        (fun w -> Worker.set_durability w ~blocking:dp.Config.du_blocking (Some dur_daemon))
        workers;
      Durability.Daemon.set_emit dur_daemon (track Obs.Sink.dur_track);
      let dur_ckpt =
        if dp.Config.du_ckpt_interval_us > 0. then begin
          let c = Durability.Checkpoint.create ~eng ~log:dur_log () in
          Durability.Checkpoint.set_emit c (track Obs.Sink.maint_track);
          Some c
        end
        else None
      in
      Some { dur_log; dur_daemon; dur_device; dur_ckpt }
  in
  let repl =
    match (cfg.Config.replication, dur) with
    | Some rp, Some d ->
      let clock = Sim.Des.clock des in
      (* The standby's log device is a default one, whatever the
         primary's fsync floor. *)
      let repl_device = Durability.Device.create () in
      let repl_ship_ch = Uintr.Channel.create des ~fabric ~name:"ship" in
      let repl_ack_ch = Uintr.Channel.create des ~fabric ~name:"ack" in
      let repl_replica =
        Replication.Replica.create ?obs des ~clock ~primary_log:d.dur_log
          ~device:repl_device ~ack_ch:repl_ack_ch ()
      in
      let mode =
        match rp.Config.rp_mode with
        | Config.Repl_async -> Replication.Shipper.Async
        | Config.Repl_semi_sync -> Replication.Shipper.Semi_sync
      in
      let repl_shipper =
        Replication.Shipper.create ?obs des ~clock ~log:d.dur_log
          ~daemon:d.dur_daemon ~ship_ch:repl_ship_ch ~mode
          ~hb_interval_us:rp.Config.rp_hb_interval_us
          ~degrade_timeout_us:rp.Config.rp_degrade_timeout_us ()
      in
      let repl_detector =
        Replication.Failure_detector.create ?obs des ~clock
          ~timeout_us:rp.Config.rp_hb_timeout_us
          ~check_interval_us:rp.Config.rp_hb_interval_us
          ~miss_budget:rp.Config.rp_hb_miss_budget ()
      in
      let repl_failover =
        if rp.Config.rp_failover then
          Some
            (Replication.Failover.create ?obs des ~clock ~replica:repl_replica
               ~detector:repl_detector ())
        else None
      in
      Uintr.Channel.set_on_deliver repl_ship_ch (fun m ->
          Replication.Replica.handle repl_replica m);
      Uintr.Channel.set_on_deliver repl_ack_ch (fun m ->
          Replication.Shipper.handle repl_shipper m);
      Replication.Replica.set_on_alive repl_replica
        (Some (fun () -> Replication.Failure_detector.note_alive repl_detector));
      Some
        {
          repl_device;
          repl_ship_ch;
          repl_ack_ch;
          repl_replica;
          repl_shipper;
          repl_detector;
          repl_failover;
        }
    | _ -> None
  in
  { host = h; des; eng; fabric; metrics; workers; maint; dur; repl; prof; sched = None }

(* Fail-stop the primary node mid-run (the failover scenario's crash
   edge): the group-commit daemon tears, every worker and the scheduling
   thread halt, shipping stops and both replication channels sever — from
   the replica's side the primary simply goes silent.  The DES keeps
   running so detection and promotion play out in virtual time. *)
let crash_primary (a : assembly) ~rng =
  (match a.dur with
  | Some d -> Durability.Daemon.crash d.dur_daemon ~rng
  | None -> ());
  Array.iter Worker.kill a.workers;
  (match a.sched with Some s -> Sched_thread.halt s | None -> ());
  match a.repl with
  | Some r ->
    Replication.Shipper.halt r.repl_shipper;
    Uintr.Channel.sever r.repl_ship_ch;
    Uintr.Channel.sever r.repl_ack_ch;
    (match r.repl_failover with
    | Some f -> Replication.Failover.note_primary_crash f
    | None -> ())
  | None -> ()

(* Fail-stop the standby: it stops persisting and acking, the channels
   sever, and (in semi-sync) the primary's degrade watchdog releases the
   gated commit waiters after the timeout. *)
let crash_replica (a : assembly) =
  match a.repl with
  | Some r ->
    Replication.Replica.halt r.repl_replica;
    Replication.Failure_detector.halt r.repl_detector;
    Uintr.Channel.sever r.repl_ship_ch;
    Uintr.Channel.sever r.repl_ack_ch
  | None -> ()

(* The scheduling thread's maintenance lanes: GC chunks, then checkpoint
   chunks, each minted from its own seeded random stream (like the
   workload generators). *)
let lanes (a : assembly) (cfg : Config.t) =
  let clock = Sim.Des.clock a.des in
  let lane label ~seed prog ~interval_us ~per_tick =
    let rng = Sim.Rng.create (Int64.add cfg.Config.seed seed) in
    let gen ~submitted_at =
      Request.make ~id:(next_request_id a.host) ~label ~priority:Request.Low ~prog
        ~rng:(Sim.Rng.split rng) ~submitted_at
    in
    let interval = Int64.max 1L (Sim.Clock.cycles_of_us clock interval_us) in
    { Sched_thread.gen; interval; per_tick }
  in
  let gc =
    match a.maint, cfg.Config.reclaim with
    | Some r, Some rp ->
      [
        lane "GC" ~seed:77L (Maint.Reclaimer.chunk_program r)
          ~interval_us:rp.Config.rc_gc_interval_us ~per_tick:rp.Config.rc_chunks_per_tick;
      ]
    | _ -> []
  in
  let ckpt =
    match a.dur, cfg.Config.durability with
    | Some { dur_ckpt = Some c; _ }, Some dp ->
      [
        lane "Ckpt" ~seed:79L (Durability.Checkpoint.chunk_program c)
          ~interval_us:dp.Config.du_ckpt_interval_us ~per_tick:1;
      ]
    | _ -> []
  in
  gc @ ckpt

(* Cross-run sim-rate ledger: wall seconds and virtual microseconds spent
   inside [Sim.Des.run], accumulated over every run in the process so the
   bench driver can report virtual-µs-per-wall-second deltas per
   experiment. *)
let wall_in_runs = ref 0.
let virtual_us_in_runs = ref 0.
let perf_totals () = (!wall_in_runs, !virtual_us_in_runs)

let start (a : assembly) sched =
  a.sched <- Some sched;
  (* All bootstrap loading is done: capture the recovery base image and
     arm the group-commit daemon before the first transaction runs. *)
  (match a.dur with
  | Some d ->
    Durability.Log.snapshot_base d.dur_log a.eng;
    Durability.Daemon.start d.dur_daemon
  | None -> ());
  (* The replica seeds from the freshly-captured base image, then the
     shipper and detector loops begin. *)
  (match a.repl with
  | Some r ->
    Replication.Replica.start r.repl_replica;
    Replication.Shipper.start r.repl_shipper;
    Replication.Failure_detector.start r.repl_detector
  | None -> ());
  Sched_thread.start sched

let run_des des ~horizon =
  let t0 = Unix.gettimeofday () in
  Sim.Des.run ~until:horizon des;
  let wall_s = Unix.gettimeofday () -. t0 in
  wall_in_runs := !wall_in_runs +. wall_s;
  virtual_us_in_runs :=
    !virtual_us_in_runs +. Sim.Clock.us_of_cycles (Sim.Des.clock des) horizon;
  wall_s

(* Close the cycle ledger: whatever a worker did not charge as busy work
   over the horizon was idle.  After this, each worker's buckets sum to the
   full horizon — the conservation invariant the profiler exports. *)
let close_idle (a : assembly) ~horizon =
  Array.iter
    (fun w ->
      let busy = Int64.of_int (Worker.stats w).Worker.busy_cycles in
      let idle = Int64.to_int (Int64.max 0L (Int64.sub horizon busy)) in
      Obs.Profiler.account (Obs.Profiler.worker a.prof ~wid:(Worker.id w))
        Obs.Profiler.Idle idle)
    a.workers

let schedule_digest metrics prof =
  let mix h x = (h lxor x) * 0x100000001b3 in
  let cells =
    List.fold_left
      (fun h wid ->
        List.fold_left
          (fun h (name, cycles) -> mix (mix (mix h wid) (Hashtbl.hash name)) (Int64.to_int cycles))
          h
          (List.sort compare (Obs.Profiler.worker_buckets prof ~wid)))
      0x811c9dc5 (Obs.Profiler.worker_ids prof)
  in
  Printf.sprintf "%x" (List.fold_left (fun h m -> mix h (Metrics.digest m)) cells metrics)

let finish (a : assembly) (cfg : Config.t) (sched : Sched_thread.t) ~horizon =
  start a sched;
  let wall_s = run_des a.des ~horizon in
  close_idle a ~horizon;
  let sum f = Array.fold_left (fun acc w -> acc + f w) 0 a.workers in
  {
    cfg;
    eng = a.eng;
    clock = Sim.Des.clock a.des;
    horizon;
    metrics = a.metrics;
    workers = sum_worker_stats a.workers;
    uintr_sends = Uintr.Fabric.sends a.fabric;
    uintr_lost = Uintr.Fabric.lost a.fabric;
    uintr_duplicated = Uintr.Fabric.duplicated a.fabric;
    delivery_hist = Uintr.Fabric.delivery_histogram a.fabric;
    engine_stats = Storage.Engine.stats a.eng;
    backlog_left = Sched_thread.backlog_length sched;
    queued_left = sum Worker.queued_requests;
    inflight_left = sum Worker.inflight_requests;
    dropped_at_kill = sum Worker.dropped_at_kill;
    generated_hp = Sched_thread.generated_hp sched;
    generated_lp = Sched_thread.generated_lp sched;
    generated_gc = Sched_thread.generated_gc sched;
    maint =
      Option.map
        (fun r ->
          let ep = Maint.Reclaimer.epoch r in
          {
            ms_epoch = Maint.Epoch.current ep;
            ms_safe = Maint.Epoch.safe_epoch ep;
            ms_max_lag = Maint.Epoch.max_lag ep;
            ms_advances = Maint.Epoch.advances ep;
            ms_chunks = Maint.Reclaimer.chunks r;
            ms_tuples_scanned = Maint.Reclaimer.tuples_scanned r;
            ms_versions_reclaimed = Maint.Reclaimer.versions_reclaimed r;
            ms_passes = Maint.Reclaimer.passes r;
            ms_chain_hist = Maint.Reclaimer.chain_histogram r;
          })
        a.maint;
    durability =
      Option.map
        (fun d ->
          let log = d.dur_log in
          let dm = d.dur_daemon in
          {
            ds_flushes = Durability.Daemon.flushes dm;
            ds_durable_lsn = Durability.Log.durable_lsn log;
            ds_next_lsn = Durability.Log.next_lsn log;
            ds_log_commits = Durability.Log.committed log;
            ds_acked = Durability.Daemon.acked_count dm;
            ds_ack_violations = Durability.Daemon.ack_violations dm;
            ds_open_reservations = Durability.Log.open_reservations log;
            ds_buffer_overflows = Durability.Log.buffer_overflows log;
            ds_crashed = Durability.Daemon.crashed dm;
            ds_lost_at_crash = Durability.Daemon.lost_at_crash dm;
            ds_ckpt_passes =
              (match d.dur_ckpt with Some c -> Durability.Checkpoint.passes c | None -> 0);
            ds_ckpt_chunks =
              (match d.dur_ckpt with Some c -> Durability.Checkpoint.chunks c | None -> 0);
            ds_ckpt_tuples =
              (match d.dur_ckpt with
              | Some c -> Durability.Checkpoint.tuples_scanned c
              | None -> 0);
            ds_device_bytes = Durability.Device.bytes_written d.dur_device;
            ds_device_busy = Durability.Device.busy_cycles d.dur_device;
            ds_flush_bytes_hist = Durability.Daemon.flush_bytes_hist dm;
            ds_group_txns_hist = Durability.Daemon.group_txns_hist dm;
          })
        a.dur;
    replication =
      Option.map
        (fun r ->
          let sh = r.repl_shipper in
          let re = r.repl_replica in
          let fo = Option.bind r.repl_failover Replication.Failover.outcome in
          (* RPO in acked commits: marker LSNs the primary acknowledged
             that lie beyond the surviving (replica-applied) prefix.  Only
             a crash loses them — without one they are merely in flight. *)
          let acked_lost =
            match a.dur with
            | Some d when Durability.Daemon.crashed d.dur_daemon ->
              let survivor =
                match fo with
                | Some o -> o.Replication.Failover.fo_applied_lsn
                | None -> Replication.Replica.applied_lsn re
              in
              List.length
                (List.filter
                   (fun l -> l >= survivor)
                   (Durability.Daemon.acked d.dur_daemon))
            | _ -> 0
          in
          {
            rs_mode =
              (match Replication.Shipper.mode sh with
              | Replication.Shipper.Async -> Config.Repl_async
              | Replication.Shipper.Semi_sync -> Config.Repl_semi_sync);
            rs_shipped_upto = Replication.Shipper.shipped_upto sh;
            rs_persisted_lsn = Replication.Replica.persisted_lsn re;
            rs_applied_lsn = Replication.Replica.applied_lsn re;
            rs_batches = Replication.Shipper.batches sh;
            rs_records = Replication.Shipper.records_shipped sh;
            rs_resent = Replication.Shipper.resent_records sh;
            rs_naks = Replication.Shipper.naks sh;
            rs_acks = Replication.Shipper.acks sh;
            rs_heartbeats = Replication.Shipper.heartbeats sh;
            rs_gaps = Replication.Replica.gaps re;
            rs_dup_records = Replication.Replica.dup_records re;
            rs_txns_applied = Replication.Replica.txns_applied re;
            rs_degraded = Replication.Shipper.degraded sh;
            rs_detector_suspected =
              Replication.Failure_detector.suspected r.repl_detector;
            rs_detector_misses =
              Replication.Failure_detector.total_misses r.repl_detector;
            rs_ship_sends = Uintr.Channel.sends r.repl_ship_ch;
            rs_ship_lost = Uintr.Channel.lost r.repl_ship_ch;
            rs_ship_duplicated = Uintr.Channel.duplicated r.repl_ship_ch;
            rs_ship_bytes = Uintr.Channel.bytes_sent r.repl_ship_ch;
            rs_lag_lsn_hist = Replication.Replica.lag_lsn_hist re;
            rs_lag_us_hist = Replication.Replica.lag_us_hist re;
            rs_max_lag_lsn = Replication.Replica.max_lag_lsn re;
            rs_failover = fo;
            rs_acked_lost = acked_lost;
          })
        a.repl;
    skipped_starved = Sched_thread.skipped_starved sched;
    shed = Sched_thread.shed sched;
    watchdog_resends = Sched_thread.watchdog_resends sched;
    watchdog_giveups = Sched_thread.watchdog_giveups sched;
    degrade_enters = Sched_thread.degrade_enters sched;
    degrade_exits = Sched_thread.degrade_exits sched;
    events = Sim.Des.events_processed a.des;
    digest = schedule_digest [ a.metrics ] a.prof;
    profile = a.prof;
    stages = Uintr.Fabric.stages a.fabric;
    des_max_queue = Sim.Des.max_queue_depth a.des;
    wall_s;
  }

(* -- drivers ---------------------------------------------------------------- *)

(* What a driver's workload feeds its scheduling thread: high-priority,
   low-priority and urgent request streams (the urgent one with its batch
   size and interval). *)
type streams = {
  hp : (submitted_at:int64 -> Request.t) option;
  lp : (worker:int -> submitted_at:int64 -> Request.t) option;
  urgent : ((submitted_at:int64 -> Request.t) * int * int64) option;
}

(* The one driver body: assemble a node, let [load] fill its databases
   (from the seed+1 stream) and build its request streams (drawing from
   the seed+2 stream), hand the assembly to [prepare], then schedule and
   run to the horizon. *)
let drive ~cfg ?obs ?prepare ?hp_batch ?lp_interval_us ?empty_interrupt_ticks
    ~arrival_interval_us ~horizon_sec load =
  let a = assemble ?obs cfg in
  let clock = Sim.Des.clock a.des in
  let streams =
    load a
      ~load_rng:(Sim.Rng.create (Int64.add cfg.Config.seed 1L))
      ~gen_rng:(Sim.Rng.create (Int64.add cfg.Config.seed 2L))
  in
  (match prepare with Some f -> f a | None -> ());
  let sched =
    Sched_thread.create ~des:a.des ~cfg ~fabric:a.fabric ~metrics:a.metrics
      ~workers:a.workers ?obs ?lp_gen:streams.lp
      ?epoch:(Option.map Maint.Reclaimer.epoch a.maint) ~lanes:(lanes a cfg)
      ?hp_gen:streams.hp ?hp_batch
      ?urgent_gen:(Option.map (fun (g, _, _) -> g) streams.urgent)
      ?urgent_batch:(Option.map (fun (_, b, _) -> b) streams.urgent)
      ?urgent_interval:(Option.map (fun (_, _, i) -> i) streams.urgent)
      ?empty_interrupt_ticks
      ?lp_interval:(Option.map (Sim.Clock.cycles_of_us clock) lp_interval_us)
      ~arrival_interval:(Sim.Clock.cycles_of_us clock arrival_interval_us)
      ()
  in
  finish a cfg sched ~horizon:(Sim.Clock.cycles_of_sec clock horizon_sec)

(* The TPC-C database: [tpcc_cfg], by default one warehouse per worker. *)
let load_tpcc (a : assembly) (cfg : Config.t) tpcc_cfg rng =
  let tpcc_cfg =
    match tpcc_cfg with
    | Some c -> c
    | None -> Tpcc_schema.small ~warehouses:cfg.Config.n_workers
  in
  let db = Tpcc_db.create a.eng tpcc_cfg in
  Tpcc_db.load db rng;
  db

let load_tpch (a : assembly) tpch_cfg rng =
  let db = Tpch_db.create a.eng (Option.value tpch_cfg ~default:Tpch_schema.default) in
  Tpch_db.load db rng;
  db

(* TPC-C programs run against the executing worker's home warehouse. *)
let home_w db (env : P.env) = (env.P.worker mod db.Tpcc_db.cfg.Tpcc_schema.warehouses) + 1

(* The high-priority stream of most drivers: a 50/50 NewOrder/Payment mix. *)
let new_order_payment (a : assembly) db gen_rng ~submitted_at =
  let rng = Sim.Rng.split gen_rng in
  let kind = if Sim.Rng.bool gen_rng then Tpcc.New_order else Tpcc.Payment in
  let prog env = Tpcc.program db kind ~home_w:(home_w db env) env in
  Request.make ~id:(next_request_id a.host) ~label:(Tpcc.kind_to_string kind)
    ~priority:Request.High ~prog ~rng ~submitted_at

let q2_stream (a : assembly) tpch gen_rng ~worker:_ ~submitted_at =
  let rng = Sim.Rng.split gen_rng in
  Request.make ~id:(next_request_id a.host) ~label:"Q2" ~priority:Request.Low
    ~prog:(Tpch_q2.random_program tpch) ~rng ~submitted_at

let run_mixed ~cfg ?tpcc_cfg ?tpch_cfg ?obs ?prepare ?(arrival_interval_us = 1000.)
    ?lp_interval_us ?(horizon_sec = 0.3) ?hp_batch () =
  drive ~cfg ?obs ?prepare ?hp_batch ?lp_interval_us ~arrival_interval_us ~horizon_sec
    (fun a ~load_rng ~gen_rng ->
      let tpcc = load_tpcc a cfg tpcc_cfg load_rng in
      let tpch = load_tpch a tpch_cfg load_rng in
      {
        hp = Some (new_order_payment a tpcc gen_rng);
        lp = Some (q2_stream a tpch gen_rng);
        urgent = None;
      })

let run_tpcc ~cfg ?tpcc_cfg ?obs ?prepare ?(horizon_sec = 0.3)
    ?(arrival_interval_us = 25.) ?(empty_interrupt_ticks = 4) () =
  drive ~cfg ?obs ?prepare ~empty_interrupt_ticks ~arrival_interval_us ~horizon_sec
    (fun a ~load_rng ~gen_rng ->
      let tpcc = load_tpcc a cfg tpcc_cfg load_rng in
      let lp ~worker:_ ~submitted_at =
        let rng = Sim.Rng.split gen_rng in
        let kind = Tpcc.standard_mix gen_rng in
        let prog env = Tpcc.program tpcc kind ~home_w:(home_w tpcc env) env in
        Request.make ~id:(next_request_id a.host) ~label:(Tpcc.kind_to_string kind)
          ~priority:Request.Low ~prog ~rng ~submitted_at
      in
      { hp = None; lp = Some lp; urgent = None })

let run_htap ~cfg ?tpcc_cfg ?obs ?prepare ?(arrival_interval_us = 1000.)
    ?(horizon_sec = 0.1) ?hp_batch () =
  drive ~cfg ?obs ?prepare ?hp_batch ~arrival_interval_us ~horizon_sec
    (fun a ~load_rng ~gen_rng ->
      let tpcc = load_tpcc a cfg tpcc_cfg load_rng in
      (* Low priority: CH-benCHmark reporting queries over the live TPC-C
         tables — analytics paused over data being written. *)
      let lp ~worker:_ ~submitted_at =
        let rng = Sim.Rng.split gen_rng in
        let kind = Workload.Ch.random_kind gen_rng in
        Request.make ~id:(next_request_id a.host) ~label:(Workload.Ch.kind_to_string kind)
          ~priority:Request.Low ~prog:(Workload.Ch.program tpcc kind) ~rng ~submitted_at
      in
      { hp = Some (new_order_payment a tpcc gen_rng); lp = Some lp; urgent = None })

let run_tiered ~cfg ?tpcc_cfg ?tpch_cfg ?obs ?prepare ?(arrival_interval_us = 1000.)
    ?(horizon_sec = 0.1) ?hp_batch ?urgent_batch () =
  drive ~cfg ?obs ?prepare ?hp_batch ~arrival_interval_us ~horizon_sec
    (fun a ~load_rng ~gen_rng ->
      let tpcc = load_tpcc a cfg tpcc_cfg load_rng in
      let tpch = load_tpch a tpch_cfg load_rng in
      (* High = StockLevel (a mid-length read-only scan, ~100 µs), Urgent =
         a 2 µs balance lookup: the pairing where preempting an
         in-progress high-priority transaction pays off. *)
      let hp ~submitted_at =
        let rng = Sim.Rng.split gen_rng in
        let prog env = Tpcc.stock_level tpcc ~home_w:(home_w tpcc env) env in
        Request.make ~id:(next_request_id a.host) ~label:"StockLevel" ~priority:Request.High
          ~prog ~rng ~submitted_at
      in
      let urgent ~submitted_at =
        let rng = Sim.Rng.split gen_rng in
        let prog env = Tpcc.balance_check tpcc ~home_w:(home_w tpcc env) env in
        Request.make ~id:(next_request_id a.host) ~label:"BalanceCheck" ~priority:Request.Urgent
          ~prog ~rng ~submitted_at
      in
      (* Urgent lookups arrive on their own, 4x denser cadence in small
         batches, so most land while a StockLevel batch is in progress. *)
      let interval =
        Int64.div (Sim.Clock.cycles_of_us (Sim.Des.clock a.des) arrival_interval_us) 4L
      in
      let batch = Option.value urgent_batch ~default:(cfg.Config.n_workers * 2) in
      {
        hp = Some hp;
        lp = Some (q2_stream a tpch gen_rng);
        urgent = Some (urgent, batch, interval);
      })

let run_ledger ~cfg ?obs ?prepare
    ?(arrival_interval_us = 200.) ?(horizon_sec = 0.05) ?hp_batch () =
  let ledger = ref None in
  let result =
    drive ~cfg ?obs ?prepare ?hp_batch ~arrival_interval_us ~horizon_sec
      (fun a ~load_rng ~gen_rng ->
        let l = Workload.Ledger.create a.eng Workload.Ledger.default in
        Workload.Ledger.load l load_rng;
        ledger := Some l;
        let request label priority prog ~submitted_at =
          Request.make ~id:(next_request_id a.host) ~label ~priority ~prog:(prog l)
            ~rng:(Sim.Rng.split gen_rng) ~submitted_at
        in
        {
          hp = Some (request "Transfer" Request.High Workload.Ledger.transfer);
          lp = Some (fun ~worker:_ -> request "Audit" Request.Low Workload.Ledger.audit);
          urgent = None;
        })
  in
  (result, Workload.Ledger.total_balance (Option.get !ledger))

(* The memory-footprint workload: high priority only — NewOrder + Payment
   hammering the warehouse / district / customer YTD rows, whose chains
   grow with every commit.  No analytics stream: the low-priority level
   belongs to GC chunks, so this driver isolates reclamation's interaction
   with the latency-critical path. *)
let run_maintenance ~cfg ?tpcc_cfg ?obs ?prepare ?(arrival_interval_us = 1000.)
    ?(horizon_sec = 0.1) ?hp_batch () =
  drive ~cfg ?obs ?prepare ?hp_batch ~arrival_interval_us ~horizon_sec
    (fun a ~load_rng ~gen_rng ->
      let tpcc = load_tpcc a cfg tpcc_cfg load_rng in
      { hp = Some (new_order_payment a tpcc gen_rng); lp = None; urgent = None })

let tpcc_labels =
  [ "NewOrder"; "Payment"; "OrderStatus"; "Delivery"; "StockLevel" ]

let total_tpcc_ktps r =
  List.fold_left (fun acc label -> acc +. throughput_ktps r label) 0. tpcc_labels
