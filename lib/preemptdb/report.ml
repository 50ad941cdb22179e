module J = Obs.Json
module Registry = Obs.Registry

let registry_of_result (r : Runner.result) =
  let reg = Registry.create () in
  let c name v = Registry.add (Registry.counter reg name) v in
  let w = r.Runner.workers in
  c "worker_passive_switches" w.Runner.passive_switches;
  c "worker_active_switches" w.Runner.active_switches;
  c "worker_drops_region" w.Runner.drops_region;
  c "worker_drops_window" w.Runner.drops_window;
  c "worker_uintr_recognized" w.Runner.uintr_recognized;
  c "worker_coop_yield_checks" w.Runner.coop_yield_checks;
  c "worker_coop_yields_taken" w.Runner.coop_yields_taken;
  c "worker_busy_cycles" (Int64.to_int w.Runner.busy_cycles);
  c "worker_hp_context_cycles" (Int64.to_int w.Runner.hp_context_cycles);
  c "worker_retries" w.Runner.retries;
  c "worker_exhausted" w.Runner.exhausted;
  c "uintr_sends" r.Runner.uintr_sends;
  c "uintr_lost" r.Runner.uintr_lost;
  c "uintr_duplicated" r.Runner.uintr_duplicated;
  c "drops" (Metrics.drops r.Runner.metrics);
  c "backlog_left" r.Runner.backlog_left;
  c "queued_left" r.Runner.queued_left;
  c "inflight_left" r.Runner.inflight_left;
  c "generated_hp" r.Runner.generated_hp;
  c "generated_lp" r.Runner.generated_lp;
  c "generated_gc" r.Runner.generated_gc;
  c "worker_gc_preempted" w.Runner.gc_preempted;
  c "skipped_starved" r.Runner.skipped_starved;
  c "shed" r.Runner.shed;
  c "watchdog_resends" r.Runner.watchdog_resends;
  c "watchdog_giveups" r.Runner.watchdog_giveups;
  c "degrade_enters" r.Runner.degrade_enters;
  c "degrade_exits" r.Runner.degrade_exits;
  c "des_events" r.Runner.events;
  c "des_max_queue_depth" r.Runner.des_max_queue;
  (let st = r.Runner.stages in
   c "uintr_stage_completed" (Uintr.Stages.completed st);
   c "uintr_stage_rejected" (Uintr.Stages.rejected st);
   List.iter
     (fun (name, h) ->
       if not (Sim.Histogram.is_empty h) then Registry.attach_histogram reg name h)
     [
       ("uintr_stage_send_to_deliver", Uintr.Stages.send_to_deliver st);
       ("uintr_stage_deliver_to_recognize", Uintr.Stages.deliver_to_recognize st);
       ("uintr_stage_recognize_to_switch", Uintr.Stages.recognize_to_switch st);
       ("uintr_stage_switch_to_resume", Uintr.Stages.switch_to_resume st);
       ("uintr_stage_send_to_resume", Uintr.Stages.send_to_resume st);
     ]);
  let es = r.Runner.engine_stats in
  c "engine_commits" es.Storage.Engine.commits;
  c "engine_aborts_conflict" es.Storage.Engine.aborts_conflict;
  c "engine_aborts_validation" es.Storage.Engine.aborts_validation;
  c "engine_aborts_deadlock" es.Storage.Engine.aborts_deadlock;
  c "engine_aborts_user" es.Storage.Engine.aborts_user;
  c "engine_reads" es.Storage.Engine.reads;
  c "engine_updates" es.Storage.Engine.updates;
  c "engine_inserts" es.Storage.Engine.inserts;
  c "engine_deletes" es.Storage.Engine.deletes;
  (* Per-table version-chain shape — reported even with reclamation off,
     so the GC-off baseline's growth is visible in the same counters. *)
  List.iter
    (fun (cs : Storage.Engine.chain_stat) ->
      let labels = [ ("table", cs.Storage.Engine.cs_table) ] in
      Registry.add (Registry.counter reg ~labels "chain_tuples") cs.Storage.Engine.cs_tuples;
      Registry.add
        (Registry.counter reg ~labels "chain_versions")
        cs.Storage.Engine.cs_versions;
      Registry.add (Registry.counter reg ~labels "chain_max_len") cs.Storage.Engine.cs_max_len)
    (Storage.Engine.chain_stats r.Runner.eng);
  (match r.Runner.durability with
  | None -> ()
  | Some d ->
    c "dur_flushes" d.Runner.ds_flushes;
    c "dur_durable_lsn" d.Runner.ds_durable_lsn;
    c "dur_next_lsn" d.Runner.ds_next_lsn;
    c "dur_log_commits" d.Runner.ds_log_commits;
    c "dur_acked" d.Runner.ds_acked;
    c "dur_ack_violations" d.Runner.ds_ack_violations;
    c "dur_open_reservations" d.Runner.ds_open_reservations;
    c "dur_buffer_overflows" d.Runner.ds_buffer_overflows;
    c "dur_lost_at_crash" d.Runner.ds_lost_at_crash;
    c "dur_ckpt_passes" d.Runner.ds_ckpt_passes;
    c "dur_ckpt_chunks" d.Runner.ds_ckpt_chunks;
    c "dur_ckpt_tuples" d.Runner.ds_ckpt_tuples;
    c "dur_device_bytes" (Int64.to_int d.Runner.ds_device_bytes);
    c "dur_device_busy_cycles" (Int64.to_int d.Runner.ds_device_busy);
    c "worker_dur_parks" w.Runner.dur_parks;
    c "worker_dur_unparks" w.Runner.dur_unparks;
    c "worker_dur_immediate" w.Runner.dur_immediate;
    c "worker_dur_block_cycles" (Int64.to_int w.Runner.dur_block_cycles);
    Registry.attach_histogram reg "dur_flush_bytes" d.Runner.ds_flush_bytes_hist;
    Registry.attach_histogram reg "dur_group_txns" d.Runner.ds_group_txns_hist);
  (match r.Runner.replication with
  | None -> ()
  | Some rs ->
    c "repl_shipped_upto" rs.Runner.rs_shipped_upto;
    c "repl_persisted_lsn" rs.Runner.rs_persisted_lsn;
    c "repl_applied_lsn" rs.Runner.rs_applied_lsn;
    c "repl_batches" rs.Runner.rs_batches;
    c "repl_records" rs.Runner.rs_records;
    c "repl_resent" rs.Runner.rs_resent;
    c "repl_naks" rs.Runner.rs_naks;
    c "repl_acks" rs.Runner.rs_acks;
    c "repl_heartbeats" rs.Runner.rs_heartbeats;
    c "repl_gaps" rs.Runner.rs_gaps;
    c "repl_dup_records" rs.Runner.rs_dup_records;
    c "repl_txns_applied" rs.Runner.rs_txns_applied;
    c "repl_degraded" (if rs.Runner.rs_degraded then 1 else 0);
    c "repl_detector_suspected" (if rs.Runner.rs_detector_suspected then 1 else 0);
    c "repl_detector_misses" rs.Runner.rs_detector_misses;
    c "repl_ship_sends" rs.Runner.rs_ship_sends;
    c "repl_ship_lost" rs.Runner.rs_ship_lost;
    c "repl_ship_duplicated" rs.Runner.rs_ship_duplicated;
    c "repl_ship_bytes" rs.Runner.rs_ship_bytes;
    c "repl_max_lag_lsn" rs.Runner.rs_max_lag_lsn;
    c "repl_acked_lost" rs.Runner.rs_acked_lost;
    if not (Sim.Histogram.is_empty rs.Runner.rs_lag_lsn_hist) then
      Registry.attach_histogram reg "repl_lag_lsn" rs.Runner.rs_lag_lsn_hist;
    if not (Sim.Histogram.is_empty rs.Runner.rs_lag_us_hist) then
      Registry.attach_histogram reg "repl_lag_us" rs.Runner.rs_lag_us_hist);
  (match r.Runner.maint with
  | None -> ()
  | Some m ->
    c "maint_epoch" m.Runner.ms_epoch;
    c "maint_safe_epoch" m.Runner.ms_safe;
    c "maint_max_epoch_lag" m.Runner.ms_max_lag;
    c "maint_epoch_advances" m.Runner.ms_advances;
    c "maint_gc_chunks" m.Runner.ms_chunks;
    c "maint_tuples_scanned" m.Runner.ms_tuples_scanned;
    c "maint_versions_reclaimed" m.Runner.ms_versions_reclaimed;
    c "maint_gc_passes" m.Runner.ms_passes;
    Registry.attach_histogram reg "gc_chain_length" m.Runner.ms_chain_hist);
  Registry.attach_histogram reg "uintr_delivery" r.Runner.delivery_hist;
  List.iter
    (fun (label, (cs : Metrics.class_stats)) ->
      let labels = [ ("class", label) ] in
      Registry.add (Registry.counter reg ~labels "txn_committed") cs.Metrics.committed;
      Registry.add (Registry.counter reg ~labels "txn_aborted") cs.Metrics.aborted;
      Registry.add
        (Registry.counter reg ~labels "txn_aborted_conflict")
        cs.Metrics.aborted_conflict;
      Registry.add
        (Registry.counter reg ~labels "txn_aborted_validation")
        cs.Metrics.aborted_validation;
      Registry.add
        (Registry.counter reg ~labels "txn_aborted_deadlock")
        cs.Metrics.aborted_deadlock;
      Registry.add
        (Registry.counter reg ~labels "txn_aborted_user")
        cs.Metrics.aborted_user;
      Registry.add (Registry.counter reg ~labels "txn_exhausted") cs.Metrics.exhausted;
      Registry.add (Registry.counter reg ~labels "txn_shed") cs.Metrics.shed;
      Registry.attach_histogram reg ~labels "latency_e2e" cs.Metrics.end_to_end;
      Registry.attach_histogram reg ~labels "latency_sched" cs.Metrics.scheduling;
      if not (Sim.Histogram.is_empty cs.Metrics.commit_wait) then
        Registry.attach_histogram reg ~labels "commit_wait" cs.Metrics.commit_wait)
    (Metrics.classes r.Runner.metrics);
  reg

let config_json (r : Runner.result) =
  let cfg = r.Runner.cfg in
  J.Obj
    [
      ("policy", J.String (Config.policy_to_string cfg.Config.policy));
      ("n_workers", J.Int cfg.Config.n_workers);
      ("n_priority_levels", J.Int cfg.Config.n_priority_levels);
      ("hp_queue_size", J.Int cfg.Config.hp_queue_size);
      ("lp_queue_size", J.Int cfg.Config.lp_queue_size);
      ("regions_enabled", J.Bool cfg.Config.regions_enabled);
      ("empty_interrupts", J.Bool cfg.Config.empty_interrupts);
      ("hp_backlog_cap", J.Int cfg.Config.hp_backlog_cap);
      ("retry_max_attempts", J.Int cfg.Config.retry_max_attempts);
      ("watchdog", J.Bool cfg.Config.watchdog);
      ( "shed_deadline_us",
        match cfg.Config.shed_deadline_us with Some d -> J.Float d | None -> J.Null );
      ( "durability",
        match cfg.Config.durability with
        | None -> J.Null
        | Some dp ->
          J.Obj
            [
              ("group_bytes", J.Int dp.Config.du_group_bytes);
              ("group_interval_us", J.Float dp.Config.du_group_interval_us);
              ("fsync_floor_us", J.Float dp.Config.du_fsync_floor_us);
              ("blocking", J.Bool dp.Config.du_blocking);
              ("ckpt_interval_us", J.Float dp.Config.du_ckpt_interval_us);
            ] );
      ( "replication",
        match cfg.Config.replication with
        | None -> J.Null
        | Some rp ->
          J.Obj
            [
              ("mode", J.String (Config.replication_mode_to_string rp.Config.rp_mode));
              ("hb_interval_us", J.Float rp.Config.rp_hb_interval_us);
              ("hb_timeout_us", J.Float rp.Config.rp_hb_timeout_us);
              ("hb_miss_budget", J.Int rp.Config.rp_hb_miss_budget);
              ("degrade_timeout_us", J.Float rp.Config.rp_degrade_timeout_us);
              ("failover", J.Bool rp.Config.rp_failover);
            ] );
      ( "reclaim",
        match cfg.Config.reclaim with
        | None -> J.Null
        | Some rp ->
          J.Obj
            [
              ("chunk_tuples", J.Int rp.Config.rc_chunk_tuples);
              ("epoch_interval_us", J.Float rp.Config.rc_epoch_interval_us);
              ("gc_interval_us", J.Float rp.Config.rc_gc_interval_us);
              ("chunks_per_tick", J.Int rp.Config.rc_chunks_per_tick);
              ("non_preemptible", J.Bool rp.Config.rc_non_preemptible);
            ] );
      ("seed", J.Int (Int64.to_int cfg.Config.seed));
    ]

(* NaN serializes as JSON null (see {!Obs.Json}), which is exactly the
   "no samples" encoding we want for empty percentiles. *)
let opt_f = function Some v -> J.Float v | None -> J.Null

let class_json (r : Runner.result) (label, (cs : Metrics.class_stats)) =
  let pcts f = List.map (fun (k, pct) -> (k, opt_f (f ~pct))) in
  J.Obj
    ([
       ("class", J.String label);
       ("committed", J.Int cs.Metrics.committed);
       ("aborted", J.Int cs.Metrics.aborted);
       ("aborted_conflict", J.Int cs.Metrics.aborted_conflict);
       ("aborted_validation", J.Int cs.Metrics.aborted_validation);
       ("aborted_deadlock", J.Int cs.Metrics.aborted_deadlock);
       ("aborted_user", J.Int cs.Metrics.aborted_user);
       ("exhausted", J.Int cs.Metrics.exhausted);
       ("shed", J.Int cs.Metrics.shed);
       ("throughput_ktps", J.Float (Runner.throughput_ktps r label));
     ]
    @ pcts
        (fun ~pct -> Runner.latency_us r label ~pct)
        [ ("p50_us", 50.); ("p90_us", 90.); ("p99_us", 99.); ("p999_us", 99.9) ]
    @ pcts
        (fun ~pct -> Runner.sched_latency_us r label ~pct)
        [
          ("sched_p50_us", 50.);
          ("sched_p90_us", 90.);
          ("sched_p99_us", 99.);
          ("sched_p999_us", 99.9);
        ]
    @ pcts
        (fun ~pct -> Runner.commit_wait_us r label ~pct)
        [ ("commit_wait_p50_us", 50.); ("commit_wait_p99_us", 99.) ]
    @ [ ("geomean_us", opt_f (Runner.geomean_latency_us r label)) ])

(* One preemption-pipeline stage as JSON: count + percentiles in µs, or
   null when the policy produced no completed preemptions. *)
let stage_json clock h =
  if Sim.Histogram.is_empty h then J.Null
  else
    let us p = Sim.Clock.us_of_cycles clock (Sim.Histogram.percentile h p) in
    J.Obj
      [
        ("count", J.Int (Sim.Histogram.count h));
        ("mean_us", J.Float (Sim.Histogram.mean h *. Sim.Clock.us_of_cycles clock 1L));
        ("p50_us", J.Float (us 50.));
        ("p99_us", J.Float (us 99.));
        ("p999_us", J.Float (us 99.9));
      ]

let stages_json clock (st : Uintr.Stages.t) =
  J.Obj
    [
      ("completed", J.Int (Uintr.Stages.completed st));
      ("rejected", J.Int (Uintr.Stages.rejected st));
      ("send_to_deliver", stage_json clock (Uintr.Stages.send_to_deliver st));
      ("deliver_to_recognize", stage_json clock (Uintr.Stages.deliver_to_recognize st));
      ("recognize_to_switch", stage_json clock (Uintr.Stages.recognize_to_switch st));
      ("switch_to_resume", stage_json clock (Uintr.Stages.switch_to_resume st));
      ("send_to_resume", stage_json clock (Uintr.Stages.send_to_resume st));
    ]

let perf_json clock (r : Runner.result) =
  let virtual_us = Sim.Clock.us_of_cycles clock r.Runner.horizon in
  let virtual_ms = virtual_us /. 1000. in
  J.Obj
    [
      ("wall_s", J.Float r.Runner.wall_s);
      ("virtual_us", J.Float virtual_us);
      ( "sim_rate_virtual_us_per_s",
        if r.Runner.wall_s > 0. then J.Float (virtual_us /. r.Runner.wall_s) else J.Null );
      ("des_events", J.Int r.Runner.events);
      ( "des_events_per_virtual_ms",
        if virtual_ms > 0. then J.Float (float_of_int r.Runner.events /. virtual_ms)
        else J.Null );
      ("des_max_queue_depth", J.Int r.Runner.des_max_queue);
    ]

let to_json ?(name = "result") (r : Runner.result) =
  let clock = r.Runner.clock in
  J.Obj
    [
      ("name", J.String name);
      ("config", config_json r);
      ("horizon_ms", J.Float (Sim.Clock.sec_of_cycles clock r.Runner.horizon *. 1000.));
      ( "classes",
        J.List (List.map (class_json r) (Metrics.classes r.Runner.metrics)) );
      ( "chains",
        J.List
          (List.map
             (fun (cs : Storage.Engine.chain_stat) ->
               J.Obj
                 [
                   ("table", J.String cs.Storage.Engine.cs_table);
                   ("tuples", J.Int cs.Storage.Engine.cs_tuples);
                   ("versions", J.Int cs.Storage.Engine.cs_versions);
                   ("max_len", J.Int cs.Storage.Engine.cs_max_len);
                   ("mean_len", J.Float cs.Storage.Engine.cs_mean_len);
                 ])
             (Storage.Engine.chain_stats r.Runner.eng)) );
      ( "durability",
        match r.Runner.durability with
        | None -> J.Null
        | Some d ->
          let w = r.Runner.workers in
          J.Obj
            [
              ("flushes", J.Int d.Runner.ds_flushes);
              ("durable_lsn", J.Int d.Runner.ds_durable_lsn);
              ("next_lsn", J.Int d.Runner.ds_next_lsn);
              ("log_commits", J.Int d.Runner.ds_log_commits);
              ("acked", J.Int d.Runner.ds_acked);
              ("ack_violations", J.Int d.Runner.ds_ack_violations);
              ("open_reservations", J.Int d.Runner.ds_open_reservations);
              ("buffer_overflows", J.Int d.Runner.ds_buffer_overflows);
              ("crashed", J.Bool d.Runner.ds_crashed);
              ("lost_at_crash", J.Int d.Runner.ds_lost_at_crash);
              ("ckpt_passes", J.Int d.Runner.ds_ckpt_passes);
              ("ckpt_chunks", J.Int d.Runner.ds_ckpt_chunks);
              ("ckpt_tuples", J.Int d.Runner.ds_ckpt_tuples);
              ("device_bytes", J.Int (Int64.to_int d.Runner.ds_device_bytes));
              ( "device_busy_ms",
                J.Float
                  (Sim.Clock.sec_of_cycles clock d.Runner.ds_device_busy *. 1000.) );
              ("parks", J.Int w.Runner.dur_parks);
              ("unparks", J.Int w.Runner.dur_unparks);
              ("immediate_acks", J.Int w.Runner.dur_immediate);
              ( "block_ms",
                J.Float
                  (Sim.Clock.sec_of_cycles clock w.Runner.dur_block_cycles *. 1000.) );
              ( "mean_group_txns",
                if Sim.Histogram.is_empty d.Runner.ds_group_txns_hist then J.Null
                else J.Float (Sim.Histogram.mean d.Runner.ds_group_txns_hist) );
            ] );
      ( "replication",
        match r.Runner.replication with
        | None -> J.Null
        | Some rs ->
          let hist_pct h p =
            if Sim.Histogram.is_empty h then J.Null
            else J.Float (Int64.to_float (Sim.Histogram.percentile h p))
          in
          J.Obj
            [
              ( "mode",
                J.String (Config.replication_mode_to_string rs.Runner.rs_mode) );
              ("shipped_upto", J.Int rs.Runner.rs_shipped_upto);
              ("persisted_lsn", J.Int rs.Runner.rs_persisted_lsn);
              ("applied_lsn", J.Int rs.Runner.rs_applied_lsn);
              ("batches", J.Int rs.Runner.rs_batches);
              ("records", J.Int rs.Runner.rs_records);
              ("resent", J.Int rs.Runner.rs_resent);
              ("naks", J.Int rs.Runner.rs_naks);
              ("acks", J.Int rs.Runner.rs_acks);
              ("heartbeats", J.Int rs.Runner.rs_heartbeats);
              ("gaps", J.Int rs.Runner.rs_gaps);
              ("dup_records", J.Int rs.Runner.rs_dup_records);
              ("txns_applied", J.Int rs.Runner.rs_txns_applied);
              ("degraded", J.Bool rs.Runner.rs_degraded);
              ("detector_suspected", J.Bool rs.Runner.rs_detector_suspected);
              ("detector_misses", J.Int rs.Runner.rs_detector_misses);
              ("ship_sends", J.Int rs.Runner.rs_ship_sends);
              ("ship_lost", J.Int rs.Runner.rs_ship_lost);
              ("ship_duplicated", J.Int rs.Runner.rs_ship_duplicated);
              ("ship_bytes", J.Int rs.Runner.rs_ship_bytes);
              ("max_lag_lsn", J.Int rs.Runner.rs_max_lag_lsn);
              ("lag_lsn_p50", hist_pct rs.Runner.rs_lag_lsn_hist 50.);
              ("lag_lsn_p99", hist_pct rs.Runner.rs_lag_lsn_hist 99.);
              (* lag_us_hist is recorded directly in virtual µs *)
              ("lag_us_p50", hist_pct rs.Runner.rs_lag_us_hist 50.);
              ("lag_us_p99", hist_pct rs.Runner.rs_lag_us_hist 99.);
              ("acked_lost", J.Int rs.Runner.rs_acked_lost);
              ( "failover",
                match rs.Runner.rs_failover with
                | None -> J.Null
                | Some fo ->
                  J.Obj
                    [
                      ("detected_us", J.Float fo.Replication.Failover.fo_detected_us);
                      ("promoted_us", J.Float fo.Replication.Failover.fo_promoted_us);
                      ("rto_us", J.Float fo.Replication.Failover.fo_rto_us);
                      ("applied_lsn", J.Int fo.Replication.Failover.fo_applied_lsn);
                      ("torn_discarded", J.Int fo.Replication.Failover.fo_torn);
                      ("probe_commits", J.Int fo.Replication.Failover.fo_probe_commits);
                    ] );
            ] );
      ( "timeseries",
        J.Obj
          (List.map
             (fun (label, tl) -> (label, Obs.Timeline.to_json ~clock tl))
             (Metrics.timelines r.Runner.metrics)) );
      ("perf", perf_json clock r);
      ("stages", stages_json clock r.Runner.stages);
      ("profile", Obs.Profiler.to_json r.Runner.profile);
      ("metrics", Registry.to_json ~clock (registry_of_result r));
    ]

let to_csv (r : Runner.result) = Registry.to_csv (registry_of_result r)
