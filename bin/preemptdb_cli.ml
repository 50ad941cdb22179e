(* Command-line driver: run one scheduling experiment and print a summary.

   Examples:
     dune exec bin/preemptdb_cli.exe -- mixed --policy preempt --workers 8
     dune exec bin/preemptdb_cli.exe -- mixed --policy coop --yield-interval 1000
     dune exec bin/preemptdb_cli.exe -- tpcc --empty-interrupts *)

open Cmdliner
module Runner = Preemptdb.Runner
module Config = Preemptdb.Config
module Metrics = Preemptdb.Metrics

(* Counts, horizons and intervals must be positive, and the delays and
   spreads that 0 turns off non-negative: anything else is a usage error
   (cmdliner exits 124 and names the flag) rather than a vacuous run, a
   run that spins on a zero interval, or an exception after the database
   load. *)
let number of_string pp ~ok ~what =
  let parse s =
    match of_string (String.trim s) with
    | Some v when ok v -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "%S is not %s" s what))
  in
  Arg.conv (parse, pp)

let pp_float ppf f = Format.fprintf ppf "%g" f

let positive_int =
  number int_of_string_opt Format.pp_print_int ~ok:(fun n -> n > 0) ~what:"a positive integer"

let non_negative_int =
  number int_of_string_opt Format.pp_print_int ~ok:(fun n -> n >= 0)
    ~what:"a non-negative integer"

let positive_float =
  number float_of_string_opt pp_float
    ~ok:(fun f -> f > 0. && Float.is_finite f)
    ~what:"a positive number"

let non_negative_float =
  number float_of_string_opt pp_float
    ~ok:(fun f -> f >= 0. && Float.is_finite f)
    ~what:"a non-negative number"

let policy_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "wait" -> Ok `Wait
    | "coop" | "cooperative" -> Ok `Coop
    | "handcrafted" -> Ok `Handcrafted
    | "preempt" | "preemptdb" -> Ok `Preempt
    | other -> Error (`Msg (Printf.sprintf "unknown policy %S" other))
  in
  let print ppf p =
    Format.pp_print_string ppf
      (match p with
      | `Wait -> "wait"
      | `Coop -> "coop"
      | `Handcrafted -> "handcrafted"
      | `Preempt -> "preempt")
  in
  Arg.conv (parse, print)

let policy_term =
  let policy =
    Arg.(value & opt policy_conv `Preempt & info [ "policy" ] ~doc:"wait | coop | handcrafted | preempt")
  in
  let yield_interval =
    Arg.(value & opt positive_int 10_000 & info [ "yield-interval" ] ~doc:"cooperative yield interval (record accesses)")
  in
  let block_interval =
    Arg.(value & opt positive_int 1000 & info [ "block-interval" ] ~doc:"handcrafted yield interval (Q2 blocks)")
  in
  let threshold =
    Arg.(value & opt positive_float 1.0 & info [ "starvation-threshold" ] ~doc:"L_max for preempt")
  in
  let combine policy yield_interval block_interval threshold =
    match policy with
    | `Wait -> Config.Wait
    | `Coop -> Config.Cooperative yield_interval
    | `Handcrafted -> Config.Cooperative_handcrafted block_interval
    | `Preempt -> Config.Preempt threshold
  in
  Term.(const combine $ policy $ yield_interval $ block_interval $ threshold)

let workers_term = Arg.(value & opt positive_int 16 & info [ "workers" ] ~doc:"worker threads")
let horizon_term = Arg.(value & opt positive_float 0.1 & info [ "horizon" ] ~doc:"virtual seconds")
let arrival_term = Arg.(value & opt positive_float 1000. & info [ "arrival-us" ] ~doc:"arrival interval (us)")
let seed_term = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"random seed")
let empty_intr_term =
  Arg.(value & flag & info [ "empty-interrupts" ] ~doc:"send periodic empty interrupts (Fig 8 mode)")
let no_regions_term =
  Arg.(value & flag & info [ "no-regions" ] ~doc:"disable non-preemptible regions (deadlock ablation)")

let mk_cfg policy workers seed empty_interrupts no_regions =
  let base = Config.default ~policy ~n_workers:workers () in
  { base with Config.seed = Int64.of_int seed; empty_interrupts; regions_enabled = not no_regions }

let faults_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~doc:"JSON fault plan to inject (see lib/faults)")

let resilience_term =
  Arg.(
    value & flag
    & info [ "resilience" ]
        ~doc:"arm the watchdog / graceful-degradation / load-shedding stack")

let load_plan = function
  | None -> None
  | Some path -> (
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error e ->
      Format.printf "faults: %s@." e;
      exit 2
    | doc -> (
      match Faults.Plan.of_string doc with
      | Ok p -> Some p
      | Error e ->
        Format.printf "faults: bad plan %s: %s@." path e;
        exit 2))

(* --faults implies --resilience: a faulty fabric without the response
   stack armed is only useful for measuring the damage. *)
let apply_faults cfg plan resilience =
  (match plan with
  | Some p
    when p.Faults.Plan.replica_crash_at_us > 0. && cfg.Config.replication = None ->
    Format.printf
      "faults: the plan sets replica_crash_at_us=%.1f but --replication is off — \
       there is no replica to crash@."
      p.Faults.Plan.replica_crash_at_us;
    exit 2
  | _ -> ());
  let cfg =
    if resilience || plan <> None then Config.with_resilience cfg else cfg
  in
  (cfg, Option.map (fun p a -> Faults.Injector.install p a) plan)

let reclaim_term =
  let enable =
    Arg.(value & flag & info [ "reclaim" ] ~doc:"run epoch-based version reclamation (lib/maint)")
  in
  let chunk =
    Arg.(
      value
      & opt positive_int Config.default_reclaim.Config.rc_chunk_tuples
      & info [ "reclaim-chunk" ] ~doc:"tuples scanned per GC chunk")
  in
  let epoch_us =
    Arg.(
      value
      & opt positive_float Config.default_reclaim.Config.rc_epoch_interval_us
      & info [ "reclaim-epoch-us" ] ~doc:"epoch advance interval (us)")
  in
  let gc_us =
    Arg.(
      value
      & opt positive_float Config.default_reclaim.Config.rc_gc_interval_us
      & info [ "reclaim-gc-us" ] ~doc:"GC chunk dispatch interval (us)")
  in
  let per_tick =
    Arg.(
      value
      & opt positive_int Config.default_reclaim.Config.rc_chunks_per_tick
      & info [ "reclaim-chunks-per-tick" ] ~doc:"GC chunks dispatched per interval")
  in
  let non_preemptible =
    Arg.(
      value & flag
      & info [ "reclaim-non-preemptible" ]
          ~doc:"run each whole GC chunk in one non-preemptible region (latency ablation)")
  in
  let combine enable chunk epoch_us gc_us per_tick non_preemptible =
    if not enable then None
    else
      Some
        {
          Config.rc_chunk_tuples = chunk;
          rc_epoch_interval_us = epoch_us;
          rc_gc_interval_us = gc_us;
          rc_chunks_per_tick = per_tick;
          rc_non_preemptible = non_preemptible;
        }
  in
  Term.(const combine $ enable $ chunk $ epoch_us $ gc_us $ per_tick $ non_preemptible)

let apply_reclaim cfg = function
  | None -> cfg
  | Some rp -> Config.with_reclaim ~reclaim:rp cfg

let durability_term =
  let dd = Config.default_durability in
  let enable =
    Arg.(
      value & flag
      & info [ "durability" ]
          ~doc:"arm the group-commit WAL with preemptible commit waits (lib/durability)")
  in
  let blocking =
    Arg.(
      value & flag
      & info [ "durability-blocking" ]
          ~doc:"spin on commit acks instead of parking (the blocking-commit ablation)")
  in
  let group_bytes =
    Arg.(
      value
      & opt positive_int dd.Config.du_group_bytes
      & info [ "durability-group-bytes" ] ~doc:"group-commit byte threshold")
  in
  let group_us =
    Arg.(
      value
      & opt positive_float dd.Config.du_group_interval_us
      & info [ "durability-group-us" ] ~doc:"group-commit sweep interval (us)")
  in
  let fsync_us =
    Arg.(
      value
      & opt non_negative_float dd.Config.du_fsync_floor_us
      & info [ "durability-fsync-us" ] ~doc:"log-device fsync latency floor (us)")
  in
  let ckpt_us =
    Arg.(
      value
      & opt non_negative_float dd.Config.du_ckpt_interval_us
      & info [ "durability-ckpt-us" ]
          ~doc:"fuzzy-checkpoint chunk dispatch interval (us, 0 = off)")
  in
  let combine enable blocking group_bytes group_us fsync_us ckpt_us =
    if not enable then None
    else
      Some
        {
          Config.du_blocking = blocking;
          du_group_bytes = group_bytes;
          du_group_interval_us = group_us;
          du_fsync_floor_us = fsync_us;
          du_ckpt_interval_us = ckpt_us;
        }
  in
  Term.(const combine $ enable $ blocking $ group_bytes $ group_us $ fsync_us $ ckpt_us)

let apply_durability cfg = function
  | None -> cfg
  | Some dp -> Config.with_durability ~durability:dp cfg

let repl_mode_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "async" -> Ok Config.Repl_async
    | "semi-sync" | "semisync" | "semi_sync" -> Ok Config.Repl_semi_sync
    | other -> Error (`Msg (Printf.sprintf "unknown replication mode %S" other))
  in
  let print ppf m = Format.pp_print_string ppf (Config.replication_mode_to_string m) in
  Arg.conv (parse, print)

let replication_term =
  let rd = Config.default_replication in
  let mode =
    Arg.(
      value
      & opt (some repl_mode_conv) None
      & info [ "replication" ]
          ~doc:
            "ship the durable log to a standby: async (local acks, bounded RPO) or \
             semi-sync (acks gated on replica persistence, RPO 0); implies --durability")
  in
  let hb_us =
    Arg.(
      value
      & opt positive_float rd.Config.rp_hb_interval_us
      & info [ "replication-hb-us" ] ~doc:"heartbeat interval (us)")
  in
  let timeout_us =
    Arg.(
      value
      & opt positive_float rd.Config.rp_hb_timeout_us
      & info [ "replication-timeout-us" ] ~doc:"failure-detector silence timeout (us)")
  in
  let miss_budget =
    Arg.(
      value
      & opt positive_int rd.Config.rp_hb_miss_budget
      & info [ "replication-miss-budget" ]
          ~doc:"consecutive detector misses before declaring the primary dead")
  in
  let degrade_us =
    Arg.(
      value
      & opt positive_float rd.Config.rp_degrade_timeout_us
      & info [ "replication-degrade-us" ]
          ~doc:"semi-sync -> async degrade watchdog timeout (us)")
  in
  let no_failover =
    Arg.(
      value & flag
      & info [ "no-failover" ] ~doc:"detect primary death but do not promote the replica")
  in
  let combine mode hb_us timeout_us miss_budget degrade_us no_failover =
    Option.map
      (fun m ->
        {
          Config.rp_mode = m;
          rp_hb_interval_us = hb_us;
          rp_hb_timeout_us = timeout_us;
          rp_hb_miss_budget = miss_budget;
          rp_degrade_timeout_us = degrade_us;
          rp_failover = not no_failover;
        })
      mode
  in
  Term.(const combine $ mode $ hb_us $ timeout_us $ miss_budget $ degrade_us $ no_failover)

(* Replication tails the durable log, so arming it arms durability too. *)
let apply_replication cfg = function
  | None -> cfg
  | Some rp ->
    let cfg =
      if cfg.Config.durability = None then
        Config.with_durability ~durability:Config.default_durability cfg
      else cfg
    in
    Config.with_replication ~replication:rp cfg

let dump_log_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "durability-log" ]
        ~doc:"write the run's log artifact (JSON) here; replay it with the recover command")

let write_log_artifact dump dur =
  match (dump, dur) with
  | Some path, Some (d : Runner.dur_parts) ->
    Out_channel.with_open_text path (fun oc ->
        output_string oc (Durability.Log.to_string d.Runner.dur_log);
        output_char oc '\n');
    Format.printf "log artifact written to %s — replay with `recover %s`@." path path
  | Some path, None ->
    Format.printf "log artifact %s not written: durability is off@." path
  | None, _ -> ()

let stage_rows (st : Uintr.Stages.t) =
  [
    ("send→deliver", Uintr.Stages.send_to_deliver st);
    ("deliver→recognize", Uintr.Stages.deliver_to_recognize st);
    ("recognize→switch", Uintr.Stages.recognize_to_switch st);
    ("switch→resume", Uintr.Stages.switch_to_resume st);
    ("send→resume (e2e)", Uintr.Stages.send_to_resume st);
  ]

let print_stages clock (st : Uintr.Stages.t) =
  if Uintr.Stages.completed st > 0 then begin
    Format.printf "preemption stages: %d completed, %d rejected@."
      (Uintr.Stages.completed st) (Uintr.Stages.rejected st);
    List.iter
      (fun (name, h) ->
        if not (Sim.Histogram.is_empty h) then
          let us p = Sim.Clock.us_of_cycles clock (Sim.Histogram.percentile h p) in
          Format.printf "  %-20s p50=%8.3fus  p99=%8.3fus  p99.9=%8.3fus  max=%8.3fus@." name
            (us 50.) (us 99.) (us 99.9)
            (Sim.Clock.us_of_cycles clock (Sim.Histogram.max_value h)))
      (stage_rows st)
  end

let print_profile (p : Obs.Profiler.t) =
  let total = Obs.Profiler.total_cycles p in
  if Int64.compare total 0L > 0 then begin
    Format.printf "cycle accounting (total %Ld simulated cycles over %d workers):@." total
      (List.length (Obs.Profiler.worker_ids p));
    List.iter
      (fun (name, cyc) ->
        Format.printf "  %-20s %14Ld  %5.1f%%@." name cyc
          (Int64.to_float cyc /. Int64.to_float total *. 100.))
      (Obs.Profiler.top_k p 8)
  end

let print_perf (r : Runner.result) =
  let virtual_us = Sim.Clock.us_of_cycles r.Runner.clock r.Runner.horizon in
  if r.Runner.wall_s > 0. then
    Format.printf
      "perf: wall=%.2fs  sim-rate=%.0f virtual us/s  des-events=%d  des-queue-max=%d@."
      r.Runner.wall_s
      (virtual_us /. r.Runner.wall_s)
      r.Runner.events r.Runner.des_max_queue

let print_summary (r : Runner.result) =
  let clock = r.clock in
  Format.printf "policy: %s  workers: %d  horizon: %.3fs  events: %d@."
    (Config.policy_to_string r.cfg.Config.policy)
    r.cfg.Config.n_workers
    (Sim.Clock.sec_of_cycles clock r.horizon)
    r.events;
  Format.printf "uintr: sends=%d recognized=%d passive=%d active=%d drops(region/window)=%d/%d@."
    r.uintr_sends r.workers.Runner.uintr_recognized r.workers.Runner.passive_switches
    r.workers.Runner.active_switches r.workers.Runner.drops_region r.workers.Runner.drops_window;
  Format.printf "coop: checks=%d yields=%d  retries=%d  backlog-left=%d  sched-skips=%d  drops=%d@."
    r.workers.Runner.coop_yield_checks r.workers.Runner.coop_yields_taken
    r.workers.Runner.retries r.backlog_left r.skipped_starved (Metrics.drops r.metrics);
  let st = r.engine_stats in
  Format.printf "engine: commits=%d aborts(conflict/validation/deadlock/user)=%d/%d/%d/%d@."
    st.Storage.Engine.commits st.Storage.Engine.aborts_conflict st.Storage.Engine.aborts_validation
    st.Storage.Engine.aborts_deadlock st.Storage.Engine.aborts_user;
  if
    r.uintr_lost + r.uintr_duplicated + r.shed + r.watchdog_resends + r.watchdog_giveups
    + r.degrade_enters + r.degrade_exits + r.workers.Runner.exhausted > 0
  then
    Format.printf
      "resilience: lost=%d dup=%d shed=%d wd-resends=%d wd-giveups=%d degrade(in/out)=%d/%d \
       exhausted=%d@."
      r.uintr_lost r.uintr_duplicated r.shed r.watchdog_resends r.watchdog_giveups
      r.degrade_enters r.degrade_exits r.workers.Runner.exhausted;
  (match r.durability with
  | Some d ->
    Format.printf
      "durability: flushes=%d durable=%d/%d log-commits=%d acked=%d parks=%d unparks=%d \
       immediate=%d%s@."
      d.Runner.ds_flushes d.Runner.ds_durable_lsn d.Runner.ds_next_lsn d.Runner.ds_log_commits
      d.Runner.ds_acked r.workers.Runner.dur_parks r.workers.Runner.dur_unparks
      r.workers.Runner.dur_immediate
      (if d.Runner.ds_crashed then
         Printf.sprintf "  CRASHED lost=%d" d.Runner.ds_lost_at_crash
       else "");
    if d.Runner.ds_ckpt_chunks > 0 then
      Format.printf "checkpoint: passes=%d chunks=%d tuples-scanned=%d@." d.Runner.ds_ckpt_passes
        d.Runner.ds_ckpt_chunks d.Runner.ds_ckpt_tuples
  | None -> ());
  (match r.replication with
  (* Replication stats only mean something when the feature flag armed the
     standby — a fault plan alone (e.g. replica_crash_at_us) must not
     conjure the summary block. *)
  | Some _ when r.cfg.Config.replication = None -> ()
  | Some rs ->
    Format.printf
      "replication(%s): shipped=%d persisted=%d applied=%d batches=%d resent=%d naks=%d \
       gaps=%d dups=%d hb=%d%s%s@."
      (Config.replication_mode_to_string rs.Runner.rs_mode)
      rs.Runner.rs_shipped_upto rs.Runner.rs_persisted_lsn rs.Runner.rs_applied_lsn
      rs.Runner.rs_batches rs.Runner.rs_resent rs.Runner.rs_naks rs.Runner.rs_gaps
      rs.Runner.rs_dup_records rs.Runner.rs_heartbeats
      (if rs.Runner.rs_degraded then "  DEGRADED" else "")
      (if rs.Runner.rs_detector_suspected then "  SUSPECTED" else "");
    if not (Sim.Histogram.is_empty rs.Runner.rs_lag_us_hist) then
      Format.printf "replication lag: p50=%Ldus p99=%Ldus max=%d LSNs behind@."
        (Sim.Histogram.percentile rs.Runner.rs_lag_us_hist 50.)
        (Sim.Histogram.percentile rs.Runner.rs_lag_us_hist 99.)
        rs.Runner.rs_max_lag_lsn;
    (match rs.Runner.rs_failover with
    | Some fo ->
      Format.printf
        "failover: detected@%.1fus promoted@%.1fus RTO=%.1fus RPO=%d acked txns \
         applied=%d torn-discarded=%d probes=%d dropped-at-kill=%d@."
        fo.Replication.Failover.fo_detected_us fo.Replication.Failover.fo_promoted_us
        fo.Replication.Failover.fo_rto_us rs.Runner.rs_acked_lost
        fo.Replication.Failover.fo_applied_lsn fo.Replication.Failover.fo_torn
        fo.Replication.Failover.fo_probe_commits r.dropped_at_kill
    | None -> ())
  | None -> ());
  (match r.maint with
  | Some m ->
    Format.printf
      "maint: epoch=%d safe=%d max-lag=%d advances=%d chunks=%d passes=%d scanned=%d \
       reclaimed=%d gc-preempted=%d@."
      m.Runner.ms_epoch m.Runner.ms_safe m.Runner.ms_max_lag m.Runner.ms_advances
      m.Runner.ms_chunks m.Runner.ms_passes m.Runner.ms_tuples_scanned
      m.Runner.ms_versions_reclaimed r.workers.Runner.gc_preempted
  | None -> ());
  List.iter
    (fun (label, (cs : Metrics.class_stats)) ->
      Format.printf "%-12s committed=%-7d aborted=%-5d tput=%8.2f kTPS" label cs.Metrics.committed
        cs.Metrics.aborted
        (Runner.throughput_ktps r label);
      (match Runner.latency_us r label ~pct:50. with
      | Some _ ->
        let p pct = Option.get (Runner.latency_us r label ~pct) in
        Format.printf "  lat(us) p50=%.1f p90=%.1f p99=%.1f p99.9=%.1f" (p 50.) (p 90.) (p 99.)
          (p 99.9)
      | None -> ());
      (match Runner.commit_wait_us r label ~pct:99. with
      | Some p99 ->
        let p50 = Option.value ~default:0. (Runner.commit_wait_us r label ~pct:50.) in
        Format.printf "  cwait(us) p50=%.1f p99=%.1f" p50 p99
      | None -> ());
      Format.printf "@.")
    (Metrics.classes r.metrics);
  print_stages clock r.stages;
  print_profile r.profile;
  print_perf r

let mixed_cmd =
  let run policy workers horizon arrival seed empty_interrupts no_regions faults resilience
      reclaim durability replication dump_log =
    let cfg = mk_cfg policy workers seed empty_interrupts no_regions in
    let cfg = apply_reclaim cfg reclaim in
    let cfg = apply_durability cfg durability in
    let cfg = apply_replication cfg replication in
    let cfg, fault_prepare = apply_faults cfg (load_plan faults) resilience in
    let dur = ref None in
    let prepare a =
      (match fault_prepare with Some f -> f a | None -> ());
      dur := a.Runner.dur
    in
    let r =
      Runner.run_mixed ~cfg ~prepare ~arrival_interval_us:arrival ~horizon_sec:horizon ()
    in
    print_summary r;
    write_log_artifact dump_log !dur
  in
  Cmd.v (Cmd.info "mixed" ~doc:"mixed Q2 + NewOrder/Payment workload (the paper's target)")
    Term.(
      const run $ policy_term $ workers_term $ horizon_term $ arrival_term $ seed_term
      $ empty_intr_term $ no_regions_term $ faults_term $ resilience_term $ reclaim_term
      $ durability_term $ replication_term $ dump_log_term)

let tpcc_cmd =
  let run policy workers horizon arrival seed empty_interrupts no_regions reclaim durability
      replication dump_log =
    let cfg = mk_cfg policy workers seed empty_interrupts no_regions in
    let cfg = apply_reclaim cfg reclaim in
    let cfg = apply_durability cfg durability in
    let cfg = apply_replication cfg replication in
    let dur = ref None in
    let prepare a = dur := a.Runner.dur in
    let r =
      Runner.run_tpcc ~cfg ~prepare ~arrival_interval_us:arrival ~horizon_sec:horizon ()
    in
    print_summary r;
    Format.printf "total TPC-C throughput: %.2f kTPS@." (Runner.total_tpcc_ktps r);
    write_log_artifact dump_log !dur
  in
  Cmd.v (Cmd.info "tpcc" ~doc:"full TPC-C mix, all low-priority (Fig 8 overhead mode)")
    Term.(
      const run $ policy_term $ workers_term $ horizon_term
      $ Arg.(value & opt positive_float 50. & info [ "arrival-us" ] ~doc:"arrival interval (us)")
      $ seed_term $ empty_intr_term $ no_regions_term $ reclaim_term $ durability_term
      $ replication_term $ dump_log_term)

let maintenance_cmd =
  let run policy workers horizon arrival seed reclaim =
    let cfg = mk_cfg policy workers seed false false in
    (* maintenance without --reclaim still runs (chains grow monotonically);
       that is the GC-off baseline *)
    let cfg = apply_reclaim cfg reclaim in
    let r =
      Runner.run_maintenance ~cfg ~arrival_interval_us:arrival ~horizon_sec:horizon ()
    in
    print_summary r;
    List.iter
      (fun (cs : Storage.Engine.chain_stat) ->
        Format.printf "chain %-12s tuples=%-6d versions=%-7d max=%-5d mean=%.2f@."
          cs.Storage.Engine.cs_table cs.Storage.Engine.cs_tuples cs.Storage.Engine.cs_versions
          cs.Storage.Engine.cs_max_len cs.Storage.Engine.cs_mean_len)
      (Storage.Engine.chain_stats r.Runner.eng)
  in
  Cmd.v
    (Cmd.info "maintenance"
        ~doc:
          "update-heavy NewOrder/Payment stream with version-chain GC as the only \
           low-priority work; pass --reclaim to bound the chains")
    Term.(
      const run $ policy_term
      $ Arg.(value & opt positive_int 8 & info [ "workers" ] ~doc:"worker threads")
      $ Arg.(value & opt positive_float 0.04 & info [ "horizon" ] ~doc:"virtual seconds")
      $ Arg.(value & opt positive_float 100. & info [ "arrival-us" ] ~doc:"arrival interval (us)")
      $ seed_term $ reclaim_term)

let htap_cmd =
  let run policy workers horizon arrival seed empty_interrupts no_regions =
    let cfg = mk_cfg policy workers seed empty_interrupts no_regions in
    let r = Runner.run_htap ~cfg ~arrival_interval_us:arrival ~horizon_sec:horizon () in
    print_summary r
  in
  Cmd.v
    (Cmd.info "htap" ~doc:"CH-benCHmark analytics over live TPC-C tables (same-table HTAP)")
    Term.(
      const run $ policy_term $ workers_term $ horizon_term $ arrival_term $ seed_term
      $ empty_intr_term $ no_regions_term)

let tiered_cmd =
  let run workers horizon arrival seed levels =
    let base = Config.default ~policy:(Config.Preempt 1.0) ~n_workers:workers () in
    let cfg =
      { base with Config.seed = Int64.of_int seed; n_priority_levels = levels }
    in
    let r = Runner.run_tiered ~cfg ~arrival_interval_us:arrival ~horizon_sec:horizon () in
    print_summary r
  in
  Cmd.v
    (Cmd.info "tiered" ~doc:"three priority levels with nested preemption (§5 extension)")
    Term.(
      const run $ workers_term $ horizon_term $ arrival_term $ seed_term
      $ Arg.(
          value
          & opt (enum [ ("2", 2); ("3", 3) ]) 3
          & info [ "levels" ] ~doc:"priority levels (2 or 3)"))

let ledger_cmd =
  let run policy workers horizon arrival seed empty_interrupts no_regions =
    let cfg = mk_cfg policy workers seed empty_interrupts no_regions in
    let r, balance =
      Runner.run_ledger ~cfg ~arrival_interval_us:arrival ~horizon_sec:horizon ()
    in
    print_summary r;
    let expected = Workload.Ledger.default.Workload.Ledger.accounts * 1000 in
    Format.printf "ledger balance: %d (%s)@." balance
      (if balance = expected then "conserved" else "VIOLATED")
  in
  Cmd.v
    (Cmd.info "ledger" ~doc:"serializable ledger workload (read-set latching, §4.4 regime)")
    Term.(
      const run $ policy_term $ workers_term $ horizon_term
      $ Arg.(value & opt positive_float 200. & info [ "arrival-us" ] ~doc:"arrival interval (us)")
      $ seed_term $ empty_intr_term $ no_regions_term)

let trace_cmd =
  let run policy workers horizon arrival seed reclaim durability out =
    let cfg =
      { (Config.default ~policy ~n_workers:workers ()) with
        Config.seed = Int64.of_int seed
      }
    in
    let cfg = apply_reclaim cfg reclaim in
    let cfg = apply_durability cfg durability in
    let obs = Obs.Sink.create () in
    let r = Runner.run_mixed ~cfg ~obs ~arrival_interval_us:arrival ~horizon_sec:horizon () in
    let entries = Obs.Sink.dump obs in
    Obs.Perfetto.write_file ~clock:r.Runner.clock ~path:out entries;
    Format.printf "captured %d events (%d dropped) over %.1f virtual ms@."
      (Obs.Sink.recorded obs) (Obs.Sink.dropped obs)
      (Sim.Clock.sec_of_cycles r.Runner.clock r.Runner.horizon *. 1000.);
    Format.printf "trace written to %s — open in ui.perfetto.dev@." out
  in
  Cmd.v
    (Cmd.info "trace"
        ~doc:
          "run a short mixed workload with full event capture and export a \
           Perfetto/Chrome trace-event timeline")
    Term.(
      const run $ policy_term
      $ Arg.(value & opt positive_int 2 & info [ "workers" ] ~doc:"worker threads")
      $ Arg.(value & opt positive_float 0.004 & info [ "horizon" ] ~doc:"virtual seconds")
      $ Arg.(value & opt positive_float 500. & info [ "arrival-us" ] ~doc:"arrival interval (us)")
      $ seed_term $ reclaim_term $ durability_term
      $ Arg.(
          value
          & opt string "preemptdb.trace.json"
          & info [ "out" ] ~doc:"output path for the trace JSON"))

let check_cmd =
  (* the one mode outside the grid: exit 0 iff the recorded trace hash is
     reproduced, 1 if it diverges, 2 on a missing or malformed file *)
  let replay path =
    let doc =
      try Ok (In_channel.with_open_text path In_channel.input_all) with Sys_error e -> Error e
    in
    match Result.bind (Result.bind doc Obs.Json.parse) Check.Harness.of_report_json with
    | Error e ->
      Format.printf "replay: %s@." e;
      exit 2
    | Ok (schedule, workload, fault, plan, reclaim, expected) ->
      let r = Check.Harness.run ?fault ?plan ~reclaim ~workload schedule in
      if String.equal r.Check.Harness.hash_hex expected then begin
        Format.printf "replay OK: trace hash %s reproduced (%d ops, %d commits)@."
          r.Check.Harness.hash_hex r.Check.Harness.ops r.Check.Harness.commits;
        exit 0
      end
      else begin
        Format.printf "replay DIVERGED: recorded %s, got %s@." expected r.Check.Harness.hash_hex;
        exit 1
      end
  in
  let run fuzz exhaustive durability failover shards replay_file budget seed workers horizon_us
      arrival_us jitter inject_fault faults reclaim out =
    Option.iter replay replay_file;
    let base =
      {
        Check.Schedule.default with
        Check.Schedule.seed = Int64.of_int seed;
        workers;
        horizon_us;
        arrival_us;
        jitter_pct = jitter;
      }
    in
    let fault = if inject_fault then Some Storage.Engine.Skip_write_lock else None in
    let plan = load_plan faults in
    let presets =
      List.filter_map
        (fun (picked, preset) -> if picked then Some (preset ()) else None)
        [
          ( fuzz || not (exhaustive || durability || failover || shards),
            Check.Grid.fuzz ?fault ?plan ~reclaim ~budget ~base );
          (exhaustive, Check.Grid.exhaustive ?fault ?plan ~reclaim ~budget ~base);
          (durability, fun () -> Check.Grid.durability ~budget ~seed ~workers);
          (failover, fun () -> Check.Grid.failover ~budget ~seed ~workers);
          (shards, fun () -> Check.Grid.shards ~budget ~seed ~workers);
        ]
    in
    exit (if Check.Grid.run ~out presets then 0 else 1)
  in
  Cmd.v
    (Cmd.info "check"
        ~doc:
          "run the check grid: perturbed schedules of a TPC-C mix under serializability, \
           snapshot, TCB and consistency oracles, and crash grids under the durability, \
           failover and 2PC-atomicity oracles; each preset must also catch its armed bug; \
           failing schedules are shrunk, replayed and recorded")
    Term.(
      const run
      $ Arg.(
          value & flag
          & info [ "fuzz" ]
              ~doc:
                "seeded-random schedule perturbation (the default preset); the first schedule \
                 runs twice and must report the same bytes, and the oracles must catch a \
                 seeded lost-update bug")
      $ Arg.(
          value & flag
          & info [ "exhaustive" ]
              ~doc:
                "bounded-exhaustive enumeration of single forced preemption points after a \
                 pilot run (which runs twice), with --fuzz's self-test")
      $ Arg.(
          value & flag
          & info [ "durability" ]
              ~doc:
                "fuzz crash points under the durability oracle: every cell must recover \
                 to exactly the durable prefix")
      $ Arg.(
          value & flag
          & info [ "failover" ]
              ~doc:
                "fuzz primary-crash points x replication mode under the failover oracle: \
                 acked commits must survive promotion, semi-sync with RPO 0")
      $ Arg.(
          value & flag
          & info [ "shards" ]
              ~doc:
                "fuzz shard-crash instants x crash role (coordinator/participant) under \
                 the cross-shard atomicity oracle: no partial 2PC commits, torn tails \
                 discarded, in-doubt transactions resolved by the durable decision union")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "replay" ]
              ~doc:"re-run a recorded reproducer and verify its trace hash (runs no preset)")
      $ Arg.(
          value
          & opt positive_int 25
          & info [ "budget" ]
              ~doc:
                "points on each preset's axis: schedules (fuzz), single-point placements \
                 (exhaustive), crash instants (durability; failover x 2 modes; shards x 2 \
                 roles, plus a clean run)")
      $ seed_term
      $ Arg.(value & opt positive_int 2 & info [ "workers" ] ~doc:"worker threads")
      $ Arg.(value & opt positive_float 3000. & info [ "horizon-us" ] ~doc:"virtual microseconds per run")
      $ Arg.(value & opt positive_float 25. & info [ "arrival-us" ] ~doc:"arrival interval (us)")
      $ Arg.(
          value & opt non_negative_int 20
          & info [ "jitter" ] ~doc:"delivery jitter spread (percent, 0 = off)")
      $ Arg.(
          value & flag
          & info [ "inject-fault" ] ~doc:"arm the skip-write-lock engine fault (debugging)")
      $ faults_term
      $ Arg.(
          value & flag
          & info [ "reclaim" ]
              ~doc:
                "arm audited epoch reclamation; the reclaim-safety oracle checks every \
                 unlink against the snapshots live at unlink time")
      $ Arg.(
          value
          & opt string "check.repro.json"
          & info [ "out" ] ~doc:"path for the shrunk reproducer JSON"))

let recover_cmd =
  let run path =
    let doc =
      match In_channel.with_open_text path In_channel.input_all with
      | doc -> doc
      | exception Sys_error e ->
        Format.printf "recover: %s@." e;
        exit 2
    in
    match Durability.Log.of_string doc with
    | Error e ->
      Format.printf "recover: bad log artifact %s: %s@." path e;
      exit 2
    | Ok log ->
      let eng, stats = Durability.Recovery.recover_with_stats log in
      Format.printf "recovered %s from the %s@." path
        (if stats.Durability.Recovery.rec_from_ckpt then "fuzzy checkpoint image"
         else "bootstrap base image");
      Format.printf
        "image rows=%d  replayed=%d entries  applied=%d txns  torn=%d  tables created=%d@."
        stats.Durability.Recovery.rec_image_rows stats.Durability.Recovery.rec_entries_replayed
        stats.Durability.Recovery.rec_txns_applied stats.Durability.Recovery.rec_txns_torn
        stats.Durability.Recovery.rec_tables_created;
      Format.printf "durable lsn %d of %d appended@." (Durability.Log.durable_lsn log)
        (Durability.Log.next_lsn log);
      List.iter
        (fun t ->
          Format.printf "  table %-12s rows=%d@." (Storage.Table.name t) (Storage.Table.size t))
        (Storage.Engine.tables eng)
  in
  Cmd.v
    (Cmd.info "recover"
        ~doc:
          "replay a crashed run's log artifact (written by --durability-log) and report \
           the recovered state")
    Term.(
      const run
      $ Arg.(required & pos 0 (some string) None & info [] ~docv:"LOG.json" ~doc:"log artifact"))

module Baseline = Preemptdb.Baseline

let tolerance_conv =
  let parse s =
    let s = String.trim s in
    let s =
      if String.length s > 0 && s.[String.length s - 1] = '%' then
        String.sub s 0 (String.length s - 1)
      else s
    in
    match float_of_string_opt s with
    | Some f when f >= 0. -> Ok f
    | _ -> Error (`Msg (Printf.sprintf "bad tolerance %S (want e.g. 15 or 15%%)" s))
  in
  Arg.conv (parse, fun ppf f -> Format.fprintf ppf "%g%%" f)

let snapshot_cmd =
  let run out =
    Format.printf "collecting baseline (pinned suite, deterministic)...@.";
    let b = Baseline.collect () in
    Baseline.write ~path:out b;
    Format.printf "baseline schema v%d, %d metrics written to %s@." b.Baseline.version
      (List.length b.Baseline.metrics)
      out
  in
  Cmd.v
    (Cmd.info "snapshot"
        ~doc:
          "run the pinned deterministic benchmark suite and write its headline metrics as \
           a committed performance baseline (see perfdiff)")
    Term.(
      const run
      $ Arg.(
          value
          & opt string "BENCH_baseline.json"
          & info [ "out" ] ~doc:"output path for the baseline JSON"))

let perfdiff_cmd =
  let run baseline_path fresh_path tolerance selftest =
    let base =
      match Baseline.read ~path:baseline_path with
      | Ok b -> b
      | Error e ->
        Format.printf "perfdiff: cannot read baseline %s: %s@." baseline_path e;
        exit 2
    in
    let fresh =
      if selftest then
        (* inject a synthetic regression: every gated metric pushed past
           tolerance in its worse direction; perfdiff must exit nonzero *)
        Baseline.perturb_worse base ~pct:(tolerance +. 5.)
      else
        match fresh_path with
        | Some p -> (
          match Baseline.read ~path:p with
          | Ok b -> b
          | Error e ->
            Format.printf "perfdiff: cannot read fresh snapshot %s: %s@." p e;
            exit 2)
        | None ->
          Format.printf "re-collecting the pinned suite...@.";
          Baseline.collect ()
    in
    let verdicts =
      match Baseline.diff ~base ~fresh ~tolerance_pct:tolerance with
      | v -> v
      | exception Invalid_argument msg ->
        Format.printf "perfdiff: %s@." msg;
        exit 2
    in
    Baseline.pp_verdicts Format.std_formatter verdicts;
    let regs = Baseline.regressions verdicts in
    if selftest then
      if regs <> [] then begin
        Format.printf "selftest: injected regression detected (%d metrics) — gate works@."
          (List.length regs);
        exit 0
      end
      else begin
        Format.printf "selftest FAILED: injected regression not detected@.";
        exit 1
      end
    else if regs = [] then begin
      Format.printf "perfdiff OK: %d metrics within %.1f%% of baseline@."
        (List.length verdicts) tolerance;
      exit 0
    end
    else begin
      Format.printf "perfdiff REGRESSED: %d of %d metrics@." (List.length regs)
        (List.length verdicts);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "perfdiff"
        ~doc:
          "re-run the pinned suite (or load a snapshot) and compare against the committed \
           baseline; exits nonzero if any gated metric moved past tolerance in the worse \
           direction")
    Term.(
      const run
      $ Arg.(
          value
          & opt string "BENCH_baseline.json"
          & info [ "baseline" ] ~doc:"committed baseline JSON to compare against")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "fresh" ]
              ~doc:"compare this snapshot file instead of re-running the suite")
      $ Arg.(
          value & opt tolerance_conv 15.
          & info [ "tolerance" ] ~doc:"per-metric tolerance, e.g. 15 or 15%")
      $ Arg.(
          value & flag
          & info [ "selftest" ]
              ~doc:
                "verify the gate catches an injected regression (perturbs the baseline \
                 past tolerance; exit 0 iff the regression is flagged)"))

let () =
  let doc = "PreemptDB: preemptive transaction scheduling via (simulated) user interrupts" in
  exit
    (Cmd.eval
        (Cmd.group
          (Cmd.info "preemptdb_cli" ~doc)
          [
            mixed_cmd;
            tpcc_cmd;
            htap_cmd;
            tiered_cmd;
            ledger_cmd;
            maintenance_cmd;
            trace_cmd;
            check_cmd;
            recover_cmd;
            snapshot_cmd;
            perfdiff_cmd;
          ]))
