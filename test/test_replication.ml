(* Tests for the log-shipping replication subsystem (lib/replication) and
   its integration: clean shipping in both modes, lossy-channel NAK
   repair, failure detection with hysteresis (no spurious failover under
   storms or moderate loss), automatic failover with RTO/RPO accounting,
   replica crash with semi-sync degrade, and the acked-commit-survival
   oracle including its early-ack self-test. *)

module Config = Preemptdb.Config
module Runner = Preemptdb.Runner
module Metrics = Preemptdb.Metrics
module Plan = Faults.Plan

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let small_tpch = { Workload.Tpch_schema.default with Workload.Tpch_schema.parts = 3000 }

let base_cfg ?(mode = Config.Repl_semi_sync) ?(failover = true) ?(blocking = false) () =
  let cfg = Config.default ~policy:(Config.Preempt 1.0) ~n_workers:2 () in
  let cfg =
    Config.with_durability
      ~durability:{ Config.default_durability with Config.du_blocking = blocking }
      cfg
  in
  Config.with_replication
    ~replication:
      { Config.default_replication with Config.rp_mode = mode; rp_failover = failover }
    cfg

let oracle_run ?(mode = Config.Repl_semi_sync) ?(crash_at_us = 0.)
    ?(crash_seed = 11L) ?early_ack ?hb_drop_pct ?replica_crash_at_us
    ?(horizon = 0.01) () =
  Check.Failover.run ~cfg:(base_cfg ~mode ()) ~tpch_cfg:small_tpch ~crash_at_us
    ~crash_seed ?early_ack ?hb_drop_pct ?replica_crash_at_us
    ~arrival_interval_us:400. ~horizon_sec:horizon ()

let repl (r : Runner.result) =
  match r.Runner.replication with
  | Some rs -> rs
  | None -> Alcotest.fail "run has no replication summary"

let fail_violations vs =
  Alcotest.failf "oracle violations:\n%s"
    (String.concat "\n"
       (List.map (fun v -> "  " ^ v.Check.Violation.detail) vs))

let assert_clean (o : Check.Failover.outcome) =
  if o.Check.Failover.fv_violations <> [] then
    fail_violations o.Check.Failover.fv_violations

(* -- Batches are LSN ranges ------------------------------------------------------ *)

module Log = Durability.Log
module Replica = Replication.Replica

(* A primary log of five commits behind one DDL record, all durable:
   LSN 0 DDL; 1-2 insert A; 3-4 insert B; 5-7 update A and B; 8-9 delete
   B; 10-12 insert C and update A. *)
let ranges_primary () =
  let eng = Storage.Engine.create () in
  let log = Log.create ~n_workers:1 () in
  Log.attach log eng;
  let table = Storage.Engine.create_table eng "accounts" in
  Log.snapshot_base log eng;
  let row i = Storage.Value.of_fields [| Storage.Value.Int i |] in
  let commit f =
    let txn = Storage.Engine.begin_txn eng ~worker:0 ~ctx:0 in
    f txn;
    match Storage.Engine.commit eng txn with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "commit"
  in
  let ok = function Ok () -> () | Error _ -> Alcotest.fail "write" in
  let insert v txn = ignore (Storage.Engine.insert eng txn table (row v)) in
  commit (insert 1);
  commit (insert 2);
  commit (fun txn ->
      ok (Storage.Engine.update eng txn table ~oid:0 (row 11));
      ok (Storage.Engine.update eng txn table ~oid:1 (row 12)));
  commit (fun txn -> ok (Storage.Engine.delete eng txn table ~oid:1));
  commit (fun txn ->
      insert 3 txn;
      ok (Storage.Engine.update eng txn table ~oid:0 (row 21)));
  let _, upto, _, _ = Log.drain_all log in
  Log.set_durable log upto;
  checki "thirteen records" 13 (Log.durable_lsn log);
  log

(* A standby driven through [Replica.handle] directly, its device writes
   completed by running the DES; returns what it sent the primary. *)
let ranges_standby log =
  let des = Sim.Des.create () in
  let fabric = Uintr.Fabric.create des ~costs:Uintr.Costs.default in
  let ack_ch = Uintr.Channel.create des ~fabric ~name:"ack" in
  let sent = ref [] in
  Uintr.Channel.set_on_deliver ack_ch (fun m -> sent := m :: !sent);
  let r =
    Replica.create des ~clock:(Sim.Des.clock des) ~primary_log:log
      ~device:(Durability.Device.create ()) ~ack_ch ()
  in
  Replica.start r;
  let deliver msg =
    Replica.handle r msg;
    Sim.Des.run ~until:(Int64.add (Sim.Des.now des) 1_000_000L) des
  in
  let batch ~first ~upto =
    Replication.Msg.Batch
      {
        first;
        upto;
        bytes = Log.range_bytes log ~first ~upto;
        durable = Log.durable_lsn log;
        sent_at = 0;
      }
  in
  (r, deliver, batch, sent)

let test_batches_are_ranges () =
  let log = ranges_primary () in
  let r, deliver, batch, sent = ranges_standby log in
  let naks () =
    List.filter_map
      (function Replication.Msg.Nak { from } -> Some from | Replication.Msg.Ack _ -> None)
      (List.rev !sent)
  in
  deliver (batch ~first:0 ~upto:5);
  deliver (batch ~first:0 ~upto:5);
  checki "a duplicate is all stale" 5 (Replica.dup_records r);
  checki "the duplicate moved nothing" 5 (Replica.persisted_lsn r);
  deliver (batch ~first:8 ~upto:13);
  checki "a gap is counted" 1 (Replica.gaps r);
  Alcotest.(check (list int)) "and NAKed from the expected LSN" [ 5 ] (naks ());
  (* the re-ship after the NAK overlaps two received records and ends
     inside the last transaction *)
  deliver (batch ~first:3 ~upto:11);
  checki "the overlap is stale" 7 (Replica.dup_records r);
  checki "persisted through the re-ship" 11 (Replica.persisted_lsn r);
  deliver (Replication.Msg.Heartbeat { durable = 13 });
  checki "one gap heartbeat is not a gap" 1 (Replica.gaps r);
  deliver (Replication.Msg.Heartbeat { durable = 13 });
  checki "the second one is" 2 (Replica.gaps r);
  Alcotest.(check (list int)) "NAKed again" [ 5; 11 ] (naks ());
  checki "transactions applied" 4 (Replica.txns_applied r);
  checki "batches received" 4 (Replica.batches r);
  let _, applied, torn = Replica.promote r in
  checki "applied through the last persisted LSN" 11 applied;
  checki "the split transaction is torn" 1 torn;
  (* an unpromoted standby that received everything, the last
     transaction split across two batches *)
  let r, deliver, batch, _ = ranges_standby log in
  deliver (batch ~first:0 ~upto:11);
  deliver (batch ~first:11 ~upto:13);
  checki "all five applied" 5 (Replica.txns_applied r);
  let standby = Replica.engine r and recovered = Durability.Recovery.recover log in
  checkb "the standby equals recovery of the durable prefix" true
    (Durability.Recovery.durable_state_equal standby recovered);
  Alcotest.(check (list (pair string int)))
    "the same tables and tuple counts"
    (List.map
       (fun tb -> (Storage.Table.name tb, Storage.Table.size tb))
       (Storage.Engine.tables recovered))
    (List.map
       (fun tb -> (Storage.Table.name tb, Storage.Table.size tb))
       (Storage.Engine.tables standby))

(* -- Clean shipping ----------------------------------------------------------- *)

let test_semi_sync_clean () =
  let o = oracle_run () in
  assert_clean o;
  let rs = repl o.Check.Failover.fv_result in
  checkb "batches shipped" true (rs.Runner.rs_batches > 0);
  checkb "records shipped" true (rs.Runner.rs_records > 0);
  checkb "replica applied transactions" true (rs.Runner.rs_txns_applied > 0);
  checkb "no gaps on a clean channel" true (rs.Runner.rs_gaps = 0);
  checkb "no degrade" false rs.Runner.rs_degraded;
  checkb "no spurious suspicion" false rs.Runner.rs_detector_suspected;
  checki "nothing lost" 0 o.Check.Failover.fv_acked_lost;
  checkb "commits flowed" true
    (o.Check.Failover.fv_result.Runner.engine_stats.Storage.Engine.commits > 0)

let test_async_clean () =
  let o = oracle_run ~mode:Config.Repl_async () in
  assert_clean o;
  let rs = repl o.Check.Failover.fv_result in
  checkb "replica applied transactions" true (rs.Runner.rs_txns_applied > 0);
  checkb "async never degrades" false rs.Runner.rs_degraded

let test_semi_sync_gates_acks () =
  (* Semi-sync commit waits cover the ship round trip: parked commits are
     the mechanism, and the wait percentile must exceed the async one. *)
  let semi = oracle_run () in
  let asy = oracle_run ~mode:Config.Repl_async () in
  assert_clean semi;
  assert_clean asy;
  let wait o =
    match
      Runner.commit_wait_us o.Check.Failover.fv_result "NewOrder" ~pct:50.
    with
    | Some w -> w
    | None -> 0.
  in
  checkb "semi-sync commit waits are longer" true (wait semi > wait asy);
  checkb "parked commits under semi-sync" true
    (semi.Check.Failover.fv_result.Runner.workers.Runner.dur_parks > 0)

let test_replication_deterministic () =
  let a = oracle_run ~crash_at_us:3000. () in
  let b = oracle_run ~crash_at_us:3000. () in
  let rs o = repl o.Check.Failover.fv_result in
  checki "same shipped LSN" (rs a).Runner.rs_shipped_upto (rs b).Runner.rs_shipped_upto;
  checki "same applied LSN" (rs a).Runner.rs_applied_lsn (rs b).Runner.rs_applied_lsn;
  checkb "same failover outcome" true
    (a.Check.Failover.fv_failover = b.Check.Failover.fv_failover)

(* -- Lossy channels ----------------------------------------------------------- *)

let test_lossy_channel_naks_repair () =
  (* 25 % channel loss: gaps appear, NAKs rewind the shipper, and the
     final state is still exact. *)
  let o = oracle_run ~hb_drop_pct:25 ~crash_seed:7L () in
  assert_clean o;
  let rs = repl o.Check.Failover.fv_result in
  checkb "channel lost messages" true (rs.Runner.rs_ship_lost > 0);
  checkb "replica detected gaps" true (rs.Runner.rs_gaps > 0);
  checkb "shipper answered NAKs" true (rs.Runner.rs_naks > 0);
  checkb "records re-shipped" true (rs.Runner.rs_resent > 0)

let test_moderate_loss_no_spurious_failover () =
  (* Hysteresis: declaring death takes [miss_budget] consecutive silent
     checks — roughly timeout + budget x check_interval of unbroken
     silence (~5 consecutive drops at the defaults).  Under 20 % loss
     something lands inside every such window, so the detector must not
     fire. *)
  let o = oracle_run ~hb_drop_pct:20 ~crash_seed:13L () in
  assert_clean o;
  let rs = repl o.Check.Failover.fv_result in
  checkb "no spurious failover under loss" false rs.Runner.rs_detector_suspected;
  checkb "no promotion" true (o.Check.Failover.fv_failover = None)

let test_storm_no_spurious_failover () =
  (* senduipi storms hammer the interrupt fabric but never touch the
     replication channels — the detector stays quiet. *)
  let cfg = base_cfg () in
  let prepare a =
    Faults.Injector.install
      { Plan.none with Plan.seed = 17L; storm_interval_us = 50.; storm_burst = 4 }
      a
  in
  let r =
    Runner.run_mixed ~cfg ~tpch_cfg:small_tpch ~prepare ~arrival_interval_us:400.
      ~horizon_sec:0.01 ()
  in
  let rs = repl r in
  checkb "storms do not fake a death" false rs.Runner.rs_detector_suspected;
  checkb "replication kept up" true (rs.Runner.rs_txns_applied > 0)

(* -- Failover ----------------------------------------------------------------- *)

let test_primary_crash_promotes () =
  let o = oracle_run ~crash_at_us:5000. ~horizon:0.012 () in
  assert_clean o;
  (match o.Check.Failover.fv_failover with
  | None -> Alcotest.fail "primary crash did not promote the replica"
  | Some fo ->
    checkb "RTO measured from the crash" true (fo.Replication.Failover.fo_rto_us > 0.);
    (* detection needs ~ miss_budget x timeout of silence *)
    checkb "RTO covers the detection window" true
      (fo.Replication.Failover.fo_rto_us >= 60.);
    checkb "probe commits served" true (fo.Replication.Failover.fo_probe_commits > 0);
    checkb "promotion after detection" true
      (fo.Replication.Failover.fo_promoted_us >= fo.Replication.Failover.fo_detected_us));
  checki "semi-sync RPO is zero" 0 o.Check.Failover.fv_acked_lost;
  checkb "some commits survived" true (o.Check.Failover.fv_survived_commits > 0)

let test_async_crash_bounded_rpo () =
  (* Async acks on local durability: the crash may lose acked commits,
     but only within the replication lag — and the oracle still passes
     because async promises no more. *)
  let o = oracle_run ~mode:Config.Repl_async ~crash_at_us:5000. ~horizon:0.012 () in
  assert_clean o;
  checkb "promoted" true (o.Check.Failover.fv_failover <> None);
  checkb "async RPO is bounded by the shipped backlog" true
    (o.Check.Failover.fv_acked_lost
    <= o.Check.Failover.fv_acked - 0
    && o.Check.Failover.fv_acked_lost >= 0)

let test_crash_kills_primary_cleanly () =
  (* After the crash the primary generates nothing further: its workers
     are dead, its scheduler halted; what was in flight is dropped and
     counted. *)
  let workers = ref [||] in
  let cfg = base_cfg () in
  let prepare (a : Runner.assembly) =
    workers := a.Runner.workers;
    Faults.Injector.install
      { Plan.none with Plan.seed = 11L; crash_at_us = 3000. }
      a
  in
  let r =
    Runner.run_mixed ~cfg ~tpch_cfg:small_tpch ~prepare ~arrival_interval_us:400.
      ~horizon_sec:0.01 ()
  in
  checkb "workers killed" true
    (Array.for_all Preemptdb.Worker.killed !workers);
  let dropped =
    Array.fold_left (fun acc w -> acc + Preemptdb.Worker.dropped_at_kill w) 0 !workers
  in
  (* request conservation with the kill ledger term included *)
  let m = r.Runner.metrics in
  checki "conservation holds across the kill"
    (r.Runner.generated_hp + r.Runner.generated_lp)
    (Metrics.committed_total m + Metrics.aborted_total m + Metrics.shed_total m
    + r.Runner.backlog_left + r.Runner.queued_left + r.Runner.inflight_left
    + dropped);
  checkb "something was in flight at the kill" true (dropped >= 0);
  checki "the run result carries the kill drops" dropped r.Runner.dropped_at_kill

let test_total_hb_loss_triggers_failover () =
  (* 100 % channel loss is indistinguishable from a dead primary: after
     the degrade timeout the primary stops gating (commits keep acking
     locally), and after the miss budget the replica promotes. *)
  let o = oracle_run ~hb_drop_pct:100 ~crash_seed:19L ~horizon:0.012 () in
  assert_clean o;
  let rs = repl o.Check.Failover.fv_result in
  checkb "semi-sync degraded" true rs.Runner.rs_degraded;
  checkb "detector fired" true rs.Runner.rs_detector_suspected;
  checkb "replica promoted" true (o.Check.Failover.fv_failover <> None)

(* A promotion pinned to the exact schedule it produces: DES events,
   commits per class, an FNV-1a hash of the (time, seq) event stream, and
   the failover outcome.  The standby's log device and the probe count
   are fixed constants; moving either moves these values.  The events and
   hash are pinned with lookahead and in lock-step; the rest is the same
   either way. *)
let golden_crash_through_promotion ~lookahead =
  let h = ref 0x811c9dc5 in
  let mix x = h := (!h lxor x) * 0x100000001b3 in
  let prepare (a : Runner.assembly) =
    (* lock-step is a declared path of latency 0 *)
    if not lookahead then Sim.Des.add_path a.Runner.des ~least_latency:0;
    Sim.Des.set_probe a.Runner.des
      (Some
         (fun ~time ~seq ->
           mix (Int64.to_int time);
           mix seq));
    Faults.Injector.install { Plan.none with Plan.seed = 11L; crash_at_us = 2500. } a
  in
  let cfg =
    Config.with_replication (Config.default ~policy:(Config.Preempt 1.0) ~n_workers:2 ())
  in
  let r =
    Runner.run_mixed ~cfg ~prepare ~tpch_cfg:small_tpch ~arrival_interval_us:250.
      ~horizon_sec:0.005 ()
  in
  let commits =
    List.map
      (fun (label, cs) -> Printf.sprintf "%s=%d" label cs.Metrics.committed)
      (Metrics.classes r.Runner.metrics)
  in
  let events, hash =
    if lookahead then (8985, "45493a0e44e54fea") else (65068, "3ba64886526e5bc7")
  in
  checki "DES events" events r.Runner.events;
  Alcotest.(check string) "commits per class" "NewOrder=42 Payment=37 Q2=10"
    (String.concat " " commits);
  Alcotest.(check string) "(time, seq) stream hash" hash (Printf.sprintf "%x" !h);
  Alcotest.(check string) "virtual-schedule digest" "224a878ed46594a0" r.Runner.digest;
  let rs = repl r in
  (match rs.Runner.rs_failover with
  | None -> Alcotest.fail "primary crash did not promote the replica"
  | Some fo ->
    Alcotest.(check string) "RTO (us)" "99.9"
      (Printf.sprintf "%.1f" fo.Replication.Failover.fo_rto_us);
    checki "applied LSN" 1211 fo.Replication.Failover.fo_applied_lsn;
    checki "torn" 0 fo.Replication.Failover.fo_torn;
    checki "probe commits" 8 fo.Replication.Failover.fo_probe_commits);
  checki "RPO" 0 rs.Runner.rs_acked_lost

(* -- Replica crash ------------------------------------------------------------ *)

let test_replica_crash_degrades () =
  let o = oracle_run ~replica_crash_at_us:3000. ~horizon:0.012 () in
  assert_clean o;
  let rs = repl o.Check.Failover.fv_result in
  checkb "semi-sync degraded to async" true rs.Runner.rs_degraded;
  checkb "commits kept flowing after the degrade" true
    (o.Check.Failover.fv_result.Runner.engine_stats.Storage.Engine.commits > 0);
  checkb "no promotion of a dead replica" true (o.Check.Failover.fv_failover = None)

(* -- The oracle's self-test --------------------------------------------------- *)

let test_early_ack_caught () =
  let o = oracle_run ~early_ack:true ~crash_at_us:5000. ~horizon:0.012 () in
  checkb "the lying daemon is caught" true (o.Check.Failover.fv_violations <> [])

let () =
  Alcotest.run "replication"
    [
      ( "shipping",
        [
          Alcotest.test_case "semi-sync clean run" `Slow test_semi_sync_clean;
          Alcotest.test_case "async clean run" `Slow test_async_clean;
          Alcotest.test_case "semi-sync gates acks" `Slow test_semi_sync_gates_acks;
          Alcotest.test_case "deterministic" `Slow test_replication_deterministic;
          Alcotest.test_case "batches are LSN ranges" `Quick test_batches_are_ranges;
        ] );
      ( "faults",
        [
          Alcotest.test_case "lossy channel repaired by NAKs" `Slow
            test_lossy_channel_naks_repair;
          Alcotest.test_case "moderate loss: no spurious failover" `Slow
            test_moderate_loss_no_spurious_failover;
          Alcotest.test_case "storms: no spurious failover" `Slow
            test_storm_no_spurious_failover;
        ] );
      ( "failover",
        [
          Alcotest.test_case "primary crash promotes" `Slow test_primary_crash_promotes;
          Alcotest.test_case "async crash: bounded RPO" `Slow test_async_crash_bounded_rpo;
          Alcotest.test_case "crash kills the primary cleanly" `Slow
            test_crash_kills_primary_cleanly;
          Alcotest.test_case "total heartbeat loss fails over" `Slow
            test_total_hb_loss_triggers_failover;
          Alcotest.test_case "replica crash degrades semi-sync" `Slow
            test_replica_crash_degrades;
          Alcotest.test_case "golden: crash through promotion" `Slow (fun () ->
              golden_crash_through_promotion ~lookahead:true);
          Alcotest.test_case "golden, lock-step: crash through promotion" `Slow (fun () ->
              golden_crash_through_promotion ~lookahead:false);
        ] );
      ( "oracle",
        [ Alcotest.test_case "early-ack self-test caught" `Slow test_early_ack_caught ] );
    ]
