(* Tests for the maintenance subsystem (lib/maint): the epoch manager,
   version-chain truncation, the chunked reclaimer program, and the
   end-to-end bounded-footprint behaviour through the runner. *)

module P = Workload.Program
module Timestamp = Storage.Timestamp
module Engine = Storage.Engine
module Table = Storage.Table
module Tuple = Storage.Tuple
module Version = Storage.Version
module Value = Storage.Value
module Epoch = Maint.Epoch
module Reclaimer = Maint.Reclaimer
module R = Preemptdb

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check64 = Alcotest.(check int64)

(* -- Epoch manager ----------------------------------------------------------- *)

let test_epoch_advance_and_boundaries () =
  let ts = Timestamp.create () in
  let ep = Epoch.create ts in
  checki "starts at epoch 0" 0 (Epoch.current ep);
  check64 "epoch 0 boundary is the creation timestamp" 0L (Epoch.boundary ep 0);
  ignore (Timestamp.next ts);
  ignore (Timestamp.next ts);
  checki "advance returns the new epoch" 1 (Epoch.advance ep);
  check64 "boundary captured at advance" 2L (Epoch.boundary ep 1);
  checki "safe tracks current when idle" 1 (Epoch.safe_epoch ep);
  checki "idle lag is 0" 0 (Epoch.lag ep);
  checki "advances counted" 1 (Epoch.advances ep)

(* An epoch manager on an engine's lifecycle: each begun transaction
   registers at the current epoch, and its commit or abort deregisters it. *)
let attached_epoch () =
  let eng = Engine.create () in
  let ep = Epoch.create (Engine.timestamp eng) in
  Epoch.attach ep eng;
  (eng, ep)

let begin_txn eng = Engine.begin_txn eng ~worker:0 ~ctx:0

let test_epoch_registration_pins_safe () =
  let eng = Engine.create () in
  let ep = Epoch.create (Engine.timestamp eng) in
  (* begun before the manager was attached: never registered *)
  let t0 = begin_txn eng in
  Epoch.attach ep eng;
  let t1 = begin_txn eng in
  ignore (Epoch.advance ep);
  ignore (Epoch.advance ep);
  checki "current moved to 2" 2 (Epoch.current ep);
  checki "safe pinned at registration epoch" 0 (Epoch.safe_epoch ep);
  checki "lag grows while pinned" 2 (Epoch.lag ep);
  check64 "reclaim boundary is the pinned epoch's" (Epoch.boundary ep 0)
    (Epoch.reclaim_boundary ep);
  let t2 = begin_txn eng in
  Engine.abort eng t1;
  checki "safe jumps to the younger registration" 2 (Epoch.safe_epoch ep);
  Engine.abort eng t2;
  checki "no live txns left" (Epoch.current ep) (Epoch.safe_epoch ep);
  (* unknown id: no-op *)
  Engine.abort eng t0;
  checki "unregistered end is a no-op" (Epoch.current ep) (Epoch.safe_epoch ep);
  checkb "max lag recorded" true (Epoch.max_lag ep >= 2)

let test_epoch_prunes_old_boundaries () =
  let eng, ep = attached_epoch () in
  let t = begin_txn eng in
  ignore (Epoch.advance ep);
  Engine.abort eng t;
  ignore (Epoch.advance ep);
  (* safe is current again; boundaries below it are gone *)
  checkb "pruned boundary raises" true
    (match Epoch.boundary ep 0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check64 "current boundary still readable" (Epoch.reclaim_boundary ep)
    (Epoch.boundary ep (Epoch.safe_epoch ep))

let test_epoch_attach_engine_lifecycle () =
  let eng, ep = attached_epoch () in
  let txn = begin_txn eng in
  ignore (Epoch.advance ep);
  checki "live txn pins safe" 0 (Epoch.safe_epoch ep);
  Engine.abort eng txn;
  checki "safe released" 1 (Epoch.safe_epoch ep);
  let txn = begin_txn eng in
  ignore (Epoch.advance ep);
  (match Engine.commit eng txn with Ok _ -> () | Error _ -> Alcotest.fail "commit");
  checki "commit deregisters" 2 (Epoch.safe_epoch ep)

(* -- Version.truncate_older_than --------------------------------------------- *)

let row i = Value.of_fields [| Value.Int i |]

(* A committed chain, newest first. *)
let chain_of tss =
  let chain =
    List.fold_right
      (fun ts below ->
        let v = Version.committed ~ts (Some (row (Int64.to_int ts))) in
        v.Version.next <- below;
        v)
      tss Version.nil
  in
  checkb "fixture chain well-formed" true (Version.well_formed chain);
  chain

let test_truncate_mid_chain () =
  let chain = chain_of [ 40L; 30L; 20L; 10L ] in
  checki "drops strictly below the kept version" 2
    (Version.truncate_older_than chain ~boundary:30L);
  checki "kept prefix intact" 2 (Version.chain_length chain);
  checkb "still well-formed" true (Version.well_formed chain);
  let v = Version.latest_committed chain in
  if Version.is_nil v then Alcotest.fail "chain emptied"
  else check64 "newest untouched" 40L v.Version.begin_ts

let test_truncate_no_qualifying_version () =
  let chain = chain_of [ 40L; 30L ] in
  checki "boundary below all: nothing cut" 0
    (Version.truncate_older_than chain ~boundary:5L);
  checki "chain untouched" 2 (Version.chain_length chain)

let test_truncate_boundary_above_all () =
  let chain = chain_of [ 40L; 30L; 20L ] in
  checki "keeps only the newest" 2 (Version.truncate_older_than chain ~boundary:100L);
  checki "single version left" 1 (Version.chain_length chain)

let test_truncate_keeps_tombstone () =
  let dead = Version.committed ~ts:30L None in
  let live = Version.committed ~ts:10L (Some (row 1)) in
  dead.Version.next <- live;
  let chain = dead in
  checki "cuts below the tombstone" 1 (Version.truncate_older_than chain ~boundary:50L);
  (let v = Version.latest_committed chain in
   if Version.is_nil v then Alcotest.fail "tombstone pruned away"
   else begin
     check64 "tombstone is the kept boundary version" 30L v.Version.begin_ts;
     checkb "deletion still observable" true (v.Version.data = None)
   end);
  checki "never pruned to nothing" 1 (Version.chain_length chain)

let test_truncate_skips_in_flight_head () =
  let head = Version.in_flight ~writer:7 (Some (row 9)) in
  let v2 = Version.committed ~ts:20L (Some (row 2)) in
  let v1 = Version.committed ~ts:10L (Some (row 1)) in
  head.Version.next <- v2;
  v2.Version.next <- v1;
  let chain = head in
  checki "kept = newest committed at or below boundary" 1
    (Version.truncate_older_than chain ~boundary:25L);
  checki "in-flight head preserved" 2 (Version.chain_length chain);
  checkb "still well-formed" true (Version.well_formed chain)

let test_truncate_all_in_flight () =
  let head = Version.in_flight ~writer:7 (Some (row 9)) in
  checki "nothing committed: nothing cut" 0
    (Version.truncate_older_than head ~boundary:100L)

(* -- Reclaimer chunk programs ------------------------------------------------- *)

let mk_env eng =
  {
    P.eng;
    worker = 0;
    ctx = 0;
    cls = Uintr.Cls.create_area ();
    rng = Sim.Rng.create 7L;
  }

let drive prog env =
  let rec go = function P.Finished o -> o | P.Pending (_, k) -> go (P.resume k) in
  go (P.start prog env)

(* Engine whose timestamp has moved past every installed version, so one
   epoch advance makes the whole history reclaimable. *)
let setup_chains () =
  let eng = Engine.create () in
  let table = Engine.create_table eng "hot" in
  for _ = 1 to 3 do
    let tuple = Table.alloc table in
    List.iter
      (fun ts -> Tuple.install tuple (Version.committed ~ts (Some (row (Int64.to_int ts)))))
      [ 10L; 20L; 30L; 40L ]
  done;
  for _ = 1 to 50 do
    ignore (Timestamp.next (Engine.timestamp eng))
  done;
  (eng, table)

let test_reclaimer_chunk_truncates () =
  let eng, table = setup_chains () in
  let epoch = Epoch.create (Engine.timestamp eng) in
  ignore (Epoch.advance epoch);
  let r = Reclaimer.create ~chunk_tuples:8 ~eng ~epoch () in
  Reclaimer.set_audit r true;
  (match drive (Reclaimer.chunk_program r) (mk_env eng) with
  | P.Committed 0L -> ()
  | _ -> Alcotest.fail "chunk must finish Committed 0L");
  checki "one chunk ran" 1 (Reclaimer.chunks r);
  checki "all tuples scanned" 3 (Reclaimer.tuples_scanned r);
  checki "three old versions cut per tuple" 9 (Reclaimer.versions_reclaimed r);
  Table.iter table (fun tuple ->
      checki "chains cut to the boundary version" 1
        (Version.chain_length (Tuple.head tuple)));
  let audits = Reclaimer.audits r in
  checki "one audit per unlinked tuple" 3 (List.length audits);
  List.iter
    (fun (au : Reclaimer.audit) ->
      check64 "kept the newest version" 40L au.Reclaimer.au_kept_ts;
      checki "three dropped" 3 (List.length au.Reclaimer.au_dropped);
      checkb "no snapshot was live" true (au.Reclaimer.au_active = []))
    audits;
  (* the audit trail itself must satisfy the safety oracle's invariants *)
  List.iter
    (fun (au : Reclaimer.audit) ->
      checkb "kept at or below boundary" true
        (Int64.compare au.Reclaimer.au_kept_ts au.Reclaimer.au_boundary <= 0))
    audits

let test_reclaimer_idempotent_and_wraps () =
  let eng, _table = setup_chains () in
  let epoch = Epoch.create (Engine.timestamp eng) in
  ignore (Epoch.advance epoch);
  let r = Reclaimer.create ~chunk_tuples:2 ~eng ~epoch () in
  let env = mk_env eng in
  (* 3 tuples at 2 per chunk: two chunks per pass; run several *)
  for _ = 1 to 6 do
    ignore (drive (Reclaimer.chunk_program r) env)
  done;
  checki "reclaimed exactly the old versions once" 9 (Reclaimer.versions_reclaimed r);
  checkb "cursor wrapped into repeat passes" true (Reclaimer.passes r >= 2)

let test_reclaimer_respects_live_snapshot () =
  let eng = Engine.create () in
  let epoch = Epoch.create (Engine.timestamp eng) in
  Epoch.attach epoch eng;
  (* a transaction begun while the timestamp is still below every version
     pins epoch 0, whose boundary predates the whole history: nothing may
     be reclaimed while it lives *)
  let txn = Engine.begin_txn eng ~worker:0 ~ctx:0 in
  let table = Engine.create_table eng "hot" in
  for _ = 1 to 3 do
    let tuple = Table.alloc table in
    List.iter
      (fun ts -> Tuple.install tuple (Version.committed ~ts (Some (row (Int64.to_int ts)))))
      [ 10L; 20L; 30L; 40L ]
  done;
  for _ = 1 to 50 do
    ignore (Timestamp.next (Engine.timestamp eng))
  done;
  ignore (Epoch.advance epoch);
  let r = Reclaimer.create ~chunk_tuples:8 ~eng ~epoch () in
  ignore (drive (Reclaimer.chunk_program r) (mk_env eng));
  checki "pinned epoch blocks reclamation" 0 (Reclaimer.versions_reclaimed r);
  Engine.abort eng txn;
  ignore (Epoch.advance epoch);
  ignore (drive (Reclaimer.chunk_program r) (mk_env eng));
  checki "released epoch unblocks it" 9 (Reclaimer.versions_reclaimed r);
  Table.iter table (fun tuple ->
      checki "chains cut to the boundary version" 1
        (Version.chain_length (Tuple.head tuple)))

let test_reclaimer_preserves_tombstones () =
  let eng = Engine.create () in
  let table = Engine.create_table eng "dead" in
  let tuple = Table.alloc table in
  Tuple.install tuple (Version.committed ~ts:10L (Some (row 1)));
  Tuple.install tuple (Version.committed ~ts:20L None);
  for _ = 1 to 30 do
    ignore (Timestamp.next (Engine.timestamp eng))
  done;
  let epoch = Epoch.create (Engine.timestamp eng) in
  ignore (Epoch.advance epoch);
  let r = Reclaimer.create ~chunk_tuples:8 ~eng ~epoch () in
  ignore (drive (Reclaimer.chunk_program r) (mk_env eng));
  checki "pre-delete version cut" 1 (Reclaimer.versions_reclaimed r);
  checkb "tuple still reads as deleted" true (Tuple.read_committed tuple = None);
  checki "tombstone kept" 1 (Version.chain_length (Tuple.head tuple))

(* -- End-to-end through the runner -------------------------------------------- *)

let base_cfg () =
  { (R.Config.default ~policy:(R.Config.Preempt 1.0) ~n_workers:2 ()) with R.Config.seed = 11L }

(* Scan fast enough that full sweeps (tens of thousands of tuples, most of
   them cold) recur several times within the tiny test horizon. *)
let fast_reclaim =
  {
    R.Config.rc_chunk_tuples = 512;
    rc_epoch_interval_us = 20.;
    rc_gc_interval_us = 50.;
    rc_chunks_per_tick = 4;
    rc_non_preemptible = false;
  }

let max_chain (r : R.Runner.result) =
  List.fold_left
    (fun acc (cs : Engine.chain_stat) -> max acc cs.Engine.cs_max_len)
    0
    (Engine.chain_stats r.R.Runner.eng)

let test_runner_maintenance_bounds_chains () =
  let horizon_sec = 0.01 in
  let arrival_interval_us = 100. in
  let off =
    R.Runner.run_maintenance ~cfg:(base_cfg ()) ~horizon_sec ~arrival_interval_us ()
  in
  checkb "reclaim off: no maint summary" true (off.R.Runner.maint = None);
  checki "reclaim off: no gc requests" 0 off.R.Runner.generated_gc;
  let on =
    R.Runner.run_maintenance
      ~cfg:(R.Config.with_reclaim ~reclaim:fast_reclaim (base_cfg ()))
      ~horizon_sec ~arrival_interval_us ()
  in
  checkb "gc requests dispatched" true (on.R.Runner.generated_gc > 0);
  (match on.R.Runner.maint with
  | None -> Alcotest.fail "reclaim on: maint summary missing"
  | Some m ->
    checkb "epochs advanced" true (m.R.Runner.ms_advances > 0);
    checkb "chunks ran" true (m.R.Runner.ms_chunks > 0);
    checkb "versions reclaimed" true (m.R.Runner.ms_versions_reclaimed > 0));
  checkb "same workload committed on both" true
    (R.Metrics.committed_total on.R.Runner.metrics > 0
    && R.Metrics.committed_total off.R.Runner.metrics > 0);
  let mc_off = max_chain off and mc_on = max_chain on in
  checkb
    (Printf.sprintf "bounded vs monotonic growth (on %d < off %d)" mc_on mc_off)
    true (mc_on < mc_off)

let test_runner_maintenance_gc_class_accounted () =
  let on =
    R.Runner.run_maintenance
      ~cfg:(R.Config.with_reclaim ~reclaim:fast_reclaim (base_cfg ()))
      ~horizon_sec:0.01 ~arrival_interval_us:100. ()
  in
  (* the GC class flows through the standard metrics like any request *)
  match List.assoc_opt "GC" (R.Metrics.classes on.R.Runner.metrics) with
  | None -> Alcotest.fail "GC class missing from metrics"
  | Some cs ->
    checkb "gc chunks committed" true (cs.R.Metrics.committed > 0);
    checki "gc chunks never abort" 0 cs.R.Metrics.aborted

let () =
  Alcotest.run "maint"
    [
      ( "epoch",
        [
          Alcotest.test_case "advance + boundaries" `Quick test_epoch_advance_and_boundaries;
          Alcotest.test_case "registration pins safe" `Quick test_epoch_registration_pins_safe;
          Alcotest.test_case "old boundaries pruned" `Quick test_epoch_prunes_old_boundaries;
          Alcotest.test_case "engine lifecycle attach" `Quick
            test_epoch_attach_engine_lifecycle;
        ] );
      ( "truncate",
        [
          Alcotest.test_case "mid-chain boundary" `Quick test_truncate_mid_chain;
          Alcotest.test_case "boundary below all" `Quick test_truncate_no_qualifying_version;
          Alcotest.test_case "boundary above all" `Quick test_truncate_boundary_above_all;
          Alcotest.test_case "tombstone kept" `Quick test_truncate_keeps_tombstone;
          Alcotest.test_case "in-flight head skipped" `Quick
            test_truncate_skips_in_flight_head;
          Alcotest.test_case "all in-flight untouched" `Quick test_truncate_all_in_flight;
        ] );
      ( "reclaimer",
        [
          Alcotest.test_case "chunk truncates + audits" `Quick test_reclaimer_chunk_truncates;
          Alcotest.test_case "idempotent across passes" `Quick
            test_reclaimer_idempotent_and_wraps;
          Alcotest.test_case "live snapshot blocks reclaim" `Quick
            test_reclaimer_respects_live_snapshot;
          Alcotest.test_case "tombstones preserved" `Quick test_reclaimer_preserves_tombstones;
        ] );
      ( "runner",
        [
          Alcotest.test_case "bounded vs monotonic chains" `Quick
            test_runner_maintenance_bounds_chains;
          Alcotest.test_case "gc class in metrics" `Quick
            test_runner_maintenance_gc_class_accounted;
        ] );
    ]
