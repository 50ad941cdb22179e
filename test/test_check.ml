(* The schedule-exploration and oracle harness (lib/check): DSG cycle
   detection on hand-built footprints, schedule JSON round-trips, run
   determinism and replay, the fault-injection self-test, forced
   preemption points, and both exploration strategies. *)

module S = Check.Schedule
module H = Check.Harness
module F = Check.Footprint

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* fast schedules for tests: short horizon, few workers *)
let base = { S.default with S.horizon_us = 1200. }

let mk_txn ~id ~begin_ts ~commit ~reads ~writes =
  {
    F.ft_id = id;
    ft_begin = begin_ts;
    ft_iso = Storage.Txn.Si;
    ft_commit = commit;
    ft_reads =
      List.map (fun (t, o, ts) -> { F.r_table = t; r_oid = o; r_observed = ts }) reads;
    ft_writes = writes;
    ft_own_reads = 0;
    ft_foreign_inflight = [];
    ft_missing = 0;
  }

(* -- DSG ------------------------------------------------------------------ *)

let test_dsg_acyclic () =
  (* T1 writes x (commit 2); T2 reads that version and writes y (commit 4):
     wr + ww edges only, in one direction *)
  let t1 = mk_txn ~id:1 ~begin_ts:1L ~commit:2L ~reads:[] ~writes:[ ("x", 0) ] in
  let t2 =
    mk_txn ~id:2 ~begin_ts:3L ~commit:4L ~reads:[ ("x", 0, 2L) ] ~writes:[ ("y", 0) ]
  in
  checkb "acyclic" true (Check.Dsg.find_cycle [ t1; t2 ] = None);
  checkb "empty history" true (Check.Dsg.find_cycle [] = None)

let test_dsg_lost_update_cycle () =
  (* both read the bootstrap version of x, both write x: the classic lost
     update — T1 -ww-> T2 (commit order) and T2 -rw-> T1 (T2 read under
     T1's later write)… plus T1 -rw-> T2; a cycle either way *)
  let t1 =
    mk_txn ~id:1 ~begin_ts:1L ~commit:2L ~reads:[ ("x", 0, 0L) ] ~writes:[ ("x", 0) ]
  in
  let t2 =
    mk_txn ~id:2 ~begin_ts:1L ~commit:3L ~reads:[ ("x", 0, 0L) ] ~writes:[ ("x", 0) ]
  in
  match Check.Dsg.find_cycle [ t1; t2 ] with
  | None -> Alcotest.fail "lost update not detected as a DSG cycle"
  | Some c -> checkb "cycle has hops" true (List.length c >= 2)

let test_dsg_write_skew_cycle () =
  (* write skew: T1 reads y, writes x; T2 reads x, writes y; both from the
     same snapshot — pure rw/rw cycle, no ww edge at all *)
  let t1 =
    mk_txn ~id:1 ~begin_ts:1L ~commit:5L ~reads:[ ("y", 0, 0L) ] ~writes:[ ("x", 0) ]
  in
  let t2 =
    mk_txn ~id:2 ~begin_ts:1L ~commit:6L ~reads:[ ("x", 0, 0L) ] ~writes:[ ("y", 0) ]
  in
  checkb "write skew detected" true (Check.Dsg.find_cycle [ t1; t2 ] <> None)

let test_snapshot_oracle () =
  (* T2 began at 4 (after T1's commit at 2) yet observed the bootstrap
     version of x: stale snapshot read *)
  let t1 = mk_txn ~id:1 ~begin_ts:1L ~commit:2L ~reads:[] ~writes:[ ("x", 0) ] in
  let t2 =
    mk_txn ~id:2 ~begin_ts:4L ~commit:5L ~reads:[ ("x", 0, 0L) ] ~writes:[ ("y", 0) ]
  in
  let vs = Check.Oracle.snapshot_consistency [ t1; t2 ] in
  checkb "stale read flagged" true
    (List.exists (fun v -> v.Check.Violation.oracle = "snapshot") vs);
  (* and the correct reading of version 2 passes *)
  let t2' =
    mk_txn ~id:2 ~begin_ts:4L ~commit:5L ~reads:[ ("x", 0, 2L) ] ~writes:[ ("y", 0) ]
  in
  checki "clean history passes" 0 (List.length (Check.Oracle.snapshot_consistency [ t1; t2' ]))

(* -- Schedule JSON -------------------------------------------------------- *)

let roundtrip s =
  let j = Obs.Json.to_string (S.to_json s) in
  match S.of_json (Result.get_ok (Obs.Json.parse j)) with
  | Ok s' -> checks "roundtrip" (S.describe s) (S.describe s')
  | Error e -> Alcotest.fail e

let test_schedule_roundtrip () =
  roundtrip S.default;
  roundtrip { S.default with S.forced = Some (S.Every { period = 97; phase = 3 }) };
  roundtrip { S.default with S.forced = Some (S.At [ 5; 17; 10_000 ]); jitter_pct = 0 };
  roundtrip { S.default with S.seed = Int64.min_int }

(* -- Determinism and replay ----------------------------------------------- *)

let test_determinism () =
  let r1 = H.run base and r2 = H.run base in
  checks "byte-identical reports"
    (Obs.Json.to_string (H.report_json r1))
    (Obs.Json.to_string (H.report_json r2))

let test_replay () =
  let r = H.run base in
  checkb "some commits" true (r.H.commits > 0);
  match Check.Explorer.replay r with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_report_roundtrip () =
  let r = H.run ~workload:H.Selftest ~fault:Storage.Engine.Skip_write_lock base in
  let json = Result.get_ok (Obs.Json.parse (Obs.Json.to_string (H.report_json r))) in
  match H.of_report_json json with
  | Error e -> Alcotest.fail e
  | Ok (s, w, fault, plan, reclaim, hash) ->
    checks "schedule" (S.describe base) (S.describe s);
    checkb "workload" true (w = H.Selftest);
    checkb "fault preserved" true (fault = Some Storage.Engine.Skip_write_lock);
    checkb "no plan recorded" true (plan = None);
    checkb "no reclaim recorded" true (not reclaim);
    checks "hash" r.H.hash_hex hash

(* -- Clean runs under perturbation ---------------------------------------- *)

let test_forced_preemption_clean () =
  let s = { base with S.forced = Some (S.Every { period = 50; phase = 0 }) } in
  let r = H.run s in
  checkb "forced points fired" true (r.H.forced_fired <> []);
  checkb "passive switches happened" true (r.H.passive_switches > 0);
  checki "no violations" 0 (List.length r.H.violations)

let test_fuzz_clean () =
  let o = Check.Explorer.fuzz ~budget:3 ~base () in
  checki "explored full budget" 3 o.Check.Explorer.explored;
  checki "no failures" 0 o.Check.Explorer.failing;
  checkb "work happened" true (o.Check.Explorer.total_commits > 0)

let test_exhaustive_clean () =
  let small = { base with S.horizon_us = 600. } in
  let o = Check.Explorer.exhaustive ~budget:4 ~base:small () in
  checkb "pilot + points" true (o.Check.Explorer.explored >= 2);
  checki "no failures" 0 o.Check.Explorer.failing;
  checkb "forced points fired" true (o.Check.Explorer.total_forced > 0)

(* -- Self-test: the injected bug must be caught and shrunk ---------------- *)

let test_selftest_fault_detected () =
  let clean = H.run ~workload:H.Selftest base in
  checki "clean engine passes" 0 (List.length clean.H.violations);
  let r = H.run ~workload:H.Selftest ~fault:Storage.Engine.Skip_write_lock base in
  checkb "fault detected" true (H.failed r);
  let oracles = List.map (fun v -> v.Check.Violation.oracle) r.H.violations in
  checkb "lost update caught by conservation" true (List.mem "lost-update" oracles);
  checkb "lost update caught by DSG" true (List.mem "serializability" oracles);
  (* shrink to a minimal failing schedule and replay it *)
  let m = Check.Shrink.minimize ~max_evals:40 r in
  checkb "shrunk schedule still fails" true (H.failed m.Check.Shrink.run);
  checkb "shrunk horizon no larger" true
    (m.Check.Shrink.schedule.S.horizon_us <= base.S.horizon_us);
  match Check.Explorer.replay m.Check.Shrink.run with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* -- Fault plans through the harness (robustness acceptance) --------------- *)

module Plan = Faults.Plan

(* The acceptance plan: 5% lost deliveries, 10% delayed 10x, one straggler. *)
let accept_plan =
  {
    Plan.none with
    Plan.seed = 13L;
    drop_pct = 5;
    delay_pct = 10;
    delay_factor = 10;
    stragglers = [ { Plan.worker = 0; cost_mult_pct = 300 } ];
  }

let test_fault_plan_oracles_clean () =
  (* Under the combined fault plan every oracle — DSG, snapshot, monitor,
     and the request-conservation ledger — must still pass: faults break
     timing, never correctness. *)
  let r = H.run ~plan:accept_plan base in
  checkb "faults actually fired" true (r.H.uintr_lost > 0);
  checkb "straggler armed, commits still happen" true (r.H.commits > 0);
  checki "all oracles pass under faults" 0 (List.length r.H.violations)

let test_fault_plan_deterministic_and_replayable () =
  let r1 = H.run ~plan:accept_plan base in
  let r2 = H.run ~plan:accept_plan base in
  checks "byte-identical faulty reports"
    (Obs.Json.to_string (H.report_json r1))
    (Obs.Json.to_string (H.report_json r2));
  (* the plan rides inside the report: replay re-arms it automatically *)
  let json = Result.get_ok (Obs.Json.parse (Obs.Json.to_string (H.report_json r1))) in
  match H.of_report_json json with
  | Error e -> Alcotest.fail e
  | Ok (s, w, fault, plan, reclaim, hash) -> (
    checkb "plan preserved in the report" true (plan = Some accept_plan);
    checkb "no engine fault" true (fault = None);
    let again = H.run ?fault ?plan ~reclaim ~workload:w s in
    checks "replay from the report reproduces the hash" hash again.H.hash_hex;
    match Check.Explorer.replay r1 with
    | Ok () -> ()
    | Error e -> Alcotest.fail e)

let test_degrade_and_recover_deterministic () =
  (* Total delivery loss for the first half of the horizon: workers fall
     back Preempt -> Cooperative, then the fabric heals and they recover —
     and the whole episode is trace-hash-stable across two runs. *)
  let plan =
    { Plan.none with Plan.seed = 17L; drop_pct = 100; until_us = base.S.horizon_us /. 2. }
  in
  let r1 = H.run ~plan base in
  checkb "degraded during the outage" true (r1.H.degrade_enters > 0);
  checkb "recovered after the heal" true (r1.H.degrade_exits > 0);
  checkb "watchdog fought the outage" true (r1.H.watchdog_resends > 0);
  checkb "commits despite the outage" true (r1.H.commits > 0);
  checki "oracles all pass across degrade/recover" 0 (List.length r1.H.violations);
  let r2 = H.run ~plan base in
  checks "trace hash stable across two runs" r1.H.hash_hex r2.H.hash_hex

(* -- Epoch-based reclamation through the harness --------------------------- *)

let test_reclaim_clean () =
  let r = H.run ~reclaim:true base in
  checkb "reclaim recorded in the run" true r.H.reclaim;
  checkb "versions actually reclaimed" true (r.H.versions_reclaimed > 0);
  checkb "commits still happen" true (r.H.commits > 0);
  checki "every oracle passes with GC on" 0 (List.length r.H.violations)

let test_reclaim_under_forced_preemption () =
  (* forced preemption points land inside GC chunks too; unlinks must stay
     safe when a chunk is suspended mid-scan and resumed later *)
  let s = { base with S.forced = Some (S.Every { period = 40; phase = 7 }) } in
  let r = H.run ~reclaim:true s in
  checkb "forced points fired" true (r.H.forced_fired <> []);
  checkb "reclamation survived preemption" true (r.H.versions_reclaimed > 0);
  checki "no violations" 0 (List.length r.H.violations)

let test_reclaim_oracle_self_test () =
  (* hand-built audits: the oracle itself must tell a visible-version
     unlink from a safe one *)
  let bad =
    {
      Maint.Reclaimer.au_table = "t";
      au_oid = 0;
      au_boundary = 50L;
      au_kept_ts = 40L;
      au_dropped = [ 30L; 20L ];
      au_active = [ 25L ];
    }
  in
  checkb "live snapshot under a dropped version flagged" true
    (Check.Oracle.reclaim_safety [ bad ] <> []);
  let safe = { bad with Maint.Reclaimer.au_active = [ 45L ] } in
  checki "snapshot at or above the kept version is safe" 0
    (List.length (Check.Oracle.reclaim_safety [ safe ]));
  let above = { safe with Maint.Reclaimer.au_kept_ts = 60L } in
  checkb "kept version above the boundary flagged" true
    (Check.Oracle.reclaim_safety [ above ] <> []);
  let disordered = { safe with Maint.Reclaimer.au_dropped = [ 45L ] } in
  checkb "dropped at or above the kept version flagged" true
    (Check.Oracle.reclaim_safety [ disordered ] <> [])

let test_reclaim_replayable () =
  let r = H.run ~reclaim:true base in
  let json = Result.get_ok (Obs.Json.parse (Obs.Json.to_string (H.report_json r))) in
  match H.of_report_json json with
  | Error e -> Alcotest.fail e
  | Ok (_, _, _, _, reclaim, hash) -> (
    checkb "reclaim flag preserved in the report" true reclaim;
    checks "hash preserved" r.H.hash_hex hash;
    match Check.Explorer.replay r with
    | Ok () -> ()
    | Error e -> Alcotest.fail e)

let test_reclaim_fuzz () =
  let o = Check.Explorer.fuzz ~reclaim:true ~budget:3 ~base () in
  checki "explored full budget with GC on" 3 o.Check.Explorer.explored;
  checki "no failures" 0 o.Check.Explorer.failing

let test_fuzz_with_plan () =
  let o = Check.Explorer.fuzz ~plan:accept_plan ~budget:3 ~base () in
  checki "explored full budget under faults" 3 o.Check.Explorer.explored;
  checki "no failures" 0 o.Check.Explorer.failing

(* -- Durability crash oracle ------------------------------------------------- *)

let dur_cfg =
  Preemptdb.Config.with_durability
    (Preemptdb.Config.default ~policy:(Preemptdb.Config.Preempt 1.0) ~n_workers:2 ())

let fail_violations label vs =
  if vs <> [] then
    Alcotest.failf "%s: %s" label (Check.Violation.to_string (List.hd vs))

let test_crash_clean_shutdown () =
  (* no crash: the run reaches the horizon, and the oracle's invariants
     hold on the final durable prefix *)
  let o = Check.Crash.run ~cfg:dur_cfg () in
  fail_violations "clean shutdown" o.Check.Crash.co_violations;
  checkb "commits audited" true (o.Check.Crash.co_audits <> []);
  checkb "some commits acked" true (o.Check.Crash.co_acked > 0)

let test_crash_fuzzed_points () =
  (* the fuzz grid: every (crash point, seed) cell must recover to exactly
     the durable prefix.  A slow device + fast arrivals keep an unflushed
     tail pending, so crashes actually lose commits. *)
  let grid_cfg =
    Preemptdb.Config.with_durability
      ~durability:
        {
          Preemptdb.Config.default_durability with
          Preemptdb.Config.du_group_interval_us = 200.;
          du_fsync_floor_us = 50.;
        }
      (Preemptdb.Config.default ~policy:(Preemptdb.Config.Preempt 1.0) ~n_workers:2 ())
  in
  let lost_somewhere = ref false in
  List.iter
    (fun crash_at_us ->
      List.iter
        (fun crash_seed ->
          let o =
            Check.Crash.run ~cfg:grid_cfg ~crash_at_us ~crash_seed
              ~arrival_interval_us:50. ()
          in
          fail_violations
            (Printf.sprintf "crash@%.0fus seed %Ld" crash_at_us crash_seed)
            o.Check.Crash.co_violations;
          checkb "crash actually fired" true
            (o.Check.Crash.co_result.Preemptdb.Runner.durability
             |> Option.map (fun d -> d.Preemptdb.Runner.ds_crashed)
             |> Option.value ~default:false);
          if o.Check.Crash.co_lost_commits > 0 then lost_somewhere := true)
        [ 11L; 42L ])
    [ 2000.; 5000.; 8000. ];
  checkb "the grid exercised real loss (unflushed tails)" true !lost_somewhere

let test_crash_selftest_early_ack () =
  (* a lying daemon (acks before durability) must be caught *)
  let o = Check.Crash.run ~cfg:dur_cfg ~crash_at_us:5000. ~early_ack:true () in
  checkb "early-ack violations detected" true (o.Check.Crash.co_violations <> [])

let test_crash_blocking_commit_config () =
  (* the blocking ablation takes the spin path but must satisfy the same
     durability contract *)
  let cfg =
    Preemptdb.Config.with_durability
      ~durability:
        { Preemptdb.Config.default_durability with Preemptdb.Config.du_blocking = true }
      (Preemptdb.Config.default ~policy:(Preemptdb.Config.Preempt 1.0) ~n_workers:2 ())
  in
  let o = Check.Crash.run ~cfg ~crash_at_us:5000. () in
  fail_violations "blocking commit crash" o.Check.Crash.co_violations

(* -- The check grid ------------------------------------------------------------ *)

let test_grid_presets_pass () =
  (* the three presets at their smallest budgets, in one run: one status *)
  let presets =
    [
      Check.Grid.durability ~budget:1 ~seed:42 ~workers:2;
      Check.Grid.failover ~budget:1 ~seed:42 ~workers:2;
      Check.Grid.shards ~budget:1 ~seed:42 ~workers:2;
    ]
  in
  checki "cells: 1 crash point, 10 x 2 failover, clean + 2 x 2 shard" 26
    (List.fold_left (fun n p -> n + List.length p.Check.Grid.cells) 0 presets);
  checkb "every cell passes, every armed bug caught" true (Check.Grid.run presets)

let synthetic ~cells ~caught =
  let cell violations () = { Check.Grid.label = "cell"; figures = "synthetic"; violations } in
  let v = Check.Violation.make "synthetic" "planted" in
  {
    Check.Grid.name = "synthetic";
    cells = List.map (fun bad -> cell (if bad then [ v ] else [])) cells;
    bug = "planted";
    armed = [ (fun () -> []); (fun () -> if caught then [ v ] else []) ];
  }

let test_grid_failing_cell () =
  checkb "clean preset passes" true
    (Check.Grid.run [ synthetic ~cells:[ false; false ] ~caught:true ]);
  checkb "one violating cell fails the grid" false
    (Check.Grid.run
       [
         synthetic ~cells:[ false; false ] ~caught:true;
         synthetic ~cells:[ false; true ] ~caught:true;
       ])

let test_grid_uncaught_bug () =
  checkb "an armed bug no attempt catches fails the grid" false
    (Check.Grid.run [ synthetic ~cells:[ false ] ~caught:false ])

let () =
  Alcotest.run "check"
    [
      ( "dsg",
        [
          Alcotest.test_case "acyclic history" `Quick test_dsg_acyclic;
          Alcotest.test_case "lost-update cycle" `Quick test_dsg_lost_update_cycle;
          Alcotest.test_case "write-skew cycle (rw only)" `Quick test_dsg_write_skew_cycle;
          Alcotest.test_case "snapshot staleness" `Quick test_snapshot_oracle;
        ] );
      ("schedule", [ Alcotest.test_case "json roundtrip" `Quick test_schedule_roundtrip ]);
      ( "determinism",
        [
          Alcotest.test_case "byte-identical reports for equal seeds" `Quick test_determinism;
          Alcotest.test_case "replay reproduces the trace hash" `Quick test_replay;
          Alcotest.test_case "report json roundtrip" `Quick test_report_roundtrip;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "forced preemption points, clean oracles" `Quick
            test_forced_preemption_clean;
          Alcotest.test_case "fuzz within budget, clean" `Quick test_fuzz_clean;
          Alcotest.test_case "bounded-exhaustive single points, clean" `Quick
            test_exhaustive_clean;
        ] );
      ( "selftest",
        [
          Alcotest.test_case "injected lost-update bug detected and shrunk" `Quick
            test_selftest_fault_detected;
        ] );
      ( "faults",
        [
          Alcotest.test_case "combined fault plan passes every oracle" `Quick
            test_fault_plan_oracles_clean;
          Alcotest.test_case "faulty runs deterministic + replayable from the report" `Quick
            test_fault_plan_deterministic_and_replayable;
          Alcotest.test_case "degrade to cooperative and recover, hash-stable" `Quick
            test_degrade_and_recover_deterministic;
          Alcotest.test_case "fuzz with a fault plan" `Quick test_fuzz_with_plan;
        ] );
      ( "reclaim",
        [
          Alcotest.test_case "clean run with GC on" `Quick test_reclaim_clean;
          Alcotest.test_case "safe under forced preemption" `Quick
            test_reclaim_under_forced_preemption;
          Alcotest.test_case "reclaim-safety oracle self-test" `Quick
            test_reclaim_oracle_self_test;
          Alcotest.test_case "replayable from the report" `Quick test_reclaim_replayable;
          Alcotest.test_case "fuzz with GC on" `Quick test_reclaim_fuzz;
        ] );
      ( "crash",
        [
          Alcotest.test_case "clean shutdown passes the oracle" `Quick
            test_crash_clean_shutdown;
          Alcotest.test_case "fuzzed crash points recover exactly" `Slow
            test_crash_fuzzed_points;
          Alcotest.test_case "early-ack self-test caught" `Quick
            test_crash_selftest_early_ack;
          Alcotest.test_case "blocking-commit ablation satisfies the contract" `Quick
            test_crash_blocking_commit_config;
        ] );
      ( "grid",
        [
          Alcotest.test_case "three presets pass in one run" `Slow test_grid_presets_pass;
          Alcotest.test_case "a violating cell fails it" `Quick test_grid_failing_cell;
          Alcotest.test_case "an uncaught armed bug fails it" `Quick test_grid_uncaught_bug;
        ] );
    ]
