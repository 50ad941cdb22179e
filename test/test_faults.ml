(* Tests for the fault-injection layer (lib/faults): plan serialization and
   validation, and the injector's end-to-end behavior against the real
   assembly — determinism of no-op plans, lost/duplicated/delayed
   deliveries, stragglers, storms, region stalls, healing at [until_us],
   and the resilience stack's response (watchdog, shedding, graceful
   degradation to cooperative scheduling). *)

module Config = Preemptdb.Config
module Runner = Preemptdb.Runner
module Metrics = Preemptdb.Metrics
module Plan = Faults.Plan
module Injector = Faults.Injector

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* -- Plan serialization ------------------------------------------------------ *)

let full_plan =
  {
    Plan.seed = 99L;
    drop_pct = 5;
    dup_pct = 3;
    delay_pct = 10;
    delay_factor = 10;
    storm_interval_us = 50.;
    storm_burst = 2;
    stragglers = [ { Plan.worker = 0; cost_mult_pct = 400 } ];
    region_stall_pct = 7;
    region_stall_cycles = 900;
    crash_at_us = 5000.;
    hb_drop_pct = 15;
    replica_crash_at_us = 2500.;
    until_us = 1234.5;
  }

let test_plan_roundtrip () =
  match Plan.of_string (Plan.to_string full_plan) with
  | Ok p -> checkb "round-trip preserves every field" true (p = full_plan)
  | Error e -> Alcotest.fail e

let test_plan_missing_fields_default () =
  match Plan.of_string "{\"drop_pct\": 20}" with
  | Ok p ->
    checki "given field taken" 20 p.Plan.drop_pct;
    checkb "missing fields fall back to none's values" true
      (p = { Plan.none with Plan.drop_pct = 20 })
  | Error e -> Alcotest.fail e

let test_plan_validation () =
  let expect_err json =
    match Plan.of_string json with
    | Ok _ -> Alcotest.failf "accepted invalid plan %s" json
    | Error _ -> ()
  in
  expect_err "{\"drop_pct\": 101}";
  expect_err "{\"dup_pct\": -1}";
  expect_err "{\"delay_factor\": -2}";
  expect_err "{\"until_us\": -1.0}";
  expect_err "{\"hb_drop_pct\": 101}";
  expect_err "{\"hb_drop_pct\": -5}";
  expect_err "{\"replica_crash_at_us\": -1.0}";
  expect_err "{\"stragglers\": [{\"worker\": 0, \"cost_mult_pct\": 0}]}";
  expect_err "[1, 2]"

let test_plan_noop () =
  checkb "none is a no-op" true (Plan.is_noop Plan.none);
  checkb "a seed alone changes nothing" true (Plan.is_noop { Plan.none with Plan.seed = 9L });
  checkb "delay without a factor > 1 is a no-op" true
    (Plan.is_noop { Plan.none with Plan.delay_pct = 50 });
  checkb "dropping is not" false (Plan.is_noop { Plan.none with Plan.drop_pct = 1 });
  checkb "a straggler is not" false
    (Plan.is_noop { Plan.none with Plan.stragglers = [ { Plan.worker = 0; cost_mult_pct = 200 } ] });
  checkb "heartbeat loss is not" false
    (Plan.is_noop { Plan.none with Plan.hb_drop_pct = 1 });
  checkb "a replica crash is not" false
    (Plan.is_noop { Plan.none with Plan.replica_crash_at_us = 1. })

(* Property: every valid plan the generator can produce survives the JSON
   round-trip unchanged — covering the crash fields, the delivery-model
   trio and the replication entries (heartbeat loss, replica crash) in one
   sweep. *)
let plan_gen =
  let open QCheck.Gen in
  let pct = int_range 0 100 in
  let us = map (fun n -> float_of_int n /. 2.) (int_range 0 20_000) in
  let straggler =
    map2 (fun w m -> { Plan.worker = w; cost_mult_pct = m }) (int_range 0 15)
      (int_range 1 1600)
  in
  let* seed = map Int64.of_int (int_range 0 1_000_000) in
  let* drop_pct = pct and* dup_pct = pct and* delay_pct = pct in
  let* delay_factor = int_range 0 64 in
  let* storm_interval_us = us and* storm_burst = int_range 0 16 in
  let* stragglers = list_size (int_range 0 4) straggler in
  let* region_stall_pct = pct and* region_stall_cycles = int_range 0 100_000 in
  let* crash_at_us = us and* hb_drop_pct = pct in
  let* replica_crash_at_us = us and* until_us = us in
  return
    {
      Plan.seed;
      drop_pct;
      dup_pct;
      delay_pct;
      delay_factor;
      storm_interval_us;
      storm_burst;
      stragglers;
      region_stall_pct;
      region_stall_cycles;
      crash_at_us;
      hb_drop_pct;
      replica_crash_at_us;
      until_us;
    }

let prop_plan_roundtrip =
  QCheck.Test.make ~count:500 ~name:"random plan JSON round-trip"
    (QCheck.make ~print:Plan.to_string plan_gen) (fun p ->
      match Plan.of_string (Plan.to_string p) with
      | Ok p' -> p' = p
      | Error e -> QCheck.Test.fail_reportf "rejected its own output: %s" e)

(* -- Injector against the real assembly -------------------------------------- *)

let small_tpch = { Workload.Tpch_schema.default with Workload.Tpch_schema.parts = 3000 }

let run ?plan ?(resilience = false) ?shed_deadline_us ?(arrival = 250.) ?(horizon = 0.02)
    ?hp_batch () =
  let cfg = Config.default ~policy:(Config.Preempt 1.0) ~n_workers:2 () in
  let cfg = if resilience then Config.with_resilience ?shed_deadline_us cfg else cfg in
  let prepare = Option.map (fun p a -> Injector.install p a) plan in
  Runner.run_mixed ~cfg ?prepare ~tpch_cfg:small_tpch ~arrival_interval_us:arrival
    ~horizon_sec:horizon ?hp_batch ()

let fingerprint (r : Runner.result) =
  ( r.Runner.events,
    r.Runner.engine_stats.Storage.Engine.commits,
    r.Runner.uintr_sends,
    r.Runner.workers.Runner.passive_switches )

let test_noop_plan_bit_identical () =
  (* Arming a no-op plan must not perturb the run at all: the injector's
     RNG is private and nothing touches the DES. *)
  let clean = run () in
  let armed = run ~plan:{ Plan.none with Plan.seed = 77L } () in
  checkb "identical fingerprint" true (fingerprint clean = fingerprint armed)

let test_faulty_run_deterministic () =
  let plan = { full_plan with Plan.storm_interval_us = 0. } in
  let a = run ~plan ~resilience:true () in
  let b = run ~plan ~resilience:true () in
  checkb "same fingerprint across two faulty runs" true (fingerprint a = fingerprint b);
  checki "same losses" a.Runner.uintr_lost b.Runner.uintr_lost;
  checki "same duplicates" a.Runner.uintr_duplicated b.Runner.uintr_duplicated

let test_drop_and_duplicate_counted () =
  let r = run ~plan:{ Plan.none with Plan.seed = 3L; drop_pct = 30; dup_pct = 30 } () in
  checkb "losses counted" true (r.Runner.uintr_lost > 0);
  checkb "duplicates counted" true (r.Runner.uintr_duplicated > 0);
  checkb "commits still happen" true (r.Runner.engine_stats.Storage.Engine.commits > 0)

let test_straggler_slows_worker () =
  let straggle =
    { Plan.none with Plan.stragglers = [ { Plan.worker = 0; cost_mult_pct = 800 } ] }
  in
  let clean = run () and slow = run ~plan:straggle () in
  (* hp work pinned to the slow worker runs 8x long: the tail shows it.
     (lp completion latency is survivor-biased — the straggler's Q2s just
     never finish inside the horizon — so count completions instead.) *)
  let p99 r = Option.get (Runner.latency_us r "NewOrder" ~pct:99.) in
  checkb "an 8x straggler inflates hp tail latency" true (p99 slow > 2. *. p99 clean);
  checkb "the straggler finishes less lp work" true
    (Metrics.committed slow.Runner.metrics "Q2" < Metrics.committed clean.Runner.metrics "Q2")

let test_straggler_bad_worker_rejected () =
  let plan = { Plan.none with Plan.stragglers = [ { Plan.worker = 99; cost_mult_pct = 200 } ] } in
  checkb "unknown worker id raises" true
    (try
       ignore (run ~plan ());
       false
     with Invalid_argument _ -> true)

let test_storm_sends_spurious_uipis () =
  let calm = run () in
  let stormy =
    run ~plan:{ Plan.none with Plan.seed = 5L; storm_interval_us = 100.; storm_burst = 3 } ()
  in
  checkb "storms add spurious sends" true (stormy.Runner.uintr_sends > calm.Runner.uintr_sends);
  checkb "receivers absorb them (commits unharmed)" true
    (stormy.Runner.engine_stats.Storage.Engine.commits
    > calm.Runner.engine_stats.Storage.Engine.commits / 2)

let test_region_stalls_charged () =
  let stalled =
    run
      ~plan:
        { Plan.none with Plan.seed = 11L; region_stall_pct = 100; region_stall_cycles = 5000 }
      ()
  in
  let clean = run () in
  (* stalls burn cycles inside commit-path regions: fewer commits land *)
  checkb "stalls slow the run down" true
    (stalled.Runner.engine_stats.Storage.Engine.commits
    < clean.Runner.engine_stats.Storage.Engine.commits)

(* -- The resilience stack responding to injected faults ----------------------- *)

let conservation_ok (r : Runner.result) =
  let m = r.Runner.metrics in
  r.Runner.generated_hp + r.Runner.generated_lp
  = Metrics.committed_total m + Metrics.aborted_total m + Metrics.shed_total m
    + r.Runner.backlog_left + r.Runner.queued_left + r.Runner.inflight_left

let test_watchdog_resends_lost_deliveries () =
  let plan = { Plan.none with Plan.seed = 21L; drop_pct = 60 } in
  let bare = run ~plan () and guarded = run ~plan ~resilience:true () in
  checki "no watchdog without the stack armed" 0 bare.Runner.watchdog_resends;
  checkb "watchdog re-sends lost deliveries" true (guarded.Runner.watchdog_resends > 0);
  let p99 r = Option.get (Runner.latency_us r "NewOrder" ~pct:99.) in
  checkb "resends repair the hp tail" true (p99 guarded < p99 bare);
  checkb "conservation holds under faults" true (conservation_ok guarded)

let test_degrade_to_cooperative_and_recover () =
  (* Total delivery loss for the first half of the run: workers degrade to
     cooperative scheduling, then the fabric heals and they recover. *)
  let plan = { Plan.none with Plan.seed = 31L; drop_pct = 100; until_us = 10_000. } in
  let r = run ~plan ~resilience:true ~horizon:0.02 () in
  checkb "workers degraded while the fabric was down" true (r.Runner.degrade_enters > 0);
  checkb "watchdog gave up on unreachable workers" true (r.Runner.watchdog_giveups > 0);
  checkb "recovered after the fabric healed" true (r.Runner.degrade_exits > 0);
  checkb "hp work still commits end to end" true
    (Metrics.committed r.Runner.metrics "NewOrder" > 0);
  checkb "conservation holds across degrade/recover" true (conservation_ok r)

let test_shed_under_straggler_overload () =
  (* A straggler plus overload: the deadline shedder drops stale backlog
     work instead of letting it rot. *)
  let plan =
    { Plan.none with Plan.seed = 41L; stragglers = [ { Plan.worker = 0; cost_mult_pct = 800 } ] }
  in
  let r = run ~plan ~resilience:true ~shed_deadline_us:300. ~arrival:1000. ~hp_batch:400 () in
  checkb "stale work shed" true (r.Runner.shed > 0);
  checki "metrics agree" r.Runner.shed (Metrics.shed_total r.Runner.metrics);
  checkb "conservation holds" true (conservation_ok r)

(* The watchdog and degradation constants pinned through a total outage
   and its healing: DES events, commits per class, an FNV-1a hash of the
   (time, seq) event stream, and the resilience counters.  Moving any of
   the constants moves the schedule. *)
let test_golden_degrade_and_recover () =
  let h = ref 0x811c9dc5 in
  let mix x = h := (!h lxor x) * 0x100000001b3 in
  let plan = { Plan.none with Plan.seed = 31L; drop_pct = 100; until_us = 1500. } in
  let prepare (a : Runner.assembly) =
    Sim.Des.set_probe a.Runner.des
      (Some
         (fun ~time ~seq ->
           mix (Int64.to_int time);
           mix seq));
    Injector.install plan a
  in
  let cfg =
    Config.with_resilience (Config.default ~policy:(Config.Preempt 1.0) ~n_workers:2 ())
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
  checki "DES events" 128824 r.Runner.events;
  checks "commits per class" "NewOrder=89 Payment=69 Q2=24" (String.concat " " commits);
  checks "(time, seq) stream hash" "2f4fd936e33d3ad4" (Printf.sprintf "%x" !h);
  checks "virtual-schedule digest" "940534868d69ff5" r.Runner.digest;
  checki "watchdog resends" 36 r.Runner.watchdog_resends;
  checki "watchdog give-ups" 12 r.Runner.watchdog_giveups;
  checki "degrade enters" 2 r.Runner.degrade_enters;
  checki "degrade exits" 2 r.Runner.degrade_exits

let test_plan_describe_stable () =
  (* The serialized plan is what CI archives next to a reproducer — keep
     the document deterministic. *)
  checks "serialization is stable" (Plan.to_string full_plan) (Plan.to_string full_plan)

let () =
  Alcotest.run "faults"
    [
      ( "plan",
        [
          Alcotest.test_case "JSON round-trip" `Quick test_plan_roundtrip;
          Alcotest.test_case "missing fields default" `Quick test_plan_missing_fields_default;
          Alcotest.test_case "validation" `Quick test_plan_validation;
          Alcotest.test_case "no-op detection" `Quick test_plan_noop;
          Alcotest.test_case "stable serialization" `Quick test_plan_describe_stable;
          QCheck_alcotest.to_alcotest prop_plan_roundtrip;
        ] );
      ( "injector",
        [
          Alcotest.test_case "no-op plan leaves the run bit-identical" `Slow
            test_noop_plan_bit_identical;
          Alcotest.test_case "faulty runs are deterministic" `Slow test_faulty_run_deterministic;
          Alcotest.test_case "drops and duplicates counted" `Slow test_drop_and_duplicate_counted;
          Alcotest.test_case "straggler slows its worker" `Slow test_straggler_slows_worker;
          Alcotest.test_case "straggler with unknown worker rejected" `Slow
            test_straggler_bad_worker_rejected;
          Alcotest.test_case "senduipi storms" `Slow test_storm_sends_spurious_uipis;
          Alcotest.test_case "region stalls charged" `Slow test_region_stalls_charged;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "watchdog re-sends lost deliveries" `Slow
            test_watchdog_resends_lost_deliveries;
          Alcotest.test_case "degrade to cooperative, then recover" `Slow
            test_degrade_to_cooperative_and_recover;
          Alcotest.test_case "shed under straggler overload" `Slow
            test_shed_under_straggler_overload;
          Alcotest.test_case "golden: degrade and recover" `Slow
            test_golden_degrade_and_recover;
        ] );
    ]
