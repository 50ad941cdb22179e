(* Tests for the performance-observability layer: the cycle-accounting
   profiler (and its conservation invariant over real runs, clean and
   faulty), the preemption-stage tracer, the report's perf/stages/profile
   schema (a golden key-set test), and the committed-baseline regression
   gate. *)

module Config = Preemptdb.Config
module Runner = Preemptdb.Runner
module Report = Preemptdb.Report
module Baseline = Preemptdb.Baseline
module Profiler = Obs.Profiler
module Stages = Uintr.Stages
module J = Obs.Json

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let check64 = Alcotest.(check int64)

(* -- Profiler ------------------------------------------------------------- *)

(* What the worker does for a micro-op: add its cycles to the class's cell. *)
let account_txn w ~label cycles =
  let c = Profiler.txn_cell w ~label in
  c := !c + cycles

let test_profiler_buckets () =
  let p = Profiler.create () in
  let w = Profiler.worker p ~wid:3 in
  Profiler.account w Profiler.Switch_passive 100;
  Profiler.account w Profiler.Switch_passive 50;
  Profiler.account w Profiler.Queue_op 10;
  account_txn w ~label:"NewOrder" 500;
  account_txn w ~label:"NewOrder" 500;
  account_txn w ~label:"Q2" 2000;
  Profiler.account w Profiler.Idle (-5);
  (* negatives ignored *)
  check (Alcotest.list Alcotest.int) "one worker" [ 3 ] (Profiler.worker_ids p);
  check64 "non-idle total" 3160L (Profiler.non_idle_total p ~wid:3);
  check64 "grand total" 3160L (Profiler.total_cycles p);
  let buckets = Profiler.worker_buckets p ~wid:3 in
  check
    Alcotest.(list (pair string int64))
    "largest first"
    [
      ("txn:Q2", 2000L); ("txn:NewOrder", 1000L); ("switch:passive", 150L); ("queue_op", 10L);
    ]
    buckets;
  Profiler.account w Profiler.Idle 840;
  check64 "idle included in worker_total" 4000L (Profiler.worker_total p ~wid:3);
  check64 "idle excluded from non_idle" 3160L (Profiler.non_idle_total p ~wid:3)

let test_profiler_memoized_slice () =
  let p = Profiler.create () in
  let a = Profiler.worker p ~wid:1 in
  let b = Profiler.worker p ~wid:1 in
  Profiler.account a Profiler.Gc 7;
  Profiler.account b Profiler.Gc 8;
  check64 "same slice accumulates" 15L (Profiler.non_idle_total p ~wid:1)

let test_profiler_topk_and_totals () =
  let p = Profiler.create () in
  let w0 = Profiler.worker p ~wid:0 and w1 = Profiler.worker p ~wid:1 in
  account_txn w0 ~label:"A" 100;
  account_txn w1 ~label:"A" 200;
  Profiler.account w0 Profiler.Ckpt 50;
  check
    Alcotest.(list (pair string int64))
    "cross-worker aggregation"
    [ ("txn:A", 300L); ("ckpt_chunk", 50L) ]
    (Profiler.totals p);
  checki "top_k truncates" 1 (List.length (Profiler.top_k p 1));
  checks "top bucket" "txn:A" (fst (List.hd (Profiler.top_k p 1)))

let test_profiler_folded () =
  let p = Profiler.create () in
  let w = Profiler.worker p ~wid:2 in
  account_txn w ~label:"Q2" 90;
  Profiler.account w Profiler.Switch_passive 10;
  checks "folded stacks" "worker2;txn:Q2 90\nworker2;switch:passive 10\n"
    (Profiler.to_folded p)

let test_profiler_json () =
  let p = Profiler.create () in
  let w = Profiler.worker p ~wid:0 in
  Profiler.account w Profiler.Uintr_handler 40;
  Profiler.account w Profiler.Idle 60;
  let j = Profiler.to_json p in
  checkb "total_cycles" true
    (J.equal (Option.get (J.member "total_cycles" j)) (J.Int 100));
  match J.member "buckets" j with
  | Some (J.List (first :: _)) ->
    checkb "share of top bucket" true
      (J.equal (Option.get (J.member "share" first)) (J.Float 0.6))
  | _ -> Alcotest.fail "buckets missing"

(* -- Stage tracer --------------------------------------------------------- *)

let test_stages_pipeline () =
  let st = Stages.create () in
  Stages.on_send st ~flow:1 ~time:100L;
  Stages.on_deliver st ~flow:1 ~time:150L;
  Stages.on_recognize st ~flow:1 ~time:175L;
  Stages.on_switch st ~flow:1 ~time:200L;
  Stages.on_resume st ~flow:1 ~time:260L;
  checki "completed" 1 (Stages.completed st);
  checki "rejected" 0 (Stages.rejected st);
  let one name h v =
    checki (name ^ " count") 1 (Sim.Histogram.count h);
    check64 name v (Sim.Histogram.percentile h 50.)
  in
  one "send_to_deliver" (Stages.send_to_deliver st) 50L;
  one "deliver_to_recognize" (Stages.deliver_to_recognize st) 25L;
  one "recognize_to_switch" (Stages.recognize_to_switch st) 25L;
  one "switch_to_resume" (Stages.switch_to_resume st) 60L;
  one "send_to_resume" (Stages.send_to_resume st) 160L

let test_stages_reject_and_lost () =
  let st = Stages.create () in
  Stages.on_send st ~flow:1 ~time:0L;
  Stages.on_deliver st ~flow:1 ~time:10L;
  Stages.on_recognize st ~flow:1 ~time:20L;
  Stages.on_reject st ~flow:1;
  Stages.on_send st ~flow:2 ~time:0L;
  Stages.on_lost st ~flow:2;
  (* a late resume for a forgotten flow must not record anything *)
  Stages.on_resume st ~flow:1 ~time:99L;
  Stages.on_resume st ~flow:2 ~time:99L;
  checki "completed" 0 (Stages.completed st);
  checki "rejected" 1 (Stages.rejected st);
  checkb "histograms empty" true (Sim.Histogram.is_empty (Stages.send_to_resume st))

(* -- Conservation over real runs ------------------------------------------ *)

let small_cfg policy =
  { (Config.default ~policy ~n_workers:2 ()) with Config.seed = 7L }

let run ?prepare policy =
  Runner.run_mixed ~cfg:(small_cfg policy) ?prepare ~arrival_interval_us:200.
    ~horizon_sec:0.004 ()

let check_conservation name (r : Runner.result) =
  let p = r.Runner.profile in
  let wids = Profiler.worker_ids p in
  checki (name ^ ": all workers accounted") r.Runner.cfg.Config.n_workers
    (List.length wids);
  (* aggregate: the non-idle buckets hold exactly the cycles the workers
     charged — no double count, no leak *)
  let non_idle =
    List.fold_left (fun acc wid -> Int64.add acc (Profiler.non_idle_total p ~wid)) 0L wids
  in
  check64 (name ^ ": non-idle == busy") r.Runner.workers.Runner.busy_cycles non_idle;
  (* per worker: buckets + idle close the ledger at max(busy, horizon) *)
  List.iter
    (fun wid ->
      let total = Profiler.worker_total p ~wid in
      checkb
        (Printf.sprintf "%s: worker %d covers the horizon" name wid)
        true
        (Int64.compare total r.Runner.horizon >= 0))
    wids;
  let sum =
    List.fold_left (fun acc (_, c) -> Int64.add acc c) 0L (Profiler.totals p)
  in
  check64 (name ^ ": bucket totals == grand total") (Profiler.total_cycles p) sum

let test_conservation_preempt () =
  let r = run (Config.Preempt 1.0) in
  checkb "preemptions happened" true (r.Runner.workers.Runner.passive_switches > 0);
  check_conservation "preempt" r

let test_conservation_cooperative () =
  check_conservation "cooperative" (run (Config.Cooperative 1000))

let test_conservation_wait () = check_conservation "wait" (run Config.Wait)

let test_conservation_faulty () =
  (* a faulty fabric (drops, duplicates, delays, one straggler) exercises
     the reject/lost paths and the cost multiplier; the ledger must still
     close exactly *)
  let plan =
    {
      Faults.Plan.none with
      Faults.Plan.seed = 3L;
      drop_pct = 10;
      dup_pct = 10;
      delay_pct = 20;
      delay_factor = 8;
      stragglers = [ { Faults.Plan.worker = 0; cost_mult_pct = 300 } ];
    }
  in
  let r = run ~prepare:(Faults.Injector.install plan) (Config.Preempt 1.0) in
  check_conservation "faulty" r

let test_stages_real_run () =
  let r = run (Config.Preempt 1.0) in
  let st = r.Runner.stages in
  checkb "flows completed" true (Stages.completed st > 0);
  List.iter
    (fun (name, h) ->
      checki (name ^ " records one sample per completed flow") (Stages.completed st)
        (Sim.Histogram.count h))
    [
      ("send_to_deliver", Stages.send_to_deliver st);
      ("deliver_to_recognize", Stages.deliver_to_recognize st);
      ("recognize_to_switch", Stages.recognize_to_switch st);
      ("switch_to_resume", Stages.switch_to_resume st);
      ("send_to_resume", Stages.send_to_resume st);
    ];
  (* the end-to-end stage dominates each component stage *)
  let p99 h = Sim.Histogram.percentile h 99. in
  checkb "e2e >= send_to_deliver" true
    (Int64.compare (p99 (Stages.send_to_resume st)) (p99 (Stages.send_to_deliver st)) >= 0)

(* -- Report schema (golden) ------------------------------------------------ *)

(* Flatten an object tree into dotted key paths (lists are not descended:
   their element schemas vary with run shape). *)
let rec key_paths prefix = function
  | J.Obj fields ->
    List.concat_map
      (fun (k, v) ->
        let path = if prefix = "" then k else prefix ^ "." ^ k in
        path :: key_paths path v)
      fields
  | _ -> []

let test_report_schema_golden () =
  let r = run (Config.Preempt 1.0) in
  (* round-trip through the serializer: the schema the perfdiff gate and
     downstream tooling see is the parsed form, not the in-memory tree *)
  let doc = Result.get_ok (J.parse (J.to_string (Report.to_json ~name:"golden" r))) in
  let paths = key_paths "" doc in
  let expected =
    [
      "name";
      "config";
      "config.policy";
      "config.n_workers";
      "config.regions_enabled";
      "horizon_ms";
      "classes";
      "chains";
      "durability";
      "timeseries";
      "perf";
      "perf.wall_s";
      "perf.virtual_us";
      "perf.sim_rate_virtual_us_per_s";
      "perf.des_events";
      "perf.des_events_per_virtual_ms";
      "perf.des_max_queue_depth";
      "stages";
      "stages.completed";
      "stages.rejected";
      "stages.send_to_deliver";
      "stages.deliver_to_recognize";
      "stages.recognize_to_switch";
      "stages.switch_to_resume";
      "stages.send_to_resume";
      "stages.send_to_resume.count";
      "stages.send_to_resume.mean_us";
      "stages.send_to_resume.p50_us";
      "stages.send_to_resume.p99_us";
      "stages.send_to_resume.p999_us";
      "profile";
      "profile.total_cycles";
      "profile.buckets";
      "profile.workers";
      "metrics";
    ]
  in
  List.iter
    (fun path ->
      checkb (Printf.sprintf "schema keeps %S" path) true (List.mem path paths))
    expected

(* -- Baseline / regression gate ------------------------------------------- *)

let sample_baseline =
  {
    Baseline.version = Baseline.current_version;
    metrics =
      [
        ("mixed_preempt.NewOrder_ktps", 10.0);
        ("mixed_preempt.NewOrder_p99_us", 50.0);
        ("mixed_preempt.info_sim_rate_virtual_us_per_s", 20_000.0);
      ];
  }

let test_baseline_roundtrip () =
  (* the document [to_json] prints is the one [read] parses *)
  let b = sample_baseline in
  let path = Filename.temp_file "baseline" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (J.to_string (Baseline.to_json b)));
      match Baseline.read ~path with
      | Error e -> Alcotest.fail e
      | Ok b' ->
        checki "version" b.Baseline.version b'.Baseline.version;
        check
          Alcotest.(list (pair string (float 1e-9)))
          "metrics preserved in order" b.Baseline.metrics b'.Baseline.metrics)

let test_baseline_file_roundtrip () =
  let path = Filename.temp_file "baseline" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Baseline.write ~path sample_baseline;
      match Baseline.read ~path with
      | Error e -> Alcotest.fail e
      | Ok b ->
        check
          Alcotest.(list (pair string (float 1e-9)))
          "file roundtrip" sample_baseline.Baseline.metrics b.Baseline.metrics)

let test_baseline_direction () =
  (* a 20 % rise gates exactly the metrics where lower is better *)
  let rise_gates name =
    let base = { sample_baseline with Baseline.metrics = [ (name, 100.) ] } in
    let fresh = { base with Baseline.metrics = [ (name, 120.) ] } in
    Baseline.regressions (Baseline.diff ~base ~fresh ~tolerance_pct:15.) <> []
  in
  checkb "ktps up" false (rise_gates "mixed_preempt.NewOrder_ktps");
  checkb "latency down" true (rise_gates "mixed_preempt.NewOrder_p99_us");
  checkb "stage latency down" true (rise_gates "mixed_preempt.stage_send_to_resume_p99_us")

let test_diff_identical () =
  let vs =
    Baseline.diff ~base:sample_baseline ~fresh:sample_baseline ~tolerance_pct:15.
  in
  checki "all metrics compared" (List.length sample_baseline.Baseline.metrics)
    (List.length vs);
  checki "no regressions" 0 (List.length (Baseline.regressions vs))

let test_diff_directions () =
  let fresh =
    {
      sample_baseline with
      Baseline.metrics =
        [
          ("mixed_preempt.NewOrder_ktps", 12.0);  (* +20%: better, not gated *)
          ("mixed_preempt.NewOrder_p99_us", 65.0);  (* +30%: worse, gated *)
          ("mixed_preempt.info_sim_rate_virtual_us_per_s", 1.0);  (* info: never gates *)
        ];
    }
  in
  let vs = Baseline.diff ~base:sample_baseline ~fresh ~tolerance_pct:15. in
  let regs = Baseline.regressions vs in
  checki "only the latency regressed" 1 (List.length regs);
  checks "the right metric" "mixed_preempt.NewOrder_p99_us"
    (List.hd regs).Baseline.metric

let test_diff_missing_metric_is_regression () =
  let fresh =
    { sample_baseline with Baseline.metrics = List.tl sample_baseline.Baseline.metrics }
  in
  let vs = Baseline.diff ~base:sample_baseline ~fresh ~tolerance_pct:15. in
  let regs = Baseline.regressions vs in
  checki "schema drift gates" 1 (List.length regs);
  checks "the vanished metric" "mixed_preempt.NewOrder_ktps" (List.hd regs).Baseline.metric

let test_diff_version_mismatch () =
  let fresh = { sample_baseline with Baseline.version = Baseline.current_version + 1 } in
  match Baseline.diff ~base:sample_baseline ~fresh ~tolerance_pct:15. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on version mismatch"

let test_perturb_worse_trips_gate () =
  (* the perfdiff selftest's mechanism: an injected regression larger than
     tolerance must be flagged on every gated metric *)
  let fresh = Baseline.perturb_worse sample_baseline ~pct:20. in
  let vs = Baseline.diff ~base:sample_baseline ~fresh ~tolerance_pct:15. in
  checki "every gated metric trips" 2 (List.length (Baseline.regressions vs));
  (* within tolerance: silent *)
  let mild = Baseline.perturb_worse sample_baseline ~pct:10. in
  let vs' = Baseline.diff ~base:sample_baseline ~fresh:mild ~tolerance_pct:15. in
  checki "within tolerance passes" 0 (List.length (Baseline.regressions vs'))

(* -- QCheck: conservation is seed-independent ------------------------------ *)

let prop_conservation_any_seed =
  QCheck.Test.make ~name:"profiler ledger closes for any seed" ~count:5
    QCheck.(int_range 1 1000)
    (fun seed ->
      let cfg =
        { (Config.default ~policy:(Config.Preempt 1.0) ~n_workers:2 ()) with
          Config.seed = Int64.of_int seed
        }
      in
      let r = Runner.run_mixed ~cfg ~arrival_interval_us:300. ~horizon_sec:0.002 () in
      let p = r.Runner.profile in
      let non_idle =
        List.fold_left
          (fun acc wid -> Int64.add acc (Profiler.non_idle_total p ~wid))
          0L (Profiler.worker_ids p)
      in
      Int64.equal non_idle r.Runner.workers.Runner.busy_cycles)

let () =
  Alcotest.run "perf"
    [
      ( "profiler",
        [
          Alcotest.test_case "buckets" `Quick test_profiler_buckets;
          Alcotest.test_case "memoized slice" `Quick test_profiler_memoized_slice;
          Alcotest.test_case "top-k and totals" `Quick test_profiler_topk_and_totals;
          Alcotest.test_case "folded stacks" `Quick test_profiler_folded;
          Alcotest.test_case "json" `Quick test_profiler_json;
        ] );
      ( "stages",
        [
          Alcotest.test_case "pipeline" `Quick test_stages_pipeline;
          Alcotest.test_case "reject and lost" `Quick test_stages_reject_and_lost;
          Alcotest.test_case "real run" `Quick test_stages_real_run;
        ] );
      ( "conservation",
        [
          Alcotest.test_case "preempt" `Quick test_conservation_preempt;
          Alcotest.test_case "cooperative" `Quick test_conservation_cooperative;
          Alcotest.test_case "wait" `Quick test_conservation_wait;
          Alcotest.test_case "faulty fabric" `Quick test_conservation_faulty;
          QCheck_alcotest.to_alcotest prop_conservation_any_seed;
        ] );
      ( "report-schema",
        [ Alcotest.test_case "golden key set" `Quick test_report_schema_golden ] );
      ( "baseline",
        [
          Alcotest.test_case "json roundtrip" `Quick test_baseline_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_baseline_file_roundtrip;
          Alcotest.test_case "metric direction" `Quick test_baseline_direction;
          Alcotest.test_case "identical passes" `Quick test_diff_identical;
          Alcotest.test_case "direction-aware gating" `Quick test_diff_directions;
          Alcotest.test_case "missing metric gates" `Quick test_diff_missing_metric_is_regression;
          Alcotest.test_case "version mismatch raises" `Quick test_diff_version_mismatch;
          Alcotest.test_case "injected regression trips" `Quick test_perturb_worse_trips_gate;
        ] );
    ]
