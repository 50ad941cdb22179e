(* One experiment per table/figure of the paper's evaluation (§6).

   Each [fig*] function runs the simulation configurations that produced
   the corresponding figure and prints the same rows/series.  Absolute
   numbers come from the simulator's cost model; the shapes (who wins, by
   roughly what factor, where crossovers fall) are the reproduction
   targets recorded in EXPERIMENTS.md. *)

module Config = Preemptdb.Config
module Runner = Preemptdb.Runner
module Metrics = Preemptdb.Metrics
module Report = Preemptdb.Report
module Costs = Uintr.Costs
module J = Obs.Json

let quick = Sys.getenv_opt "PREEMPTDB_BENCH_QUICK" <> None

(* -- Machine-readable output (--out DIR) ------------------------------------
   Experiments record every simulation run they print; [flush] writes one
   [<experiment>.json] (all variants) and one [<experiment>.csv] (registry
   rows, variant-prefixed) per experiment.  Without --out this is all
   no-ops. *)

let out_dir : string option ref = ref None
let set_out_dir dir = out_dir := Some dir

type recording = {
  mutable results : (string * J.t) list;  (* variant -> document *)
  mutable csvs : (string * string) list;
}

let recordings : (string, recording) Hashtbl.t = Hashtbl.create 8

let recording experiment =
  match Hashtbl.find_opt recordings experiment with
  | Some r -> r
  | None ->
    let r = { results = []; csvs = [] } in
    Hashtbl.replace recordings experiment r;
    r

(* Re-recording a variant replaces the previous document (idempotent under
   repeated --only). *)
let record_json ~experiment ~variant ?csv json =
  if !out_dir <> None then begin
    let rc = recording experiment in
    rc.results <- List.remove_assoc variant rc.results @ [ (variant, json) ];
    match csv with
    | Some c -> rc.csvs <- List.remove_assoc variant rc.csvs @ [ (variant, c) ]
    | None -> ()
  end

let record ~experiment ~variant (r : Runner.result) =
  if !out_dir <> None then
    record_json ~experiment ~variant ~csv:(Report.to_csv r)
      (Report.to_json ~name:variant r)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end

let write_string path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* Concatenate per-variant registry CSVs under one variant-prefixed header. *)
let combined_csv csvs =
  let buf = Buffer.create 1024 in
  List.iteri
    (fun i (variant, csv) ->
      List.iteri
        (fun j line ->
          if line <> "" then
            if j = 0 then begin
              if i = 0 then Buffer.add_string buf ("variant," ^ line ^ "\n")
            end
            else Buffer.add_string buf (variant ^ "," ^ line ^ "\n"))
        (String.split_on_char '\n' csv))
    csvs;
  Buffer.contents buf

(* Per-experiment runtime measurements: overall wall time, wall time spent
   inside [Sim.Des.run] (diffed from [Runner.perf_totals]), and the virtual
   time simulated — the simulation rate every run of this experiment
   achieved together. *)
type exp_perf = { ep_wall_s : float; ep_sim_wall_s : float; ep_virtual_us : float }

let perf_json p =
  J.Obj
    [
      ("wall_s", J.Float p.ep_wall_s);
      ("sim_wall_s", J.Float p.ep_sim_wall_s);
      ("virtual_us", J.Float p.ep_virtual_us);
      ( "sim_rate_virtual_us_per_s",
        if p.ep_sim_wall_s > 0. then J.Float (p.ep_virtual_us /. p.ep_sim_wall_s)
        else J.Null );
    ]

let flush ?perf experiment =
  match !out_dir, Hashtbl.find_opt recordings experiment with
  | Some dir, Some rc when rc.results <> [] ->
    mkdir_p dir;
    let doc =
      J.Obj
        ([
           ("experiment", J.String experiment);
           ("quick", J.Bool quick);
         ]
        @ (match perf with Some p -> [ ("perf", perf_json p) ] | None -> [])
        @ [ ("results", J.List (List.map snd rc.results)) ])
    in
    write_string (Filename.concat dir (experiment ^ ".json")) (J.to_string doc ^ "\n");
    if rc.csvs <> [] then
      write_string (Filename.concat dir (experiment ^ ".csv")) (combined_csv rc.csvs)
  | _ -> ()

(* Run one experiment with uniform timing: wall clock around the whole
   experiment, simulation rate from the [Runner.perf_totals] delta.  Every
   experiment gets the same trailer line (the old harness printed a single
   undifferentiated total, and only when more than one experiment ran). *)
let run_one name f =
  let sw0, vu0 = Runner.perf_totals () in
  let t0 = Unix.gettimeofday () in
  f ();
  let wall = Unix.gettimeofday () -. t0 in
  let sw1, vu1 = Runner.perf_totals () in
  let p =
    { ep_wall_s = wall; ep_sim_wall_s = sw1 -. sw0; ep_virtual_us = vu1 -. vu0 }
  in
  if p.ep_sim_wall_s > 0. then
    Format.printf "  [%s] wall %.1fs (%.1fs simulating %.1f virtual ms: %.0f virtual us/s)@."
      name wall p.ep_sim_wall_s (p.ep_virtual_us /. 1000.)
      (p.ep_virtual_us /. p.ep_sim_wall_s)
  else Format.printf "  [%s] wall %.1fs@." name wall;
  flush ~perf:p name

let scale h = if quick then h /. 4. else h

let workers_default = 16

let line fmt = Format.printf (fmt ^^ "@.")

let header title =
  line "";
  line "==================================================================";
  line "%s" title;
  line "=================================================================="

let policies = [ "Wait", Config.Wait; "Cooperative", Config.Cooperative 10_000 ]

let preempt = "PreemptDB", Config.Preempt 1.0

let all_policies = policies @ [ preempt ]

let cfg_of ?(workers = workers_default) ?(seed = 42) policy =
  { (Config.default ~policy ~n_workers:workers ()) with Config.seed = Int64.of_int seed }

let pct_list = [ 50.; 90.; 99.; 99.9 ]

let opt_us = function Some v -> Printf.sprintf "%10.1f" v | None -> "         -"

let print_latency_row name get =
  line "  %-22s %s %s %s %s" name
    (opt_us (get 50.))
    (opt_us (get 90.))
    (opt_us (get 99.))
    (opt_us (get 99.9))

(* Shared runs for Fig 1 + Fig 10 (same configuration, different metric). *)
let mixed_results = Hashtbl.create 8

let run_mixed_cached name policy =
  match Hashtbl.find_opt mixed_results name with
  | Some r -> r
  | None ->
    let r = Runner.run_mixed ~cfg:(cfg_of policy) ~horizon_sec:(scale 0.1) () in
    Hashtbl.replace mixed_results name r;
    r

(* -- §6.1: user-interrupt delivery latency microbenchmark ------------------- *)

let uintr_micro () =
  header "§6.1 microbenchmark — user-interrupt delivery latency (model)";
  let des = Sim.Des.create () in
  let fabric = Uintr.Fabric.create des ~costs:Costs.default in
  let recv = Uintr.Receiver.create () in
  let idx = Uintr.Fabric.register fabric recv in
  let n = 100_000 in
  for i = 1 to n do
    Sim.Des.schedule_at des ~time:(Int64.of_int (i * 5000)) (fun _ ->
        Uintr.Fabric.senduipi fabric idx)
  done;
  Sim.Des.run des;
  let h = Uintr.Fabric.delivery_histogram fabric in
  let clock = Sim.Des.clock des in
  let reg = Obs.Registry.create () in
  Obs.Registry.add (Obs.Registry.counter reg "uintr_sends") (Uintr.Fabric.sends fabric);
  Obs.Registry.attach_histogram reg "uintr_delivery" h;
  record_json ~experiment:"uintr-micro" ~variant:"delivery-latency"
    ~csv:(Obs.Registry.to_csv reg)
    (Obs.Registry.to_json ~clock reg);
  let ns p = Sim.Clock.ns_of_cycles clock (Sim.Histogram.percentile h p) in
  line "  samples: %d" (Sim.Histogram.count h);
  line "  delivery latency  p50=%.0fns  p90=%.0fns  p99=%.0fns  max=%.0fns" (ns 50.)
    (ns 90.) (ns 99.)
    (Sim.Clock.ns_of_cycles clock (Sim.Histogram.max_value h));
  line "  paper: consistently lower than 1us -> %s"
    (if Sim.Clock.ns_of_cycles clock (Sim.Histogram.max_value h) < 1000. then "REPRODUCED"
     else "NOT reproduced")

(* -- Figure 1 (right): scheduling-latency distribution ----------------------- *)

let fig1 () =
  header "Figure 1 (right) — scheduling latency of high-priority txns (us)";
  line "  %-22s %10s %10s %10s %10s" "policy" "p50" "p90" "p99" "p99.9";
  List.iter
    (fun (name, policy) ->
      let r = run_mixed_cached name policy in
      record ~experiment:"fig1" ~variant:name r;
      print_latency_row name (fun pct -> Runner.sched_latency_us r "NewOrder" ~pct))
    all_policies;
  line "  paper shape: PreemptDB orders of magnitude below Wait and Yield"

(* -- Figure 8: TPC-C throughput with and without uintr machinery ------------- *)

let fig8 () =
  header "Figure 8 — standard TPC-C throughput w/ and w/o uintr machinery (kTPS)";
  line "  %-8s %14s %20s %10s" "workers" "baseline" "with-interrupts" "overhead";
  List.iter
    (fun workers ->
      (* saturate the workers: deep lp queues, 25us refill ticks *)
      let saturated policy =
        { (cfg_of ~workers policy) with Config.lp_queue_size = 8 }
      in
      let base =
        Runner.run_tpcc ~cfg:(saturated Config.Wait) ~horizon_sec:(scale 0.1) ()
      in
      let intr_cfg =
        { (saturated (Config.Preempt 1.0)) with Config.empty_interrupts = true }
      in
      let intr =
        Runner.run_tpcc ~cfg:intr_cfg ~horizon_sec:(scale 0.1) ~empty_interrupt_ticks:1 ()
      in
      record ~experiment:"fig8" ~variant:(Printf.sprintf "w%d-baseline" workers) base;
      record ~experiment:"fig8" ~variant:(Printf.sprintf "w%d-interrupts" workers) intr;
      let t0 = Runner.total_tpcc_ktps base and t1 = Runner.total_tpcc_ktps intr in
      line "  %-8d %12.1f %18.1f %9.2f%%" workers t0 t1 ((t0 -. t1) /. t0 *. 100.))
    [ 1; 2; 4; 8; 16 ];
  line "  paper shape: ~1.7%% slowdown (minuscule overhead)"

(* -- TPC-C yardstick: one saturated run, the DES-throughput benchmark --------- *)

(* The simulator-performance target lives here: ROADMAP item 3 asks for
   virtual-seconds-per-wall-second on a saturated standard TPC-C mix.  The
   [run_one] trailer prints the sim rate; EXPERIMENTS.md records the
   trajectory across optimization PRs. *)
let tpcc () =
  header "TPC-C — saturated standard mix (DES throughput yardstick)";
  let cfg =
    { (cfg_of ~workers:8 (Config.Preempt 1.0)) with Config.lp_queue_size = 8 }
  in
  let r = Runner.run_tpcc ~cfg ~horizon_sec:(scale 0.1) () in
  record ~experiment:"tpcc" ~variant:"saturated-preempt" r;
  line "  total %.1f kTPS over %.1f virtual ms (8 workers, saturated)"
    (Runner.total_tpcc_ktps r)
    (Sim.Clock.us_of_cycles r.Runner.clock r.Runner.horizon /. 1000.);
  if r.Runner.wall_s > 0. then
    line "  des: %d events (max queue %d), %.0f virtual us per wall second"
      r.Runner.events r.Runner.des_max_queue
      (Sim.Clock.us_of_cycles r.Runner.clock r.Runner.horizon /. r.Runner.wall_s)

(* -- Figure 9: scalability under the mixed workload --------------------------- *)

let fig9 () =
  header "Figure 9 — mixed-workload throughput vs worker count (kTPS)";
  line "  %-22s %-8s %10s %10s %10s" "policy" "workers" "NewOrder" "Payment" "Q2";
  List.iter
    (fun (name, policy) ->
      List.iter
        (fun workers ->
          let r =
            Runner.run_mixed ~cfg:(cfg_of ~workers policy) ~horizon_sec:(scale 0.1) ()
          in
          record ~experiment:"fig9" ~variant:(Printf.sprintf "%s-w%d" name workers) r;
          line "  %-22s %-8d %10.2f %10.2f %10.2f" name workers
            (Runner.throughput_ktps r "NewOrder")
            (Runner.throughput_ktps r "Payment")
            (Runner.throughput_ktps r "Q2"))
        [ 1; 2; 4; 8; 16 ])
    all_policies;
  line "  paper shape: all variants scale; PreemptDB keeps baseline throughput"

(* -- Figure 10: end-to-end latency percentiles --------------------------------- *)

let fig10 () =
  header "Figure 10 — end-to-end latency (us), 16 workers, 1ms arrivals";
  line "  NewOrder (high priority):";
  line "  %-22s %10s %10s %10s %10s" "policy" "p50" "p90" "p99" "p99.9";
  List.iter
    (fun (name, policy) ->
      let r = run_mixed_cached name policy in
      record ~experiment:"fig10" ~variant:name r;
      print_latency_row name (fun pct -> Runner.latency_us r "NewOrder" ~pct))
    all_policies;
  line "  Q2 (low priority):";
  line "  %-22s %10s %10s %10s %10s" "policy" "p50" "p90" "p99" "p99.9";
  List.iter
    (fun (name, policy) ->
      let r = run_mixed_cached name policy in
      print_latency_row name (fun pct -> Runner.latency_us r "Q2" ~pct))
    all_policies;
  (* headline number: latency reduction at each percentile *)
  let wait = run_mixed_cached "Wait" Config.Wait in
  let pre = run_mixed_cached "PreemptDB" (Config.Preempt 1.0) in
  List.iter
    (fun pct ->
      match Runner.latency_us wait "NewOrder" ~pct, Runner.latency_us pre "NewOrder" ~pct with
      | Some w, Some p -> line "  NewOrder p%-5g reduction vs Wait: %5.1f%%" pct ((w -. p) /. w *. 100.)
      | _ -> ())
    pct_list;
  line "  paper shape: 88-96%% reduction at all percentiles; Q2 unaffected"

(* -- Figure 11: yield-interval sweep --------------------------------------------- *)

let fig11 () =
  header "Figure 11 — cooperative yield interval vs throughput and latency";
  line "  %-22s %12s %10s %12s %12s" "variant" "NO-kTPS" "Q2-kTPS" "NO-p99(us)" "Q2-p99(us)";
  let row name policy =
    let r = Runner.run_mixed ~cfg:(cfg_of policy) ~horizon_sec:(scale 0.08) () in
    record ~experiment:"fig11" ~variant:name r;
    line "  %-22s %12.2f %10.2f %12s %12s" name
      (Runner.throughput_ktps r "NewOrder")
      (Runner.throughput_ktps r "Q2")
      (opt_us (Runner.latency_us r "NewOrder" ~pct:99.))
      (opt_us (Runner.latency_us r "Q2" ~pct:99.))
  in
  List.iter
    (fun interval -> row (Printf.sprintf "Cooperative(%d)" interval) (Config.Cooperative interval))
    [ 1; 10; 100; 1000; 10_000; 100_000 ];
  row "Handcrafted(1000)" (Config.Cooperative_handcrafted 1000);
  row "PreemptDB" (Config.Preempt 1.0);
  line "  paper shape: frequent yields help hp latency but hurt Q2;";
  line "  handcrafted behaves comparably to PreemptDB"

(* -- Figure 12: starvation thresholds --------------------------------------------- *)

let fig12 () =
  header "Figure 12 — starvation thresholds under hp overload (queue 100, 1600 hp/ms)";
  line "  %-22s %12s %10s %12s %12s" "variant" "NO-kTPS" "Q2-kTPS" "NO-p99(us)" "Q2-p99(us)";
  let overload_cfg policy =
    { (cfg_of policy) with Config.hp_queue_size = 100 }
  in
  let run policy =
    Runner.run_mixed ~cfg:(overload_cfg policy) ~horizon_sec:(scale 0.1) ~hp_batch:1600 ()
  in
  let row name r =
    record ~experiment:"fig12" ~variant:name r;
    line "  %-22s %12.2f %10.2f %12s %12s" name
      (Runner.throughput_ktps r "NewOrder")
      (Runner.throughput_ktps r "Q2")
      (opt_us (Runner.latency_us r "NewOrder" ~pct:99.))
      (opt_us (Runner.latency_us r "Q2" ~pct:99.))
  in
  row "Wait" (run Config.Wait);
  List.iter
    (fun threshold ->
      row (Printf.sprintf "PreemptDB(Lmax=%g)" threshold) (run (Config.Preempt threshold)))
    [ 0.0; 0.25; 0.5; 0.75; 1.0 ];
  line "  paper shape: Wait and Lmax=1 starve Q2; Lmax=0.75 balances;";
  line "  Lmax=0 maximizes Q2 at the cost of NewOrder tail latency"

(* -- Figure 13: arrival-interval sweep ---------------------------------------------- *)

let fig13 () =
  header "Figure 13 — geomean end-to-end latency vs arrival interval (us)";
  line "  %-22s %12s %14s %14s" "policy" "arrival(us)" "NewOrder-geo" "Q2-geo";
  let opt = function Some v -> Printf.sprintf "%12.1f" v | None -> "           -" in
  List.iter
    (fun (name, policy) ->
      List.iter
        (fun arrival_us ->
          (* Only the hp arrival interval varies; Q2 refills keep the CPUs
             saturated at the usual 1ms cadence.  The batch is sized to two
             hp txns per worker per interval so the densest arrival rate
             sits just under hp-only saturation, as in the paper. *)
          let horizon = scale (Float.max 0.08 (arrival_us /. 1e6 *. 40.)) in
          let workers = 8 in
          let r =
            Runner.run_mixed ~cfg:(cfg_of ~workers policy)
              ~arrival_interval_us:arrival_us ~lp_interval_us:1000.
              ~hp_batch:(workers * 2) ~horizon_sec:horizon ()
          in
          record ~experiment:"fig13"
            ~variant:(Printf.sprintf "%s-%gus" name arrival_us)
            r;
          line "  %-22s %12.0f %s %s" name arrival_us
            (opt (Runner.geomean_latency_us r "NewOrder"))
            (opt (Runner.geomean_latency_us r "Q2")))
        [ 50.; 100.; 500.; 1000.; 5000.; 10_000.; 50_000. ])
    all_policies;
  line "  paper shape: PreemptDB flat and low for NewOrder at every rate;";
  line "  Wait/Cooperative 18-25x worse at light load, >=3.8x at 50us"

(* -- Ablations (DESIGN.md §4) --------------------------------------------------------- *)

let ablation () =
  header "Ablation — mechanism cost sensitivity (16 workers, mixed workload)";
  line "  %-34s %12s %12s %12s" "variant" "NO-p50(us)" "NO-p99(us)" "Q2-p50(us)";
  let run name cfg =
    let r = Runner.run_mixed ~cfg ~horizon_sec:(scale 0.06) () in
    record ~experiment:"ablation" ~variant:name r;
    line "  %-34s %12s %12s %12s" name
      (opt_us (Runner.latency_us r "NewOrder" ~pct:50.))
      (opt_us (Runner.latency_us r "NewOrder" ~pct:99.))
      (opt_us (Runner.latency_us r "Q2" ~pct:50.))
  in
  let base = cfg_of (Config.Preempt 1.0) in
  run "PreemptDB (calibrated costs)" base;
  run "PreemptDB (zero-cost uintr)" { base with Config.uintr_costs = Costs.zero };
  let slow =
    {
      Costs.default with
      Costs.delivery = Costs.default.Costs.delivery * 50;  (* ~18 us: signal-class *)
      handler_entry = Costs.default.Costs.handler_entry * 20;  (* kernel crossing *)
      handler_exit = Costs.default.Costs.handler_exit * 20;
      swap_context = Costs.default.Costs.swap_context * 20;
    }
  in
  run "PreemptDB (signal-class costs)" { base with Config.uintr_costs = slow };
  line "  reading: kernel-signal delivery (~18us) plus kernel-crossing handlers";
  line "  erodes the latency win; the sub-us uintr fabric is what makes";
  line "  preemption practical"

(* -- Ablation: non-preemptible regions (§4.4) ------------------------------------ *)

let ablation_regions () =
  header "Ablation — non-preemptible regions vs same-thread latch deadlocks (§4.4)";
  line "  serializable ledger workload: Audit (lp, read-set latching) + Transfer (hp)";
  line "  %-22s %14s %14s %14s %12s" "variant" "drops-region" "deadlocks" "Tr-p99(us)" "balance-ok";
  let run name regions_enabled =
    let cfg =
      {
        (Config.default ~policy:(Config.Preempt 1.0) ~n_workers:8 ()) with
        Config.regions_enabled;
      }
    in
    let r, balance = Runner.run_ledger ~cfg ~horizon_sec:(scale 0.08) () in
    record ~experiment:"ablation-regions"
      ~variant:(if regions_enabled then "regions-enabled" else "regions-disabled")
      r;
    let expected = Workload.Ledger.default.Workload.Ledger.accounts * 1000 in
    line "  %-22s %14d %14d %14s %12s" name r.Runner.workers.Runner.drops_region
      r.Runner.engine_stats.Storage.Engine.aborts_deadlock
      (opt_us (Runner.latency_us r "Transfer" ~pct:99.))
      (if balance = expected then "yes" else "VIOLATED");
    line "    [diag] passive=%d validation-aborts=%d conflicts=%d retries=%d audits=%d transfers=%d"
      r.Runner.workers.Runner.passive_switches
      r.Runner.engine_stats.Storage.Engine.aborts_validation
      r.Runner.engine_stats.Storage.Engine.aborts_conflict
      r.Runner.workers.Runner.retries
      (Metrics.committed r.Runner.metrics "Audit")
      (Metrics.committed r.Runner.metrics "Transfer")
  in
  run "regions enabled" true;
  run "regions DISABLED" false;
  line "  reading: with regions, in-commit preemptions are rejected (drops)";
  line "  and no deadlock can form; without them, same-thread latch deadlocks";
  line "  appear and long audits barely ever commit.  The simulator detects";
  line "  and breaks these deadlocks by aborting; on real hardware each one";
  line "  would be a permanent hang (latches have no deadlock detection)"

(* -- Extension: multi-level priorities (§5 Discussions) -------------------------- *)

let multilevel () =
  header "Extension — multi-level priorities with nested preemption (§5)";
  line "  Q2 (low) + StockLevel (high, ~100us scans) + BalanceCheck (urgent, ~2us)";
  line "  %-26s %12s %12s %12s %12s" "variant" "BC-p50(us)" "BC-p99(us)" "SL-p99(us)"
    "Q2-p50(us)";
  let run name levels =
    let cfg =
      {
        (Config.default ~policy:(Config.Preempt 1.0) ~n_workers:8 ()) with
        Config.n_priority_levels = levels;
      }
    in
    let r = Runner.run_tiered ~cfg ~horizon_sec:(scale 0.08) () in
    record ~experiment:"multilevel" ~variant:(Printf.sprintf "%d-levels" levels) r;
    line "  %-26s %12s %12s %12s %12s" name
      (opt_us (Runner.latency_us r "BalanceCheck" ~pct:50.))
      (opt_us (Runner.latency_us r "BalanceCheck" ~pct:99.))
      (opt_us (Runner.latency_us r "StockLevel" ~pct:99.))
      (opt_us (Runner.latency_us r "Q2" ~pct:50.))
  in
  run "2 levels (urgent = high)" 2;
  run "3 levels (nested preempt)" 3;
  line "  reading: a third context lets urgent lookups preempt in-progress";
  line "  StockLevel scans, cutting their latency without hurting the rest —";
  line "  the paper's proposed multi-context extension realized"

(* -- Extension: same-table HTAP with CH-benCHmark reporting ------------------------ *)

let htap () =
  header "Extension — same-table HTAP: CH-benCHmark analytics over live TPC-C";
  line "  lp = CH-Q1/Q4/Q6 full scans over the tables NewOrder/Payment mutate";
  line "  %-22s %12s %12s %14s %12s" "policy" "NO-p50(us)" "NO-p99(us)" "CH-aborts" "CHQ1-p50(ms)";
  List.iter
    (fun (name, policy) ->
      let r = Runner.run_htap ~cfg:(cfg_of ~workers:8 policy) ~horizon_sec:(scale 0.08) () in
      record ~experiment:"htap" ~variant:name r;
      let ch_aborted =
        List.fold_left
          (fun acc label ->
            match Metrics.find r.Runner.metrics label with
            | Some cs -> acc + cs.Metrics.aborted
            | None -> acc)
          0 [ "CH-Q1"; "CH-Q4"; "CH-Q6" ]
      in
      line "  %-22s %12s %12s %14d %12s" name
        (opt_us (Runner.latency_us r "NewOrder" ~pct:50.))
        (opt_us (Runner.latency_us r "NewOrder" ~pct:99.))
        ch_aborted
        (match Runner.latency_us r "CH-Q1" ~pct:50. with
        | Some v -> Printf.sprintf "%10.2f" (v /. 1000.)
        | None -> "         -"))
    all_policies;
  line "  reading: preemption pauses analytics over the data being written —";
  line "  snapshot isolation keeps the paused reads safe (0 reporting aborts),";
  line "  which is exactly the paper's case for preemption in modern engines"

(* -- Extension: overload resilience under an adversarial fabric ------------- *)

let resilience () =
  header "Extension — resilience: faulty uintr fabric + the overload response stack";
  line "  plan: 5%% lost + 5%% duplicated deliveries, 10%% delayed 10x, one 4x straggler";
  line "  %-26s %12s %12s %8s %8s %8s %8s %14s" "variant" "NO-p99(us)" "NO-kTPS" "lost"
    "dup" "shed" "wd-rs" "degr(in/out)";
  let plan =
    {
      Faults.Plan.none with
      Faults.Plan.seed = 7L;
      drop_pct = 5;
      dup_pct = 5;
      delay_pct = 10;
      delay_factor = 10;
      stragglers = [ { Faults.Plan.worker = 0; cost_mult_pct = 400 } ];
    }
  in
  let run name ~faulty ~armed =
    let cfg = cfg_of ~workers:8 (Config.Preempt 1.0) in
    let cfg = if armed then Config.with_resilience cfg else cfg in
    let prepare = if faulty then Some (Faults.Injector.install plan) else None in
    let r = Runner.run_mixed ~cfg ?prepare ~horizon_sec:(scale 0.08) () in
    record ~experiment:"resilience" ~variant:name r;
    line "  %-26s %12s %12.2f %8d %8d %8d %8d %10d/%d" name
      (opt_us (Runner.latency_us r "NewOrder" ~pct:99.))
      (Runner.throughput_ktps r "NewOrder")
      r.Runner.uintr_lost r.Runner.uintr_duplicated r.Runner.shed r.Runner.watchdog_resends
      r.Runner.degrade_enters r.Runner.degrade_exits
  in
  run "clean fabric" ~faulty:false ~armed:false;
  run "faulty, no response" ~faulty:true ~armed:false;
  run "faulty + resilience" ~faulty:true ~armed:true;
  line "  reading: lost deliveries leave hp work stranded in the backlog; the";
  line "  watchdog re-sends them, the shedder bounds how stale a stranded txn";
  line "  can get, and persistent misses degrade the worker to cooperative";
  line "  yielding (uintr-free) until the fabric proves healthy again"

(* -- Extension: memory — epoch reclamation as preemptible maintenance ------- *)

let memory () =
  header "Extension — memory: epoch-based reclamation bounds version chains (lib/maint)";
  line "  hp = NewOrder/Payment only (update-heavy: warehouse/district YTD grow";
  line "  a version per commit); GC chunks are the only low-priority work";
  let reclaim_policy =
    {
      Config.rc_chunk_tuples = 512;
      rc_epoch_interval_us = 20.;
      rc_gc_interval_us = 50.;
      rc_chunks_per_tick = 4;
      rc_non_preemptible = false;
    }
  in
  let horizon = scale 0.04 in
  let n_samples = 8 in
  let run name ~reclaim =
    let cfg = cfg_of ~workers:8 (Config.Preempt 1.0) in
    let cfg =
      match reclaim with
      | None -> cfg
      | Some rp -> Config.with_reclaim ~reclaim:rp cfg
    in
    (* sample the worst committed chain length over the run: bounded with
       GC on, monotonically growing with GC off *)
    let series = ref [] in
    let prepare (a : Runner.assembly) =
      let des = a.Runner.des in
      let clock = Sim.Des.clock des in
      let iv =
        Int64.max 1L (Sim.Clock.cycles_of_us clock (horizon *. 1e6 /. float n_samples))
      in
      let max_chain () =
        List.fold_left
          (fun acc cs -> max acc cs.Storage.Engine.cs_max_len)
          0
          (Storage.Engine.chain_stats a.Runner.eng)
      in
      let rec sample _ =
        series := (Sim.Clock.us_of_cycles clock (Sim.Des.now des), max_chain ()) :: !series;
        Sim.Des.schedule_after des ~delay:iv sample
      in
      Sim.Des.schedule_after des ~delay:iv sample
    in
    let r =
      Runner.run_maintenance ~cfg ~prepare ~arrival_interval_us:100. ~horizon_sec:horizon ()
    in
    record ~experiment:"memory" ~variant:name r;
    (r, List.rev !series)
  in
  let off, off_series = run "gc-off" ~reclaim:None in
  let on, on_series = run "gc-on" ~reclaim:(Some reclaim_policy) in
  let np, _ =
    run "gc-non-preemptible"
      ~reclaim:(Some { reclaim_policy with Config.rc_non_preemptible = true })
  in
  let max_chain (r : Runner.result) =
    List.fold_left
      (fun acc cs -> max acc cs.Storage.Engine.cs_max_len)
      0
      (Storage.Engine.chain_stats r.Runner.eng)
  in
  let versions (r : Runner.result) =
    List.fold_left (fun acc cs -> acc + cs.Storage.Engine.cs_versions) 0
      (Storage.Engine.chain_stats r.Runner.eng)
  in
  let reclaimed (r : Runner.result) =
    match r.Runner.maint with Some m -> m.Runner.ms_versions_reclaimed | None -> 0
  in
  let gc_preempted (r : Runner.result) = r.Runner.workers.Runner.gc_preempted in
  line "  %-22s %10s %10s %10s %12s %12s" "variant" "max-chain" "versions" "reclaimed"
    "gc-preempt" "NO-p99(us)";
  List.iter
    (fun (name, r) ->
      line "  %-22s %10d %10d %10d %12d %12s" name (max_chain r) (versions r)
        (reclaimed r) (gc_preempted r)
        (opt_us (Runner.latency_us r "NewOrder" ~pct:99.)))
    [ "gc-off", off; "gc-on", on; "gc-non-preemptible", np ];
  let show_series name s =
    line "  %-8s max chain over time: %s" name
      (String.concat " "
         (List.map (fun (t, m) -> Printf.sprintf "%.0fus:%d" t m) s))
  in
  show_series "gc-off" off_series;
  show_series "gc-on" on_series;
  (match
     ( Runner.latency_us off "NewOrder" ~pct:99.,
       Runner.latency_us on "NewOrder" ~pct:99.,
       Runner.latency_us np "NewOrder" ~pct:99. )
   with
  | Some p_off, Some p_on, Some p_np ->
    line "  bounded footprint: %d (on) vs %d (off) -> %s" (max_chain on) (max_chain off)
      (if max_chain on < max_chain off then "REPRODUCED" else "NOT reproduced");
    line "  preemptible GC p99 overhead: %+.1f%% -> %s"
      ((p_on -. p_off) /. p_off *. 100.)
      (if p_on <= p_off *. 1.05 then "within 5%" else "EXCEEDS 5%");
    line "  non-preemptible GC ablation p99: %.1fus vs %.1fus preemptible (%.2fx)" p_np
      p_on (p_np /. p_on)
  | _ -> line "  (missing NewOrder latency samples)");
  line "  reading: chunked GC rides the low-priority level and gets preempted";
  line "  mid-chunk like any long transaction, so reclamation bounds memory";
  line "  without moving the high-priority tail; fusing a chunk into one";
  line "  non-preemptible region is exactly the latency spike the paper's";
  line "  preemption model exists to avoid"

(* -- Extension: durability — preemptible vs blocking commit waits ----------- *)

let durability () =
  header "Extension — durability: group-commit WAL, preemptible vs blocking commit waits";
  line "  every commit publishes its marker LSN and waits for the group-commit";
  line "  flush; 'blocking' spins the hw thread on the ack, 'preemptible' parks";
  line "  the txn and resumes other work through the production uintr path";
  line "  %-22s %12s %12s %12s %12s %8s %8s %8s" "variant" "NO-p99(us)" "NO-p50(us)"
    "NO-kTPS" "cwait-p99" "flushes" "parks" "immed";
  let mk_cfg ~durability =
    let cfg = cfg_of ~workers:8 (Config.Preempt 1.0) in
    match durability with
    | None -> cfg
    | Some blocking ->
      Config.with_durability
        ~durability:{ Config.default_durability with Config.du_blocking = blocking }
        cfg
  in
  let run name ~durability =
    let r =
      Runner.run_mixed ~cfg:(mk_cfg ~durability) ~arrival_interval_us:40.
        ~horizon_sec:(scale 0.08) ()
    in
    record ~experiment:"durability" ~variant:name r;
    let flushes, parks, immediate =
      match r.Runner.durability with
      | Some d ->
        ( d.Runner.ds_flushes,
          r.Runner.workers.Runner.dur_parks,
          r.Runner.workers.Runner.dur_immediate )
      | None -> (0, 0, 0)
    in
    line "  %-22s %12s %12s %12.2f %12s %8d %8d %8d" name
      (opt_us (Runner.latency_us r "NewOrder" ~pct:99.))
      (opt_us (Runner.latency_us r "NewOrder" ~pct:50.))
      (Runner.throughput_ktps r "NewOrder")
      (opt_us (Runner.commit_wait_us r "NewOrder" ~pct:99.))
      flushes parks immediate;
    r
  in
  let _off = run "no durability" ~durability:None in
  let blocking = run "blocking commit" ~durability:(Some true) in
  let preempt = run "preemptible commit" ~durability:(Some false) in
  (match
     ( Runner.latency_us blocking "NewOrder" ~pct:99.,
       Runner.latency_us preempt "NewOrder" ~pct:99. )
   with
  | Some b, Some p when p > 0. ->
    line "  NewOrder p99: blocking %.1fus -> preemptible %.1fus (%.2fx)" b p (b /. p)
  | _ -> line "  (missing NewOrder latency samples)");
  line "  group-commit throughput: blocking %.2f kTPS, preemptible %.2f kTPS"
    (Runner.throughput_ktps blocking "NewOrder")
    (Runner.throughput_ktps preempt "NewOrder");
  line "  reading: a blocked commit wait wastes the hw thread for the rest of";
  line "  the flush interval; parking publishes the LSN, the worker takes new";
  line "  requests, and the flush-completion uintr unparks the whole group —";
  line "  same durable prefix, same flush pipeline, shorter tail"

(* -- Replication: log shipping, failure detection, automatic failover -------- *)

let failover () =
  header
    "Extension — replication: log shipping, semi-sync commit waits, failover";
  line "  a standby applies the durable log over a simulated fabric; semi-sync";
  line "  holds each commit ack until the replica persisted its marker, riding";
  line "  the same park/unpark commit-wait path ('spinning' burns the hw thread";
  line "  on the round trip instead); a crashed primary is detected by";
  line "  heartbeat misses and the replica promotes";
  let mk_cfg ~mode ~blocking =
    let cfg = cfg_of ~workers:8 (Config.Preempt 1.0) in
    let cfg =
      Config.with_durability
        ~durability:{ Config.default_durability with Config.du_blocking = blocking }
        cfg
    in
    Config.with_replication
      ~replication:{ Config.default_replication with Config.rp_mode = mode }
      cfg
  in
  let horizon = scale 0.08 in
  let run name ~mode ~blocking ?prepare () =
    let r =
      Runner.run_mixed ~cfg:(mk_cfg ~mode ~blocking) ?prepare
        ~arrival_interval_us:40. ~horizon_sec:horizon ()
    in
    record ~experiment:"failover" ~variant:name r;
    r
  in
  (* -- steady state: mode + commit-wait ablation ----------------------------- *)
  line "";
  line "  steady state (no faults):";
  line "  %-26s %11s %11s %9s %11s %9s %9s" "variant" "NO-p99(us)" "cwait-p99"
    "NO-kTPS" "lag-p99(us)" "batches" "resent";
  let steady name ~mode ~blocking =
    let r = run name ~mode ~blocking () in
    (match r.Runner.replication with
    | Some rs ->
      let lag_p99 =
        if Sim.Histogram.is_empty rs.Runner.rs_lag_us_hist then "-"
        else
          Printf.sprintf "%Ld"
            (Sim.Histogram.percentile rs.Runner.rs_lag_us_hist 99.)
      in
      line "  %-26s %11s %11s %9.2f %11s %9d %9d" name
        (opt_us (Runner.latency_us r "NewOrder" ~pct:99.))
        (opt_us (Runner.commit_wait_us r "NewOrder" ~pct:99.))
        (Runner.throughput_ktps r "NewOrder")
        lag_p99 rs.Runner.rs_batches rs.Runner.rs_resent
    | None -> line "  %-26s (no replication summary)" name);
    r
  in
  let asy = steady "async" ~mode:Config.Repl_async ~blocking:false in
  let semi =
    steady "semi-sync preemptible" ~mode:Config.Repl_semi_sync ~blocking:false
  in
  let spin =
    steady "semi-sync spinning" ~mode:Config.Repl_semi_sync ~blocking:true
  in
  (match
     ( Runner.latency_us spin "NewOrder" ~pct:99.,
       Runner.latency_us semi "NewOrder" ~pct:99. )
   with
  | Some s, Some p when p > 0. ->
    line "  semi-sync NewOrder p99: spinning %.1fus -> preemptible %.1fus (%.2fx)"
      s p (s /. p)
  | _ -> ());
  line "  semi-sync kTPS: spinning %.2f, preemptible %.2f (async %.2f)"
    (Runner.throughput_ktps spin "NewOrder")
    (Runner.throughput_ktps semi "NewOrder")
    (Runner.throughput_ktps asy "NewOrder");
  (* -- failover: crash the primary at several points ------------------------- *)
  line "";
  line "  primary crash -> detection -> promotion (RTO virtual us, RPO acked txns):";
  line "  %-26s %10s %10s %10s %8s %8s %8s" "variant" "crash(us)" "RTO(us)"
    "RPO(txns)" "applied" "torn" "probes";
  let crash name ~mode ~blocking ~crash_at_us =
    let plan = { Faults.Plan.none with Faults.Plan.crash_at_us; seed = 11L } in
    let r =
      run name ~mode ~blocking
        ~prepare:(fun a -> Faults.Injector.install plan a)
        ()
    in
    match r.Runner.replication with
    | Some rs -> (
      match rs.Runner.rs_failover with
      | Some fo ->
        line "  %-26s %10.0f %10.1f %10d %8d %8d %8d" name crash_at_us
          fo.Replication.Failover.fo_rto_us rs.Runner.rs_acked_lost
          fo.Replication.Failover.fo_applied_lsn fo.Replication.Failover.fo_torn
          fo.Replication.Failover.fo_probe_commits
      | None ->
        line "  %-26s %10.0f (primary crashed but no promotion)" name crash_at_us)
    | None -> line "  %-26s (no replication summary)" name
  in
  let horizon_us = horizon *. 1e6 in
  List.iter
    (fun frac ->
      let crash_at_us = Float.round (horizon_us *. frac) in
      crash
        (Printf.sprintf "async @%.0f%%" (frac *. 100.))
        ~mode:Config.Repl_async ~blocking:false ~crash_at_us;
      crash
        (Printf.sprintf "semi-sync @%.0f%%" (frac *. 100.))
        ~mode:Config.Repl_semi_sync ~blocking:false ~crash_at_us)
    [ 0.25; 0.5; 0.75 ];
  line "  reading: semi-sync buys RPO = 0 (no acknowledged commit dies with";
  line "  the primary) at the cost of a ship round trip inside every commit";
  line "  wait; parking absorbs that round trip like a longer flush, spinning";
  line "  burns the hw thread on it; async keeps the commit path local and";
  line "  bounds RPO by the shipping lag instead"

(* -- Observability: cycle accounting + preemption-stage latencies ------------ *)

let perf () =
  header "Observability — cycle accounting, preemption stages, simulation rate";
  let r =
    Runner.run_mixed ~cfg:(cfg_of ~workers:8 (Config.Preempt 1.0))
      ~horizon_sec:(scale 0.08) ()
  in
  record ~experiment:"perf" ~variant:"mixed-preempt" r;
  let clock = r.Runner.clock in
  let st = r.Runner.stages in
  line "  preemption pipeline: %d completed, %d rejected" (Uintr.Stages.completed st)
    (Uintr.Stages.rejected st);
  line "  %-24s %10s %10s %10s" "stage" "p50(us)" "p99(us)" "p99.9(us)";
  List.iter
    (fun (name, h) ->
      if not (Sim.Histogram.is_empty h) then
        let us p = Sim.Clock.us_of_cycles clock (Sim.Histogram.percentile h p) in
        line "  %-24s %10.3f %10.3f %10.3f" name (us 50.) (us 99.) (us 99.9))
    [
      ("send->deliver", Uintr.Stages.send_to_deliver st);
      ("deliver->recognize", Uintr.Stages.deliver_to_recognize st);
      ("recognize->switch", Uintr.Stages.recognize_to_switch st);
      ("switch->resume", Uintr.Stages.switch_to_resume st);
      ("send->resume (e2e)", Uintr.Stages.send_to_resume st);
    ];
  let p = r.Runner.profile in
  let total = Obs.Profiler.total_cycles p in
  line "  cycle accounting (top 10 of %Ld total cycles, %d workers):" total
    (List.length (Obs.Profiler.worker_ids p));
  List.iter
    (fun (bucket, cyc) ->
      line "    %-22s %14Ld  %5.1f%%" bucket cyc
        (Int64.to_float cyc /. Int64.to_float total *. 100.))
    (Obs.Profiler.top_k p 10);
  let bucket_sum =
    List.fold_left (fun acc (_, c) -> Int64.add acc c) 0L (Obs.Profiler.totals p)
  in
  let non_idle =
    List.fold_left
      (fun acc wid -> Int64.add acc (Obs.Profiler.non_idle_total p ~wid))
      0L (Obs.Profiler.worker_ids p)
  in
  line "  conservation: buckets sum to %Ld of %Ld total -> %s" bucket_sum total
    (if Int64.equal bucket_sum total then "EXACT" else "LEAK");
  line "  conservation: non-idle %Ld vs worker busy counters %Ld -> %s" non_idle
    r.Runner.workers.Runner.busy_cycles
    (if Int64.equal non_idle r.Runner.workers.Runner.busy_cycles then "EXACT" else "LEAK");
  (match !out_dir with
  | Some dir ->
    mkdir_p dir;
    write_string (Filename.concat dir "perf.folded") (Obs.Profiler.to_folded p);
    line "  flamegraph folded stacks written to %s/perf.folded" dir
  | None -> ());
  if r.Runner.wall_s > 0. then
    line "  des: %d events (max queue %d), %.0f virtual us per wall second" r.Runner.events
      r.Runner.des_max_queue
      (Sim.Clock.us_of_cycles clock r.Runner.horizon /. r.Runner.wall_s);
  (* event-queue steady-state microbenchmark: the production flat heap vs
     the boxed reference heap, from the simulator's depths to a deep
     backlog.  Informational (host-dependent), recorded with the info_
     prefix. *)
  let rates = Micro.queue_rates () in
  line "  event queue steady state (ns per push+pop):";
  List.iter
    (fun (depth, heap, reference) ->
      line "    depth %6d: heap %6.1f   reference %6.1f" depth heap reference)
    rates;
  record_json ~experiment:"perf" ~variant:"event-queue-micro"
    (J.Obj
       (("name", J.String "event-queue-micro")
       :: List.concat_map
            (fun (depth, heap, reference) ->
              [
                (Printf.sprintf "info_eq_heap_d%d_ns" depth, J.Float heap);
                (Printf.sprintf "info_eq_ref_d%d_ns" depth, J.Float reference);
              ])
            rates))

(* -- Sharded scale-out: 2PC over the uintr fabric ---------------------------- *)

let shard () =
  header "Sharded scale-out — 2PC over the fabric, preemptible prepare waits";
  line "  TPC-C warehouses partitioned over N shards, each with its own";
  line "  scheduler, worker pool, engine and group-commit log; cross-shard";
  line "  NewOrder/Payment run presumed-abort 2PC over fabric links, and both";
  line "  2PC waits (coordinator for votes, participant for the decision)";
  line "  park through the worker's gate path instead of spinning";
  let workers = 2 in
  (* per-shard arrival: total offered load grows linearly with the shard
     count, so flat per-shard kTPS = linear scaling.  The interval sits
     just under the 2-worker service capacity — close enough to
     saturation that any wait that holds a context (the spin ablation)
     collapses throughput instead of just stretching latency *)
  let arrival = 18. in
  let horizon = scale 0.04 in
  let run_cell ~shards ~cross ~blocking =
    let cfg =
      Config.with_shard
        ~shard:
          { Config.sh_shards = shards; sh_cross_pct = cross; sh_blocking = blocking }
        (cfg_of ~workers (Config.Preempt 1.0))
    in
    let cl = Shard.Cluster.create ~cfg ~arrival_interval_us:arrival () in
    Shard.Cluster.run cl ~horizon_sec:horizon;
    cl
  in
  let record_cell name cl =
    record_json ~experiment:"shard" ~variant:name
      (match Shard.Report.to_json cl with
      | J.Obj fields -> J.Obj (("name", J.String name) :: fields)
      | j -> j)
  in
  line "";
  line "  scaling (%d workers/shard, per-shard arrival %.0fus, horizon %.0fms):"
    workers arrival (horizon *. 1000.);
  line "  %-7s %11s %11s %10s %9s %9s %12s" "shards" "kTPS @0%" "kTPS @10%"
    "xs-commit" "timeouts" "parks" "NOX-p99(us)";
  let counts = if quick then [ 1; 2; 4; 8 ] else [ 1; 2; 4; 8; 16; 32 ] in
  let base_ktps = ref None in
  List.iter
    (fun n ->
      let c0 = run_cell ~shards:n ~cross:0 ~blocking:false in
      let c10 = run_cell ~shards:n ~cross:10 ~blocking:false in
      record_cell (Printf.sprintf "scale-%d-cross0" n) c0;
      record_cell (Printf.sprintf "scale-%d-cross10" n) c10;
      let stats = Shard.Cluster.stats c10 in
      let sum f = Array.fold_left (fun a s -> a + f s) 0 stats in
      if n = 1 then base_ktps := Some (Shard.Report.total_ktps c0);
      line "  %-7d %11.2f %11.2f %10d %9d %9d %12s" n
        (Shard.Report.total_ktps c0)
        (Shard.Report.total_ktps c10)
        (sum (fun s -> s.Shard.Cluster.ss_xs_committed))
        (sum (fun s -> s.Shard.Cluster.ss_coord_timeouts))
        (sum (fun s -> s.Shard.Cluster.ss_gate_parks))
        (match Shard.Report.label_p99_us c10 "NewOrderX" with
        | Some v -> Printf.sprintf "%.1f" v
        | None -> "-"))
    counts;
  (match !base_ktps with
  | Some b when b > 0. ->
    line "  reading: linear scaling = %d-shard kTPS @0%% tracking %.2f x shards;"
      (List.hd (List.rev counts)) b;
    line "  the 10%% column matching it is the headline — parked 2PC waits";
    line "  cost no worker capacity, so the round trips surface only in the";
    line "  cross-shard p99 (one prepare/vote/decision trip over the fabric),";
    line "  not in throughput; the spin ablation below shows the bend that";
    line "  blocking waits would have caused"
  | _ -> ());
  (* -- park vs spin: the preemptible-prepare-wait ablation ------------------- *)
  line "";
  line "  2PC wait ablation (4 shards, 10%% cross-shard):";
  line "  %-22s %10s %13s %13s %10s" "variant" "kTPS" "NO-p99(us)" "NOX-p99(us)"
    "parks";
  let ablate name ~blocking =
    let cl = run_cell ~shards:4 ~cross:10 ~blocking in
    record_cell (Printf.sprintf "ablation-%s" name) cl;
    let stats = Shard.Cluster.stats cl in
    let parks =
      Array.fold_left (fun a s -> a + s.Shard.Cluster.ss_gate_parks) 0 stats
    in
    let p99 label =
      match Shard.Report.label_p99_us cl label with
      | Some v -> Printf.sprintf "%.1f" v
      | None -> "-"
    in
    line "  %-22s %10.2f %13s %13s %10d" name (Shard.Report.total_ktps cl)
      (p99 "NewOrder") (p99 "NewOrderX") parks;
    cl
  in
  let park = ablate "park (preemptible)" ~blocking:false in
  let spin = ablate "spin (blocking)" ~blocking:true in
  (match
     ( Shard.Report.label_p99_us spin "NewOrder",
       Shard.Report.label_p99_us park "NewOrder" )
   with
  | Some s, Some p when p > 0. ->
    line "  NewOrder p99: spinning %.1fus -> preemptible %.1fus (%.2fx)" s p (s /. p)
  | _ -> ());
  line "  reading: a spinning coordinator burns its core for the whole";
  line "  prepare/vote/decision round trip (two group-commit flushes + four";
  line "  link hops), so queued local transactions eat the wait in their p99;";
  line "  parking lends the core to them instead"

let all () =
  uintr_micro ();
  fig1 ();
  fig8 ();
  tpcc ();
  fig9 ();
  fig10 ();
  fig11 ();
  fig12 ();
  fig13 ();
  ablation ();
  ablation_regions ();
  multilevel ();
  htap ();
  resilience ();
  memory ();
  durability ();
  failover ();
  shard ();
  perf ()
