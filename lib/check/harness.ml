module P = Workload.Program
module R = Preemptdb
module J = Obs.Json

type workload = Tpcc | Selftest

let workload_to_string = function Tpcc -> "tpcc" | Selftest -> "selftest"

let workload_of_string = function
  | "tpcc" -> Some Tpcc
  | "selftest" -> Some Selftest
  | _ -> None

type run = {
  schedule : Schedule.t;
  workload : workload;
  fault : Storage.Engine.fault option;
  plan : Faults.Plan.t option;
  reclaim : bool;
  versions_reclaimed : int;
  violations : Violation.t list;
  trace_hash : int64;
  hash_hex : string;
  ops : int;
  forced_fired : int list;
  commits : int;
  aborts : int;
  switches : int;
  passive_switches : int;
  uintr_recognized : int;
  des_events : int;
  uintr_lost : int;
  uintr_duplicated : int;
  shed : int;
  watchdog_resends : int;
  watchdog_giveups : int;
  degrade_enters : int;
  degrade_exits : int;
  exhausted : int;
  decisions : string list;
}

let failed r = r.violations <> []

(* --- workload setups --------------------------------------------------- *)

let setup_tpcc (a : R.Runner.assembly) (s : Schedule.t) =
  (* districts must be 10: the loader's W_YTD constant (300k) is the spec
     sum of ten district YTDs (30k each), which the YTD oracle asserts *)
  let tiny =
    {
      Workload.Tpcc_schema.warehouses = max 1 s.Schedule.workers;
      districts = 10;
      customers = 30;
      items = 60;
      init_orders = 6;
      remote_pct = 25;
    }
  in
  let db = Workload.Tpcc_db.create a.R.Runner.eng tiny in
  Workload.Tpcc_db.load db (Sim.Rng.create (Int64.add s.Schedule.seed 1L));
  let gen_rng = Sim.Rng.create (Int64.add s.Schedule.seed 2L) in
  let warehouses = tiny.Workload.Tpcc_schema.warehouses in
  let hp_gen ~submitted_at =
    let rng = Sim.Rng.split gen_rng in
    let kind = if Sim.Rng.bool gen_rng then Workload.Tpcc.New_order else Workload.Tpcc.Payment in
    let prog env =
      Workload.Tpcc.program db kind ~home_w:((env.P.worker mod warehouses) + 1) env
    in
    R.Request.make ~id:(R.Runner.next_request_id a.R.Runner.host)
      ~label:(Workload.Tpcc.kind_to_string kind)
      ~priority:R.Request.High ~prog ~rng ~submitted_at
  in
  let lp_gen ~worker:_ ~submitted_at =
    let rng = Sim.Rng.split gen_rng in
    let kind = Workload.Tpcc.standard_mix gen_rng in
    let prog env =
      Workload.Tpcc.program db kind ~home_w:((env.P.worker mod warehouses) + 1) env
    in
    R.Request.make ~id:(R.Runner.next_request_id a.R.Runner.host)
      ~label:(Workload.Tpcc.kind_to_string kind)
      ~priority:R.Request.Low ~prog ~rng ~submitted_at
  in
  (lp_gen, hp_gen, fun () -> Oracle.tpcc_consistency db)

(* Contended counters: the low-priority program holds a read open across a
   long compute before incrementing, so a preemption in the window lets a
   high-priority increment of the same row commit in between.  A correct SI
   engine turns that into a Write_conflict retry; the [Skip_write_lock]
   fault turns it into a lost update. *)
let selftest_rows = 2

let setup_selftest (a : R.Runner.assembly) (s : Schedule.t) =
  let table = Storage.Engine.create_table a.R.Runner.eng "check_counter" in
  for i = 0 to selftest_rows - 1 do
    let tuple = Storage.Table.alloc table in
    Storage.Tuple.install tuple
      (Storage.Version.committed
         (Some (Storage.Value.of_fields [| Storage.Value.Int i; Storage.Value.Int 0 |])))
  done;
  let writes = Storage.Txn.declare ~tables:[ table ] () in
  let incr_prog ~slow env =
    P.run_txn ~writes env (fun txn ->
        let oid = Sim.Rng.int env.P.rng selftest_rows in
        match P.read env txn table ~oid with
        | None -> ()
        | Some row ->
          if slow then P.compute 10_000;
          P.update env txn table ~oid (Storage.Value.add_int row 1 1))
  in
  let gen_rng = Sim.Rng.create (Int64.add s.Schedule.seed 2L) in
  let hp_gen ~submitted_at =
    R.Request.make ~id:(R.Runner.next_request_id a.R.Runner.host) ~label:"FastIncr"
      ~priority:R.Request.High ~prog:(incr_prog ~slow:false) ~rng:(Sim.Rng.split gen_rng)
      ~submitted_at
  in
  let lp_gen ~worker:_ ~submitted_at =
    R.Request.make ~id:(R.Runner.next_request_id a.R.Runner.host) ~label:"SlowIncr"
      ~priority:R.Request.Low ~prog:(incr_prog ~slow:true) ~rng:(Sim.Rng.split gen_rng)
      ~submitted_at
  in
  let conservation () =
    let sum = ref 0 in
    Storage.Table.iter table (fun tuple ->
        match Storage.Tuple.read_committed tuple with
        | Some row -> sum := !sum + Storage.Value.int_exn row 1
        | None -> ());
    let commits = (Storage.Engine.stats a.R.Runner.eng).Storage.Engine.commits in
    if !sum <> commits then
      [
        Violation.make "lost-update" "counter sum %d <> %d committed increments" !sum commits;
      ]
    else []
  in
  (lp_gen, hp_gen, conservation)

(* --- the instrumented run ---------------------------------------------- *)

(* Checker reclamation cadence: far faster than production so that, within
   the microscopic exploration horizons, epochs turn over and GC chunks run
   (and get preempted) many times. *)
let check_reclaim_policy =
  {
    R.Config.rc_chunk_tuples = 160;
    rc_epoch_interval_us = 20.;
    rc_gc_interval_us = 50.;
    rc_chunks_per_tick = 4;
    rc_non_preemptible = false;
  }

let run ?fault ?plan ?(reclaim = false) ?(workload = Tpcc) (s : Schedule.t) =
  (* The exploration load saturates the high-priority stream on purpose;
     at threshold 1.0 the regular context then never defers to the lp
     queue, so background GC chunks would starve and there would be
     nothing for the reclaim oracle to check.  Reclaim runs use the
     paper's own anti-starvation knob (a threshold below 1) to guarantee
     the lp level a slice. *)
  let policy = if reclaim then R.Config.Preempt 0.9 else R.Config.Preempt 1.0 in
  let cfg =
    {
      (R.Config.default ~policy ~n_workers:s.Schedule.workers ()) with
      R.Config.seed = s.Schedule.seed;
    }
  in
  (* A faulty run arms the full resilience stack: the oracles then also
     exercise watchdog re-sends, degradation and shedding accounting. *)
  let cfg = match plan with Some _ -> R.Config.with_resilience cfg | None -> cfg in
  let cfg =
    if reclaim then R.Config.with_reclaim ~reclaim:check_reclaim_policy cfg else cfg
  in
  let a = R.Runner.assemble cfg in
  (match a.R.Runner.maint with
  | Some r -> Maint.Reclaimer.set_audit r true
  | None -> ());
  (match plan with Some p -> Faults.Injector.install p a | None -> ());
  let clock = Sim.Des.clock a.R.Runner.des in
  (* recorder: DES event stream *)
  let rec_ = Recorder.create () in
  Sim.Des.set_probe a.R.Runner.des
    (Some (fun ~time ~seq -> Recorder.on_des_event rec_ ~time ~seq));
  (* The forced-preemption counter and the footprint observers below are
     shared by every worker's steps: a path of latency 0, so workers step
     in lock-step and the probe counts micro-ops in their global order. *)
  Sim.Des.add_path a.R.Runner.des ~least_latency:0;
  (* delivery latency: schedule-controlled jitter, recorded *)
  let jrng = Sim.Rng.create (Int64.logxor s.Schedule.seed 0x6a09e667f3bcc908L) in
  Uintr.Fabric.set_latency_model a.R.Runner.fabric
    (Some
       (fun ~flow ~nominal ->
         let lat =
           if s.Schedule.jitter_pct <= 0 then nominal
           else
             let spread = max 1 (nominal * s.Schedule.jitter_pct / 100) in
             nominal + Sim.Rng.int_in jrng (-spread) spread
         in
         let lat = max 0 lat in
         Recorder.on_delivery rec_ ~flow ~latency:lat;
         lat));
  (* forced preemption points at global micro-op boundaries *)
  let op_count = ref 0 in
  let forced_pred =
    match s.Schedule.forced with
    | None -> fun _ -> false
    | Some (Schedule.Every { period; phase }) ->
      if period <= 0 then fun _ -> false
      else fun n -> n mod period = ((phase mod period) + period) mod period
    | Some (Schedule.At l) ->
      let tbl = Hashtbl.create (max 1 (List.length l)) in
      List.iter (fun i -> Hashtbl.replace tbl i ()) l;
      fun n -> Hashtbl.mem tbl n
  in
  Array.iter
    (fun w ->
      R.Worker.set_op_probe w
        (Some
           (fun w _op ->
             let n = !op_count in
             op_count := n + 1;
             if forced_pred n then begin
               Recorder.on_forced rec_ n;
               Uintr.Receiver.post ~flow:(-2) (Uintr.Hw_thread.receiver (R.Worker.hw w))
             end)))
    a.R.Runner.workers;
  (* switch oracle + recorder tee *)
  let mon = Monitor.create () in
  Monitor.install mon ~regions_enabled:cfg.R.Config.regions_enabled
    ~tee:(fun r -> Recorder.on_switch rec_ r)
    a.R.Runner.workers;
  (* footprints + commit recording *)
  let fp = Footprint.create () in
  let fo = Footprint.observer fp in
  Storage.Engine.set_observer a.R.Runner.eng
    (Some
       {
         fo with
         Storage.Engine.obs_commit =
           (fun ~txn ~commit_ts ->
             Recorder.on_commit rec_ ~id:txn.Storage.Txn.id ~commit_ts;
             fo.Storage.Engine.obs_commit ~txn ~commit_ts);
       });
  (match fault with Some f -> Storage.Engine.inject_fault a.R.Runner.eng (Some f) | None -> ());
  (* workload *)
  let lp_gen, hp_gen, extra_oracle =
    match workload with
    | Tpcc -> setup_tpcc a s
    | Selftest -> setup_selftest a s
  in
  let arrival_interval = Sim.Clock.cycles_of_us clock s.Schedule.arrival_us in
  let sched =
    R.Sched_thread.create ~des:a.R.Runner.des ~cfg ~fabric:a.R.Runner.fabric
      ~metrics:a.R.Runner.metrics ~workers:a.R.Runner.workers ~lp_gen
      ?epoch:(Option.map Maint.Reclaimer.epoch a.R.Runner.maint)
      ~lanes:(R.Runner.lanes a cfg) ~hp_gen ~arrival_interval ()
  in
  let horizon = Sim.Clock.cycles_of_us clock s.Schedule.horizon_us in
  (* an armed engine fault can make the run raise: the run up to the
     raise is still a failing schedule, with its trace and counters *)
  let outcome = try Ok (R.Runner.finish a cfg sched ~horizon) with e -> Error e in
  (* tear down instrumentation before evaluating oracles *)
  Sim.Des.set_probe a.R.Runner.des None;
  Uintr.Fabric.set_latency_model a.R.Runner.fabric None;
  Uintr.Fabric.set_delivery_model a.R.Runner.fabric None;
  Array.iter
    (fun w ->
      R.Worker.set_op_probe w None;
      R.Worker.set_region_stall w None)
    a.R.Runner.workers;
  Monitor.uninstall a.R.Runner.workers;
  Storage.Engine.set_observer a.R.Runner.eng None;
  Storage.Engine.inject_fault a.R.Runner.eng None;
  (* oracles: a raised run skips those that need a finished run *)
  let violations =
    match outcome with
    | Error e ->
      Monitor.violations mon @ [ Violation.make "exception" "%s" (Printexc.to_string e) ]
    | Ok result ->
      let committed = Footprint.committed fp in
      Monitor.violations mon
      @ Oracle.serializability committed
      @ Oracle.snapshot_consistency committed
      @ Oracle.version_chains a.R.Runner.eng
      @ Oracle.request_conservation result
      @ (match a.R.Runner.maint with
        | Some r -> Oracle.reclaim_safety (Maint.Reclaimer.audits r)
        | None -> [])
      @ extra_oracle ()
  in
  (* the counters come from the assembly, finished or raised *)
  let stats = Storage.Engine.stats a.R.Runner.eng in
  let workers f = Array.fold_left (fun n w -> n + f (R.Worker.stats w)) 0 a.R.Runner.workers in
  {
    schedule = s;
    workload;
    fault;
    plan;
    reclaim;
    versions_reclaimed =
      (match a.R.Runner.maint with Some r -> Maint.Reclaimer.versions_reclaimed r | None -> 0);
    violations;
    trace_hash = Recorder.hash rec_;
    hash_hex = Recorder.hash_hex rec_;
    ops = !op_count;
    forced_fired = Recorder.forced rec_;
    commits = stats.Storage.Engine.commits;
    aborts = Storage.Engine.total_aborts stats;
    switches = Monitor.switches mon;
    passive_switches = Monitor.passive mon;
    uintr_recognized = workers (fun s -> s.R.Worker.uintr_recognized);
    des_events = Recorder.des_events rec_;
    uintr_lost = Uintr.Fabric.lost a.R.Runner.fabric;
    uintr_duplicated = Uintr.Fabric.duplicated a.R.Runner.fabric;
    shed = R.Sched_thread.shed sched;
    watchdog_resends = R.Sched_thread.watchdog_resends sched;
    watchdog_giveups = R.Sched_thread.watchdog_giveups sched;
    degrade_enters = R.Sched_thread.degrade_enters sched;
    degrade_exits = R.Sched_thread.degrade_exits sched;
    exhausted = workers (fun s -> s.R.Worker.exhausted);
    decisions = Recorder.sample rec_;
  }

(* --- reports ----------------------------------------------------------- *)

let report_json (r : run) =
  let cap_forced = 1000 in
  let forced = List.filteri (fun i _ -> i < cap_forced) r.forced_fired in
  J.Obj
    [
      ("schedule", Schedule.to_json r.schedule);
      ("workload", J.String (workload_to_string r.workload));
      ( "fault",
        match r.fault with
        | Some Storage.Engine.Skip_write_lock -> J.String "skip_write_lock"
        | None -> J.Null );
      ("plan", match r.plan with Some p -> Faults.Plan.to_json p | None -> J.Null);
      ("reclaim", J.Bool r.reclaim);
      ("versions_reclaimed", J.Int r.versions_reclaimed);
      ("trace_hash", J.String r.hash_hex);
      ("ops", J.Int r.ops);
      ("commits", J.Int r.commits);
      ("aborts", J.Int r.aborts);
      ("switches", J.Int r.switches);
      ("passive_switches", J.Int r.passive_switches);
      ("uintr_recognized", J.Int r.uintr_recognized);
      ("des_events", J.Int r.des_events);
      ("uintr_lost", J.Int r.uintr_lost);
      ("uintr_duplicated", J.Int r.uintr_duplicated);
      ("shed", J.Int r.shed);
      ("watchdog_resends", J.Int r.watchdog_resends);
      ("watchdog_giveups", J.Int r.watchdog_giveups);
      ("degrade_enters", J.Int r.degrade_enters);
      ("degrade_exits", J.Int r.degrade_exits);
      ("exhausted", J.Int r.exhausted);
      ("forced_fired_count", J.Int (List.length r.forced_fired));
      ("forced_fired", J.List (List.map (fun i -> J.Int i) forced));
      ("violations", J.List (List.map Violation.to_json r.violations));
      ("decisions", J.List (List.map (fun s -> J.String s) r.decisions));
    ]

let of_report_json j =
  let ( let* ) r f = Result.bind r f in
  let* schedule =
    match J.member "schedule" j with
    | Some s -> Schedule.of_json s
    | None -> Error "report: missing schedule"
  in
  let* w =
    match Option.bind (J.member "workload" j) J.to_string_opt with
    | Some s -> (
      match workload_of_string s with
      | Some w -> Ok w
      | None -> Error (Printf.sprintf "report: unknown workload %S" s))
    | None -> Error "report: missing workload"
  in
  let* h =
    match Option.bind (J.member "trace_hash" j) J.to_string_opt with
    | Some h -> Ok h
    | None -> Error "report: missing trace_hash"
  in
  let* fault =
    match J.member "fault" j with
    | None | Some J.Null -> Ok None
    | Some (J.String "skip_write_lock") -> Ok (Some Storage.Engine.Skip_write_lock)
    | Some _ -> Error "report: unknown fault"
  in
  let* plan =
    match J.member "plan" j with
    | None | Some J.Null -> Ok None
    | Some p -> Result.map Option.some (Faults.Plan.of_json p)
  in
  (* absent in reports predating the reclamation subsystem *)
  let reclaim =
    match J.member "reclaim" j with Some (J.Bool b) -> b | _ -> false
  in
  Ok (schedule, w, fault, plan, reclaim, h)

let replay r =
  let again = run ?fault:r.fault ?plan:r.plan ~reclaim:r.reclaim ~workload:r.workload r.schedule in
  if Int64.equal again.trace_hash r.trace_hash then Ok ()
  else
    Error
      (Printf.sprintf "trace hash diverged: recorded %s, replayed %s (%d vs %d DES events)"
         r.hash_hex again.hash_hex r.des_events again.des_events)
