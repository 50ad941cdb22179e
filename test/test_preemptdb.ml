(* Tests for the scheduling core: queues, costs, metrics, the deadlock
   detection path of Program.commit, and end-to-end integration runs that
   assert the paper's qualitative results on scaled-down configurations. *)

module BQ = Preemptdb.Bounded_queue
module Op_costs = Preemptdb.Op_costs
module Config = Preemptdb.Config
module Request = Preemptdb.Request
module Metrics = Preemptdb.Metrics
module Runner = Preemptdb.Runner
module P = Workload.Program
module Engine = Storage.Engine
module Txn = Storage.Txn
module Err = Storage.Err
module Value = Storage.Value
module Tuple = Storage.Tuple

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* -- Bounded queue ---------------------------------------------------------- *)

let test_bq_fifo () =
  let q = BQ.create ~capacity:3 in
  checkb "push a" true (BQ.push q "a");
  checkb "push b" true (BQ.push q "b");
  checkb "push c" true (BQ.push q "c");
  checki "full" 0 (BQ.free_slots q);
  checkb "push rejected" false (BQ.push q "d");
  Alcotest.(check (option string)) "pop a" (Some "a") (BQ.pop q);
  checkb "push after pop" true (BQ.push q "e");
  Alcotest.(check (list string)) "order"
    [ "b"; "c"; "e" ]
    (List.init 3 (fun _ -> Option.get (BQ.pop q)));
  Alcotest.(check (option string)) "empty pop" None (BQ.pop q)

let test_bq_wraparound () =
  let q = BQ.create ~capacity:2 in
  for i = 0 to 99 do
    checkb "push" true (BQ.push q i);
    Alcotest.(check (option int)) "pop" (Some i) (BQ.pop q)
  done;
  checki "free slots" 2 (BQ.free_slots q);
  checkb "capacity check" true
    (match BQ.create ~capacity:0 with _ -> false | exception Invalid_argument _ -> true)

let test_bq_clear () =
  let q = BQ.create ~capacity:4 in
  ignore (BQ.push q 1);
  ignore (BQ.push q 2);
  BQ.clear q;
  checkb "empty" true (BQ.is_empty q);
  checki "length" 0 (BQ.length q)

(* Drive the queue across every full/empty boundary many times so the ring
   indices wrap repeatedly, asserting the state predicates (is_empty,
   length, free_slots) at each transition, and that a clear
   taken mid-wrap leaves a fully usable queue. *)
let test_bq_transitions () =
  let q = BQ.create ~capacity:3 in
  let next = ref 0 in
  let expect_state ~len msg =
    checki (msg ^ ": length") len (BQ.length q);
    checki (msg ^ ": free slots") (3 - len) (BQ.free_slots q);
    checkb (msg ^ ": is_empty") (len = 0) (BQ.is_empty q)
  in
  for round = 1 to 25 do
    expect_state ~len:0 "round start";
    Alcotest.(check (option int)) "pop on empty" None (BQ.pop q);
    (* empty -> full *)
    let first = !next in
    for _ = 1 to 3 do
      incr next;
      checkb "push below capacity accepted" true (BQ.push q !next)
    done;
    expect_state ~len:3 "after fill";
    checkb "push at capacity rejected" false (BQ.push q (-1));
    expect_state ~len:3 "rejected push is a no-op";
    (* partial drain + refill crosses the wrap point on most rounds *)
    Alcotest.(check (option int)) "pop oldest" (Some (first + 1)) (BQ.pop q);
    expect_state ~len:2 "after partial drain";
    incr next;
    checkb "refill after drain" true (BQ.push q !next);
    expect_state ~len:3 "after refill";
    (* full -> empty, FIFO order preserved across the wrap *)
    for k = 2 to 4 do
      Alcotest.(check (option int)) "drain in order" (Some (first + k)) (BQ.pop q)
    done;
    expect_state ~len:0 "after drain";
    if round = 13 then begin
      (* clear taken mid-wrap (head is at an interior index by now) *)
      ignore (BQ.push q 999);
      BQ.clear q;
      expect_state ~len:0 "after clear"
    end
  done;
  checki "capacity unchanged" 3 (BQ.capacity q)

let prop_bq_matches_queue =
  QCheck2.Test.make ~name:"bounded queue agrees with Queue oracle" ~count:200
    QCheck2.Gen.(pair (int_range 1 8) (list_size (int_range 1 200) (int_bound 2)))
    (fun (cap, ops) ->
      let q = BQ.create ~capacity:cap in
      let oracle = Queue.create () in
      let counter = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | 0 ->
            incr counter;
            let accepted = BQ.push q !counter in
            let oracle_accepts = Queue.length oracle < cap in
            if oracle_accepts then Queue.push !counter oracle;
            accepted = oracle_accepts
          | 1 -> BQ.pop q = (if Queue.is_empty oracle then None else Some (Queue.pop oracle))
          | _ -> BQ.length q = Queue.length oracle)
        ops)

(* -- Op costs ----------------------------------------------------------------- *)

let test_op_costs () =
  let c = Op_costs.default in
  checki "compute passthrough" 1234 (Op_costs.cycles c (P.Compute 1234));
  checki "spin passthrough" 99 (Op_costs.cycles c (P.Spin 99));
  checki "yield hint free" 0 (Op_costs.cycles c P.Yield_hint);
  checki "install scales with writes"
    (c.Op_costs.commit_install_base + (5 * c.Op_costs.commit_install_per_write))
    (Op_costs.cycles c (P.Commit_install 5));
  checkb "record read positive" true (Op_costs.cycles c P.Record_read > 0)

(* -- Request ------------------------------------------------------------------- *)

let test_request_latencies () =
  let req =
    Request.make ~id:1 ~label:"x" ~priority:Request.High
      ~prog:(fun _ -> P.Committed 0L)
      ~rng:(Sim.Rng.create 1L) ~submitted_at:100L
  in
  Alcotest.(check (option int64)) "no sched latency yet" None (Request.scheduling_latency req);
  req.Request.started_at <- Some 150L;
  req.Request.finished_at <- Some 400L;
  req.Request.outcome <- Some (P.Committed 1L);
  Alcotest.(check (option int64)) "sched latency" (Some 50L) (Request.scheduling_latency req);
  Alcotest.(check (option int64)) "e2e latency" (Some 300L) (Request.end_to_end_latency req);
  checkb "committed" true (Request.committed req)

(* -- Metrics ---------------------------------------------------------------------- *)

let finished_request ~label ~submitted ~started ~finished ~ok i =
  let req =
    Request.make ~id:i ~label ~priority:Request.High
      ~prog:(fun _ -> P.Committed 0L)
      ~rng:(Sim.Rng.create 1L) ~submitted_at:submitted
  in
  req.Request.started_at <- Some started;
  req.Request.finished_at <- Some finished;
  req.Request.outcome <- Some (if ok then P.Committed 1L else P.Aborted Err.User_abort);
  req

let test_metrics () =
  let m = Metrics.create () in
  for i = 1 to 100 do
    Metrics.record_finish m
      (finished_request ~label:"A" ~submitted:0L ~started:(Int64.of_int i)
          ~finished:(Int64.of_int (i * 10)) ~ok:true i)
  done;
  Metrics.record_finish m
    (finished_request ~label:"A" ~submitted:0L ~started:1L ~finished:10L ~ok:false 0);
  Metrics.record_drop m;
  checki "committed" 100 (Metrics.committed m "A");
  checki "drops" 1 (Metrics.drops m);
  (match Metrics.find m "A" with
  | Some cs ->
    checki "aborted" 1 cs.Metrics.aborted;
    checki "e2e samples exclude aborts" 100 (Sim.Histogram.count cs.Metrics.end_to_end);
    checki "sched samples include aborts" 101 (Sim.Histogram.count cs.Metrics.scheduling)
  | None -> Alcotest.fail "class missing");
  let clock = Sim.Clock.default in
  (match Metrics.latency_us m "A" ~pct:50. ~clock with
  | Some v -> checkb "p50 plausible" true (v > 0.)
  | None -> Alcotest.fail "expected latency");
  checkb "geomean present" true (Metrics.geomean_latency_us m "A" ~clock <> None);
  checkb "unknown class" true (Metrics.latency_us m "zzz" ~pct:50. ~clock = None);
  checkb "throughput positive" true
    (Metrics.throughput_ktps m "A" ~horizon:2_400_000L ~clock > 0.)

(* -- Config --------------------------------------------------------------------------- *)

let test_config () =
  let cfg = Config.default () in
  checki "16 workers" 16 cfg.Config.n_workers;
  checki "hp queue 4" 4 cfg.Config.hp_queue_size;
  checki "lp queue 1" 1 cfg.Config.lp_queue_size;
  checkb "regions on" true cfg.Config.regions_enabled;
  Alcotest.(check string) "policy name" "PreemptDB(Lmax=0.75)"
    (Config.policy_to_string (Config.Preempt 0.75));
  Alcotest.(check string) "coop name" "Cooperative(100)"
    (Config.policy_to_string (Config.Cooperative 100))

(* -- Program.commit same-thread deadlock detection (§4.4) ---------------------------- *)

let test_program_commit_detects_same_thread_deadlock () =
  let eng = Engine.create () in
  let table = Engine.create_table eng "t" in
  (* seed *)
  let seeder = Engine.begin_txn eng ~worker:9 ~ctx:0 in
  let tuple = Engine.insert eng seeder table (Value.of_fields [| Value.Int 1 |]) in
  (match Engine.commit eng seeder with Ok _ -> () | Error _ -> Alcotest.fail "seed");
  let oid = tuple.Tuple.oid in
  (* A: paused mid-commit on worker 0 context 0, holding its read latch *)
  let a = Engine.begin_txn ~iso:Txn.Serializable eng ~worker:0 ~ctx:0 in
  ignore (Engine.read eng a table ~oid);
  Engine.commit_begin eng a;
  (match Engine.commit_latch_next eng a with
  | `Acquired -> ()
  | `Busy _ | `Done -> Alcotest.fail "a latches");
  (* B: a program on worker 0 context 1 also reads that record (so its
     serializable certification must latch it) and writes elsewhere *)
  let env =
    { P.eng; worker = 0; ctx = 1; cls = Uintr.Cls.create_area (); rng = Sim.Rng.create 1L }
  in
  let prog env =
    P.run_txn env ~iso:Txn.Serializable
      ~writes:(Txn.declare ~tables:[ table ] ())
      (fun txn ->
        ignore (P.read env txn table ~oid);
        ignore (P.insert env txn table (Value.of_fields [| Value.Int 2 |])))
  in
  let rec go = function
    | P.Finished outcome -> outcome
    | P.Pending (_, k) -> go (P.resume k)
  in
  (match go (P.start prog env) with
  | P.Aborted Err.Latch_deadlock -> ()
  | P.Aborted r -> Alcotest.failf "wrong reason: %s" (Err.abort_reason_to_string r)
  | P.Committed _ -> Alcotest.fail "must deadlock-abort");
  checki "deadlock abort counted" 1 (Engine.stats eng).Engine.aborts_deadlock;
  (* A can still finish *)
  (match Engine.commit_validate eng a with Ok () -> () | Error _ -> Alcotest.fail "a valid");
  ignore (Engine.commit_install eng a)

(* -- Worker mechanics with stub programs ----------------------------------------------- *)

module Worker = Preemptdb.Worker
module Sched = Preemptdb.Sched_thread

(* A pure-compute program of [n] 1000-cycle slices. *)
let stub_prog n : P.t =
 fun _env ->
  for _ = 1 to n do
    P.compute 1000
  done;
  P.Committed 0L

let stub_request ~id ~label ~priority ~slices ~submitted_at =
  Request.make ~id ~label ~priority ~prog:(stub_prog slices) ~rng:(Sim.Rng.create 1L)
    ~submitted_at

let mk_rig policy =
  let cfg = { (Config.default ~policy ~n_workers:1 ()) with Config.hp_queue_size = 8 } in
  let des = Sim.Des.create () in
  let eng = Engine.create () in
  let fabric = Uintr.Fabric.create des ~costs:cfg.Config.uintr_costs in
  let metrics = Preemptdb.Metrics.create () in
  let worker = Worker.create ~des ~cfg ~fabric ~metrics ~eng ~id:0 () in
  des, fabric, metrics, worker

let test_worker_preempts_stub_lp () =
  let des, fabric, metrics, w = mk_rig (Config.Preempt 1.0) in
  (* one long lp transaction: 2000 slices = 2M cycles ~ 833us *)
  let lp = stub_request ~id:1 ~label:"long" ~priority:Request.Low ~slices:2000 ~submitted_at:0L in
  checkb "lp enqueued" true (Worker.enqueue_lp w lp);
  Worker.wake w;
  (* at t=100us, a short hp transaction arrives with a uintr *)
  Sim.Des.schedule_at des ~time:240_000L (fun _ ->
      let hp =
        stub_request ~id:2 ~label:"short" ~priority:Request.High ~slices:10
          ~submitted_at:240_000L
      in
      ignore (Worker.enqueue_hp w hp);
      Uintr.Fabric.senduipi fabric (Worker.uitt_index w);
      Worker.wake w);
  Sim.Des.run des;
  (* both completed *)
  checki "lp committed" 1 (Preemptdb.Metrics.committed metrics "long");
  checki "hp committed" 1 (Preemptdb.Metrics.committed metrics "short");
  (* hp end-to-end = delivery + switch + 10 slices << lp remaining time *)
  (match Preemptdb.Metrics.latency_us metrics "short" ~pct:50. ~clock:Sim.Clock.default with
  | Some v -> checkb "hp served in ~10-20us, not after lp" true (v < 20.)
  | None -> Alcotest.fail "hp latency missing");
  let st = Worker.stats w in
  checki "exactly one passive switch" 1 st.Worker.passive_switches;
  checki "exactly one active switch back" 1 st.Worker.active_switches

let test_worker_wait_defers_stub_hp () =
  let des, _fabric, metrics, w = mk_rig Config.Wait in
  let lp = stub_request ~id:1 ~label:"long" ~priority:Request.Low ~slices:2000 ~submitted_at:0L in
  ignore (Worker.enqueue_lp w lp);
  Worker.wake w;
  Sim.Des.schedule_at des ~time:240_000L (fun _ ->
      let hp =
        stub_request ~id:2 ~label:"short" ~priority:Request.High ~slices:10
          ~submitted_at:240_000L
      in
      ignore (Worker.enqueue_hp w hp);
      Worker.wake w);
  Sim.Des.run des;
  (match Preemptdb.Metrics.latency_us metrics "short" ~pct:50. ~clock:Sim.Clock.default with
  | Some v -> checkb "hp waited for the lp remainder (>700us)" true (v > 700.)
  | None -> Alcotest.fail "hp latency missing");
  checki "no switches under Wait" 0 (Worker.stats w).Worker.passive_switches

let test_worker_starvation_accounting () =
  let des, fabric, _metrics, w = mk_rig (Config.Preempt 1.0) in
  let lp = stub_request ~id:1 ~label:"long" ~priority:Request.Low ~slices:4000 ~submitted_at:0L in
  ignore (Worker.enqueue_lp w lp);
  Worker.wake w;
  (* keep interrupting with hp work every 200us *)
  for i = 1 to 5 do
    Sim.Des.schedule_at des
      ~time:(Int64.of_int (i * 480_000))
      (fun _ ->
        let hp =
          stub_request ~id:(10 + i) ~label:"short" ~priority:Request.High ~slices:200
            ~submitted_at:(Int64.of_int (i * 480_000))
        in
        ignore (Worker.enqueue_hp w hp);
        Uintr.Fabric.senduipi fabric (Worker.uitt_index w);
        Worker.wake w)
  done;
  Sim.Des.run des;
  (* hp work consumed cycles while the lp ran: L must have been > 0 and < 1 *)
  let level = Worker.starvation_level w ~now:(Sim.Des.now_int des) in
  checkb "L in (0, 1)" true (level > 0. && level < 1.)

let test_worker_trace_timeline () =
  (* With an obs sink attached, the worker narrates the full preemption
     timeline as typed events, in timestamp order. *)
  let cfg = Config.default ~policy:(Config.Preempt 1.0) ~n_workers:1 () in
  let obs = Obs.Sink.create () in
  let des = Sim.Des.create () in
  let eng = Engine.create () in
  let fabric = Uintr.Fabric.create ~obs des ~costs:cfg.Config.uintr_costs in
  let metrics = Preemptdb.Metrics.create () in
  let w = Worker.create ~obs ~des ~cfg ~fabric ~metrics ~eng ~id:0 () in
  ignore (Worker.enqueue_lp w (stub_request ~id:1 ~label:"long" ~priority:Request.Low ~slices:500 ~submitted_at:0L));
  Worker.wake w;
  Sim.Des.schedule_at des ~time:120_000L (fun _ ->
      ignore
        (Worker.enqueue_hp w
            (stub_request ~id:2 ~label:"short" ~priority:Request.High ~slices:5
              ~submitted_at:120_000L));
      Uintr.Fabric.senduipi fabric (Worker.uitt_index w);
      Worker.wake w);
  Sim.Des.run des;
  let entries = Obs.Sink.dump obs in
  let has p = List.exists (fun (e : Obs.Sink.entry) -> p e.Obs.Sink.ev) entries in
  checkb "lp txn begin" true
    (has (function Obs.Event.Txn_begin { id = 1; label = "long"; _ } -> true | _ -> false));
  checkb "uintr sent with a flow id" true
    (has (function Obs.Event.Uintr_send { flow; _ } -> flow >= 0 | _ -> false));
  checkb "uintr recognized with the same flow" true
    (List.exists
       (fun (e : Obs.Sink.entry) ->
         match e.Obs.Sink.ev with
         | Obs.Event.Uintr_recognize { flow } ->
           has (function Obs.Event.Uintr_send { flow = f; _ } -> f = flow | _ -> false)
         | _ -> false)
       entries);
  checkb "passive switch to ctx1" true
    (has (function
      | Obs.Event.Passive_switch { from_ctx = 0; to_ctx = 1; _ } -> true
      | _ -> false));
  checkb "active switch back to ctx0" true
    (has (function
      | Obs.Event.Active_switch { from_ctx = 1; to_ctx = 0; retire = true; _ } -> true
      | _ -> false));
  checkb "hp txn committed on ctx1" true
    (List.exists
       (fun (e : Obs.Sink.entry) ->
         match e.Obs.Sink.ev with
         | Obs.Event.Txn_commit { id = 2; label = "short" } -> e.Obs.Sink.ctx = 1
         | _ -> false)
       entries);
  checkb "lp txn committed last" true
    (match List.rev entries with
    | last :: _ -> (
      match last.Obs.Sink.ev with
      | Obs.Event.Txn_commit { id = 1; _ } -> true
      | _ -> false)
    | [] -> false);
  (* timestamps are monotone after the stable sort *)
  let rec mono = function
    | (a : Obs.Sink.entry) :: (b :: _ as rest) ->
      Int64.compare a.Obs.Sink.time b.Obs.Sink.time <= 0 && mono rest
    | _ -> true
  in
  checkb "dump is time-ordered" true (mono entries)

(* -- Retry budget + backoff (overload resilience) ----------------------------- *)

let test_worker_retry_budget_exhausted () =
  let cfg =
    {
      (Config.default ~policy:(Config.Preempt 1.0) ~n_workers:1 ()) with
      Config.retry_max_attempts = 2;
    }
  in
  let obs = Obs.Sink.create () in
  let des = Sim.Des.create () in
  let eng = Engine.create () in
  let fabric = Uintr.Fabric.create des ~costs:cfg.Config.uintr_costs in
  let metrics = Preemptdb.Metrics.create () in
  let w = Worker.create ~obs ~des ~cfg ~fabric ~metrics ~eng ~id:0 () in
  (* a program that conflicts forever: the budget must end it *)
  let doomed : P.t =
   fun _env ->
    P.compute 500;
    P.Aborted Err.Write_conflict
  in
  let req =
    Request.make ~id:1 ~label:"doomed" ~priority:Request.Low ~prog:doomed
      ~rng:(Sim.Rng.create 1L) ~submitted_at:0L
  in
  ignore (Worker.enqueue_lp w req);
  Worker.wake w;
  Sim.Des.run des;
  let st = Worker.stats w in
  (* a budget of 2 attempts = the first execution plus one retry *)
  checki "retried up to the budget" 1 st.Worker.retries;
  checki "then gave up" 1 st.Worker.exhausted;
  checki "metrics: exhausted" 1 (Preemptdb.Metrics.exhausted_total metrics);
  checki "metrics: counted as aborted too" 1 (Preemptdb.Metrics.aborted_total metrics);
  (match Preemptdb.Metrics.find metrics "doomed" with
  | Some cs -> checki "abort classified by reason" 1 cs.Preemptdb.Metrics.aborted_conflict
  | None -> Alcotest.fail "class missing");
  let entries = Obs.Sink.dump obs in
  checkb "terminal abort emitted as Txn_exhausted" true
    (List.exists
       (fun (e : Obs.Sink.entry) ->
         match e.Obs.Sink.ev with
         | Obs.Event.Txn_exhausted { id = 1; attempts = 2; _ } -> true
         | _ -> false)
       entries);
  checkb "no plain Txn_abort for the exhausted txn" true
    (not
       (List.exists
          (fun (e : Obs.Sink.entry) ->
            match e.Obs.Sink.ev with Obs.Event.Txn_abort { id = 1; _ } -> true | _ -> false)
          entries))

(* Worker state that every worker's steps share declares a path of
   latency 0, so the run keeps lock-step: an event sink, which numbers its
   records in host order, and a region-stall hook, which draws a shared
   RNG inside steps.  A bare worker declares nothing. *)
let test_worker_zero_paths () =
  let des, _, _, w = mk_rig (Config.Preempt 1.0) in
  checki "a bare worker declares nothing" max_int (Sim.Des.lookahead_floor des);
  Worker.set_region_stall w None;
  checki "clearing a stall declares nothing" max_int (Sim.Des.lookahead_floor des);
  Worker.set_region_stall w (Some (fun () -> 0));
  checki "a region stall declares 0" 0 (Sim.Des.lookahead_floor des);
  let cfg = Config.default ~policy:(Config.Preempt 1.0) ~n_workers:1 () in
  let des = Sim.Des.create () in
  let fabric = Uintr.Fabric.create des ~costs:cfg.Config.uintr_costs in
  ignore
    (Worker.create ~obs:(Obs.Sink.create ()) ~des ~cfg ~fabric
       ~metrics:(Preemptdb.Metrics.create ()) ~eng:(Engine.create ()) ~id:0 ());
  checki "an event sink declares 0" 0 (Sim.Des.lookahead_floor des)

let test_worker_user_abort_is_not_retried () =
  let cfg = Config.default ~policy:(Config.Preempt 1.0) ~n_workers:1 () in
  let des = Sim.Des.create () in
  let eng = Engine.create () in
  let fabric = Uintr.Fabric.create des ~costs:cfg.Config.uintr_costs in
  let metrics = Preemptdb.Metrics.create () in
  let w = Worker.create ~des ~cfg ~fabric ~metrics ~eng ~id:0 () in
  let aborting : P.t =
   fun _env ->
    P.compute 100;
    P.Aborted Err.User_abort
  in
  let req =
    Request.make ~id:1 ~label:"user" ~priority:Request.Low ~prog:aborting
      ~rng:(Sim.Rng.create 1L) ~submitted_at:0L
  in
  ignore (Worker.enqueue_lp w req);
  Worker.wake w;
  Sim.Des.run des;
  let st = Worker.stats w in
  checki "no retries for a user abort" 0 st.Worker.retries;
  checki "not an exhaustion" 0 st.Worker.exhausted;
  match Preemptdb.Metrics.find metrics "user" with
  | Some cs -> checki "classified as user abort" 1 cs.Preemptdb.Metrics.aborted_user
  | None -> Alcotest.fail "class missing"

(* -- Integration runs (scaled-down §6 experiments) ------------------------------------ *)

let small_tpch = { Workload.Tpch_schema.default with Workload.Tpch_schema.parts = 3000 }

let quick_mixed ?(seed = 42) ?(arrival = 250.) ?(horizon = 0.02) policy =
  let cfg =
    { (Config.default ~policy ~n_workers:2 ()) with Config.seed = Int64.of_int seed }
  in
  Runner.run_mixed ~cfg ~tpch_cfg:small_tpch ~arrival_interval_us:arrival
    ~horizon_sec:horizon ()

let p99 r label = Option.get (Runner.latency_us r label ~pct:99.)
let p50 r label = Option.get (Runner.latency_us r label ~pct:50.)

let test_integration_preempt_beats_wait () =
  let preempt = quick_mixed (Config.Preempt 1.0) in
  let wait = quick_mixed Config.Wait in
  (* the headline result: order-of-magnitude lower hp latency *)
  checkb "NewOrder p99 at least 5x better under preemption" true
    (p99 wait "NewOrder" > 5. *. p99 preempt "NewOrder");
  checkb "NewOrder p50 better too" true (p50 wait "NewOrder" > 2. *. p50 preempt "NewOrder");
  (* without hurting the long transactions *)
  checkb "Q2 latency within 1.5x" true
    (p50 preempt "Q2" < 1.5 *. p50 wait "Q2" && p50 wait "Q2" < 1.5 *. p50 preempt "Q2");
  (* and without losing throughput *)
  let tput r = Runner.throughput_ktps r "NewOrder" +. Runner.throughput_ktps r "Payment" in
  checkb "hp throughput preserved" true (tput preempt >= 0.9 *. tput wait);
  (* mechanism sanity *)
  checkb "uintrs sent" true (preempt.Runner.uintr_sends > 0);
  checkb "passive switches happened" true (preempt.Runner.workers.Runner.passive_switches > 0);
  checkb "active switches happened" true (preempt.Runner.workers.Runner.active_switches > 0);
  checki "no uintr under Wait" 0 wait.Runner.uintr_sends

let test_integration_cooperative_between () =
  let coop = quick_mixed (Config.Cooperative 2000) in
  let preempt = quick_mixed (Config.Preempt 1.0) in
  let wait = quick_mixed Config.Wait in
  checkb "coop yields taken" true (coop.Runner.workers.Runner.coop_yields_taken > 0);
  checkb "coop better than wait at p99" true (p99 coop "NewOrder" < p99 wait "NewOrder");
  checkb "preempt better than coop at p99" true (p99 preempt "NewOrder" < p99 coop "NewOrder")

let test_integration_yield_interval_tradeoff () =
  let fine = quick_mixed (Config.Cooperative 10) in
  let coarse = quick_mixed (Config.Cooperative 100_000) in
  checkb "finer yields give lower hp latency" true
    (p99 fine "NewOrder" < p99 coarse "NewOrder");
  (* frequent yields cost the low-priority transactions *)
  checkb "finer yields slow Q2" true (p50 fine "Q2" > p50 coarse "Q2")

let test_integration_determinism () =
  let a = quick_mixed ~seed:7 (Config.Preempt 1.0) in
  let b = quick_mixed ~seed:7 (Config.Preempt 1.0) in
  checki "same commits" a.Runner.engine_stats.Engine.commits b.Runner.engine_stats.Engine.commits;
  checki "same events" a.Runner.events b.Runner.events;
  Alcotest.(check (float 0.)) "same p99" (p99 a "NewOrder") (p99 b "NewOrder")

let test_integration_empty_interrupt_overhead () =
  (* Fig 8: the uintr machinery as pure overhead on plain TPC-C. *)
  let base_cfg = Config.default ~policy:Config.Wait ~n_workers:2 () in
  let with_intr =
    {
      (Config.default ~policy:(Config.Preempt 1.0) ~n_workers:2 ()) with
      Config.empty_interrupts = true;
    }
  in
  let plain = Runner.run_tpcc ~cfg:base_cfg ~horizon_sec:0.02 () in
  let intr = Runner.run_tpcc ~cfg:with_intr ~horizon_sec:0.02 () in
  checkb "interrupts were delivered" true (intr.Runner.uintr_sends > 0);
  checkb "workers bounced back" true (intr.Runner.workers.Runner.passive_switches > 0);
  let t_plain = Runner.total_tpcc_ktps plain and t_intr = Runner.total_tpcc_ktps intr in
  checkb "throughput overhead under 5%" true (t_intr > 0.95 *. t_plain)

let test_integration_starvation_prevention () =
  (* Overload with high-priority work (Fig 12 shape): a low threshold
     protects Q2 throughput at the cost of hp latency. *)
  let run threshold =
    let cfg =
      {
        (Config.default ~policy:(Config.Preempt threshold) ~n_workers:2 ()) with
        Config.hp_queue_size = 50;
      }
    in
    Runner.run_mixed ~cfg ~tpch_cfg:small_tpch ~arrival_interval_us:1000.
      ~horizon_sec:0.02 ~hp_batch:400 ()
  in
  let starving = run 1.0 in
  let protected_ = run 0.25 in
  let q2 r = Runner.throughput_ktps r "Q2" in
  checkb "low threshold protects Q2 throughput" true (q2 protected_ > 1.2 *. q2 starving);
  checkb "scheduler skipped starved workers" true (protected_.Runner.skipped_starved > 0);
  checkb "hp latency pays for it" true (p99 protected_ "NewOrder" > p99 starving "NewOrder")

let test_integration_handcrafted_near_preempt () =
  let hc = quick_mixed (Config.Cooperative_handcrafted 200) in
  let preempt = quick_mixed (Config.Preempt 1.0) in
  let wait = quick_mixed Config.Wait in
  (* handcrafted sits close to preemption, far from Wait (Fig 11) *)
  checkb "handcrafted within 10x of preempt" true
    (p99 hc "NewOrder" < 10. *. p99 preempt "NewOrder");
  checkb "handcrafted much better than wait" true (p99 hc "NewOrder" < p99 wait "NewOrder" /. 3.)

(* The §4.4 ablation's ledger run: 8 workers, 30 ms. *)
let ledger_ablation ?prepare ~seed regions_enabled =
  let cfg =
    {
      (Config.default ~policy:(Config.Preempt 1.0) ~n_workers:8 ()) with
      Config.regions_enabled;
      seed;
    }
  in
  Runner.run_ledger ~cfg ?prepare ~horizon_sec:0.03 ()

let test_integration_regions_prevent_deadlock () =
  (* §4.4 end to end on the serializable ledger workload.  Whether a
     preemption lands inside some commit's latch phase is a matter of
     timing, so the ablation is run on three seeds and must deadlock on at
     least one of them; with regions, none may deadlock.  Which seeds
     deadlock is set by the tie rule (des.mli), not by lookahead: in
     lock-step, without regions, seed 42 gives 0 deadlocks (535 before
     the rule), seed 1 gives 97 (214) and seed 2 gives 128 (14), and the
     [lookahead] group checks that lookahead leaves seeds 42 and 1
     digest-identical. *)
  let run ~seed regions_enabled = ledger_ablation ~seed regions_enabled in
  let expected = Workload.Ledger.default.Workload.Ledger.accounts * 1000 in
  let deadlocks_off =
    List.fold_left
      (fun acc seed ->
        let with_regions, balance_on = run ~seed true in
        let without_regions, balance_off = run ~seed false in
        checki "no deadlocks with regions" 0
          with_regions.Runner.engine_stats.Engine.aborts_deadlock;
        checkb "in-commit preemptions rejected" true
          (with_regions.Runner.workers.Runner.drops_region > 0);
        (* money is conserved either way — deadlocks are broken by aborting *)
        checki "balance conserved (regions on)" expected balance_on;
        checki "balance conserved (regions off)" expected balance_off;
        acc + without_regions.Runner.engine_stats.Engine.aborts_deadlock)
      0 [ 42L; 1L; 2L ]
  in
  checkb "deadlocks appear without regions" true (deadlocks_off > 0)

let test_integration_multilevel_priorities () =
  (* §5 extension: a third context lets urgent lookups preempt in-progress
     high-priority transactions. *)
  let run levels =
    let cfg =
      {
        (Config.default ~policy:(Config.Preempt 1.0) ~n_workers:4 ()) with
        Config.n_priority_levels = levels;
      }
    in
    Runner.run_tiered ~cfg ~tpch_cfg:small_tpch ~horizon_sec:0.03 ()
  in
  let two = run 2 in
  let three = run 3 in
  let bc r = Option.get (Runner.latency_us r "BalanceCheck" ~pct:99.) in
  checkb "urgent p99 at least 5x better with a third context" true
    (bc two > 5. *. bc three);
  checkb "urgent p99 within tens of us" true (bc three < 50.);
  (* the other classes are not hurt *)
  let sl r = Option.get (Runner.latency_us r "StockLevel" ~pct:99.) in
  checkb "StockLevel p99 within 2x" true (sl three < 2. *. sl two +. 50.);
  checkb "urgent requests completed" true
    (Preemptdb.Metrics.committed three.Runner.metrics "BalanceCheck" > 100)

(* Every generated request must end in exactly one bucket — the same ledger
   lib/check's request-conservation oracle enforces on faulty runs. *)
let check_conservation (r : Runner.result) =
  let m = r.Runner.metrics in
  checki "request conservation"
    (r.Runner.generated_hp + r.Runner.generated_lp)
    (Preemptdb.Metrics.committed_total m
    + Preemptdb.Metrics.aborted_total m
    + Preemptdb.Metrics.shed_total m
    + r.Runner.backlog_left + r.Runner.queued_left + r.Runner.inflight_left)

let test_integration_wal_recovery_end_to_end () =
  (* Run a full preemptive mixed workload with durability on, then crash
     and recover: the replayed engine must hold exactly the durable
     state. *)
  let cfg =
    Config.with_durability (Config.default ~policy:(Config.Preempt 1.0) ~n_workers:2 ())
  in
  let parts = ref None in
  let prepare (a : Runner.assembly) = parts := a.Runner.dur in
  let r =
    Runner.run_mixed ~cfg ~tpch_cfg:small_tpch ~prepare ~arrival_interval_us:250.
      ~horizon_sec:0.01 ()
  in
  let d = Option.get !parts in
  let log = d.Runner.dur_log in
  checki "every commit got a marker" r.Runner.engine_stats.Engine.commits
    (Durability.Log.committed log);
  checkb "commit waits parked (preemptible path exercised)" true
    (r.Runner.workers.Runner.dur_parks > 0);
  (* drain + final flush = the clean-shutdown recovery case *)
  let _, upto, _, _ = Durability.Log.drain_all log in
  Durability.Log.set_durable log upto;
  let recovered = Durability.Recovery.recover log in
  checkb "recovered state equals crashed state" true
    (Durability.Recovery.durable_state_equal r.Runner.eng recovered);
  check_conservation r

let test_integration_shed_and_conservation () =
  (* Overload far past capacity with a tight staleness deadline: the
     scheduler must shed backlog work instead of dispatching it stale. *)
  let cfg =
    Config.with_resilience ~shed_deadline_us:300.
      {
        (Config.default ~policy:(Config.Preempt 1.0) ~n_workers:2 ()) with
        Config.hp_queue_size = 50;
      }
  in
  let r =
    Runner.run_mixed ~cfg ~tpch_cfg:small_tpch ~arrival_interval_us:1000.
      ~horizon_sec:0.02 ~hp_batch:400 ()
  in
  checkb "overload shed work" true (r.Runner.shed > 0);
  checki "metrics agree with the scheduler" r.Runner.shed
    (Preemptdb.Metrics.shed_total r.Runner.metrics);
  check_conservation r

let test_integration_backlog_cap_drops () =
  (* The admission cap: generation stops at the cap, drops are counted,
     and dropped arrivals never enter the conservation ledger. *)
  let cfg =
    {
      (Config.default ~policy:(Config.Preempt 1.0) ~n_workers:2 ()) with
      Config.hp_queue_size = 50;
      hp_backlog_cap = 64;
    }
  in
  let r =
    Runner.run_mixed ~cfg ~tpch_cfg:small_tpch ~arrival_interval_us:1000.
      ~horizon_sec:0.02 ~hp_batch:400 ()
  in
  checkb "admission drops at the cap" true (Preemptdb.Metrics.drops r.Runner.metrics > 0);
  checkb "backlog bounded by the cap" true (r.Runner.backlog_left <= 64);
  check_conservation r

let test_integration_resilience_defaults_off () =
  (* The resilience stack defaults off: a plain config takes none of the
     new paths, preserving historical behavior exactly. *)
  let r = quick_mixed (Config.Preempt 1.0) in
  checki "nothing shed" 0 r.Runner.shed;
  checki "no watchdog resends" 0 r.Runner.watchdog_resends;
  checki "no degradation" 0 r.Runner.degrade_enters;
  check_conservation r

let test_integration_zero_intervals_rejected () =
  (* A loop rescheduled after 0 cycles fires at the same instant forever,
     so every scheduler cadence must be at least one cycle. *)
  let cfg = Config.default ~n_workers:1 () in
  let des = Sim.Des.create () in
  let fabric = Uintr.Fabric.create des ~costs:cfg.Config.uintr_costs in
  let metrics = Metrics.create () in
  let create ?lp_interval ?urgent_interval arrival_interval () =
    ignore
      (Preemptdb.Sched_thread.create ~des ~cfg ~fabric ~metrics ~workers:[||] ?lp_interval
         ?urgent_interval ~arrival_interval ())
  in
  let rejects name f =
    Alcotest.check_raises name (Invalid_argument ("Sched_thread.create: " ^ name ^ " < 1")) f
  in
  rejects "arrival_interval" (create 0L);
  rejects "lp_interval" (create ~lp_interval:0L 100L);
  rejects "urgent_interval" (create ~urgent_interval:0L 100L);
  create ~lp_interval:1L ~urgent_interval:1L 1L ()

let test_integration_sched_latency_recorded () =
  let r = quick_mixed (Config.Preempt 1.0) in
  match Runner.sched_latency_us r "NewOrder" ~pct:50. with
  | Some v -> checkb "scheduling latency sub-50us under preemption" true (v < 50.)
  | None -> Alcotest.fail "scheduling latency missing"

(* -- Golden schedules ---------------------------------------------------------- *)

(* Each [run_*] driver at a small horizon, pinned to the exact schedule it
   produces: DES events processed, commits per class, and an FNV-1a hash
   of the (time, seq) event stream folded in through [?prepare] and
   [Sim.Des.set_probe].  Reordering a single event changes the hash, so a
   refactor of the drivers or of node assembly that keeps these values
   keeps every schedule bit-identical. *)

(* Lock-step is a declared path of latency 0. *)
let lock_step (a : Runner.assembly) = Sim.Des.add_path a.Runner.des ~least_latency:0

let schedule_hasher ~lookahead =
  let h = ref 0x811c9dc5 in
  let mix x = h := (!h lxor x) * 0x100000001b3 in
  let prepare (a : Runner.assembly) =
    if not lookahead then lock_step a;
    Sim.Des.set_probe a.Runner.des
      (Some
         (fun ~time ~seq ->
           mix (Int64.to_int time);
           mix seq))
  in
  (prepare, fun () -> Printf.sprintf "%x" !h)

let commits_per_class m =
  String.concat " "
    (List.map
       (fun (label, cs) -> Printf.sprintf "%s=%d" label cs.Preemptdb.Metrics.committed)
       (Preemptdb.Metrics.classes m))

(* [on] pins the event count and hash with lookahead (the default), [off]
   with every worker in lock-step; the commits and the virtual-schedule
   digest must be the same either way. *)
let check_golden ~lookahead ~on ~off ~commits ~digest run =
  let prepare, stream_hash = schedule_hasher ~lookahead in
  let r = run prepare in
  let events, hash = if lookahead then on else off in
  checki "DES events" events r.Runner.events;
  Alcotest.(check string) "commits per class" commits (commits_per_class r.Runner.metrics);
  Alcotest.(check string) "(time, seq) stream hash" hash (stream_hash ());
  Alcotest.(check string) "virtual-schedule digest" digest r.Runner.digest

let golden_cfg () = Config.default ~policy:(Config.Preempt 1.0) ~n_workers:2 ()

let golden_mixed ~lookahead =
  (* group commit with fuzzy checkpointing, and a decoupled lp cadence *)
  let cfg =
    Config.with_durability
      ~durability:{ Config.default_durability with Config.du_ckpt_interval_us = 500. }
      (golden_cfg ())
  in
  check_golden ~lookahead ~on:(5688, "3673758eee7eb35d") ~off:(23450, "48d3d18ad54f97aa")
    ~commits:"Ckpt=9 NewOrder=94 Payment=65 Q2=11" ~digest:"79e75e851db227cf" (fun prepare ->
      Runner.run_mixed ~cfg ~tpch_cfg:small_tpch ~prepare ~arrival_interval_us:250.
        ~lp_interval_us:500. ~horizon_sec:0.005 ())

let golden_tpcc ~lookahead =
  let cfg = { (golden_cfg ()) with Config.empty_interrupts = true } in
  check_golden ~lookahead ~on:(8294, "2b4c735719c53ff5") ~off:(21049, "70ceb0cd55a7bc0f")
    ~commits:"Delivery=18 NewOrder=164 OrderStatus=16 Payment=146 StockLevel=23" ~digest:"5bb6db02dca1f412" (fun prepare ->
      Runner.run_tpcc ~cfg ~prepare ~horizon_sec:0.005 ())

let golden_htap ~lookahead =
  check_golden ~lookahead ~on:(86108, "7081e75f51b3dd61") ~off:(118571, "6ccb57e183365ebf")
    ~commits:"CH-Q1=6 CH-Q4=5 CH-Q6=4 NewOrder=89 Payment=69" ~digest:"2160de73710423ee" (fun prepare ->
      Runner.run_htap ~cfg:(golden_cfg ()) ~prepare ~arrival_interval_us:250.
        ~horizon_sec:0.005 ())

let golden_tiered ~lookahead =
  let cfg = { (golden_cfg ()) with Config.n_priority_levels = 3 } in
  check_golden ~lookahead ~on:(25951, "9cb639cc0988ba") ~off:(118473, "491e6dd5210987eb")
    ~commits:"BalanceCheck=316 Q2=2 StockLevel=160" ~digest:"65cb9b7197a3ccba" (fun prepare ->
      Runner.run_tiered ~cfg ~tpch_cfg:small_tpch ~prepare ~arrival_interval_us:250.
        ~horizon_sec:0.005 ())

let golden_ledger ~lookahead =
  let balance = ref 0 in
  check_golden ~lookahead ~on:(33234, "33347b4a4a74f37c") ~off:(159143, "7edd455b18630753")
    ~commits:"Audit=9 Transfer=400" ~digest:"6fd7802a9973a24f" (fun prepare ->
      let r, b =
        Runner.run_ledger ~cfg:(golden_cfg ()) ~prepare ~arrival_interval_us:100.
          ~horizon_sec:0.005 ()
      in
      balance := b;
      r);
  checki "balance conserved" (Workload.Ledger.default.Workload.Ledger.accounts * 1000) !balance

let golden_maintenance ~lookahead =
  (* reclamation plus a semi-sync standby (which implies group commit) *)
  let cfg = golden_cfg () |> Config.with_reclaim |> Config.with_replication in
  check_golden ~lookahead ~on:(30485, "1516a223e4ea79e5") ~off:(50177, "6c269650e5151277")
    ~commits:"GC=48 NewOrder=502 Payment=492" ~digest:"33772eb33220ccc3" (fun prepare ->
      Runner.run_maintenance ~cfg ~prepare ~arrival_interval_us:40. ~hp_batch:8
        ~horizon_sec:0.005 ())

let golden_maintenance_lanes ~lookahead =
  (* both maintenance lanes at once: the epoch loop, GC chunks and
     checkpoint chunks first scheduled in that order *)
  let cfg =
    golden_cfg () |> Config.with_reclaim
    |> Config.with_durability
         ~durability:{ Config.default_durability with Config.du_ckpt_interval_us = 100. }
  in
  check_golden ~lookahead ~on:(34156, "5ed244e39d5e1d7b") ~off:(57494, "3a4ac540a7385d13")
    ~commits:"Ckpt=49 GC=42 NewOrder=503 Payment=492" ~digest:"1a33ba199ee53023" (fun prepare ->
      Runner.run_maintenance ~cfg ~prepare ~arrival_interval_us:40. ~hp_batch:8
        ~horizon_sec:0.005 ())

(* The three single-node perfdiff cells ([Baseline.collect]: 4 workers,
   seed 42, 40 ms) with lookahead on and off: the same virtual schedule
   from far fewer activations.  The mixed cells start no path from a step
   (no channel, no log device), so a commuting step stops only at the next
   event: under a tenth of the lock-step activations.  The durable cell's
   commits park on flushes, so its saving is the smaller. *)
let test_lookahead_perfdiff_cells () =
  let cell name ~saving run =
    let on = run ignore and off = run lock_step in
    Alcotest.(check string) (name ^ ": same digest") off.Runner.digest on.Runner.digest;
    checkb (name ^ ": lookahead cut the activations") true
      (float_of_int on.Runner.events < saving *. float_of_int off.Runner.events)
  in
  let cfg policy = { (Config.default ~policy ~n_workers:4 ()) with Config.seed = 42L } in
  let mixed policy prepare = Runner.run_mixed ~cfg:(cfg policy) ~prepare ~horizon_sec:0.04 () in
  cell "mixed_preempt" ~saving:0.1 (mixed (Config.Preempt 1.0));
  cell "mixed_wait" ~saving:0.1 (mixed Config.Wait);
  let dur_cfg =
    Config.with_durability ~durability:Config.default_durability (cfg (Config.Preempt 1.0))
  in
  cell "durability_preempt" ~saving:0.8 (fun prepare ->
      Runner.run_mixed ~cfg:dur_cfg ~prepare ~arrival_interval_us:40. ~horizon_sec:0.04 ())

(* A log device is the one path a step starts on a node without
   replication: a fast one (0.1 µs fsync floor, 240 cycles) sets the
   floor, lookahead still cuts activations, and the virtual schedule is
   the same with it on and off. *)
let test_lookahead_fast_device_floor () =
  let cfg =
    Config.with_durability
      ~durability:{ Config.default_durability with Config.du_fsync_floor_us = 0.1 }
      (golden_cfg ())
  in
  let run lookahead =
    let floor = ref (-1) in
    let r =
      Runner.run_mixed ~cfg ~tpch_cfg:small_tpch
        ~prepare:(fun a ->
          floor := Sim.Des.lookahead_floor a.Runner.des;
          if not lookahead then lock_step a)
        ~arrival_interval_us:250. ~horizon_sec:0.005 ()
    in
    (!floor, r)
  in
  let floor, on = run true and _, off = run false in
  checki "the floor is the device's" 240 floor;
  Alcotest.(check string) "same digest" off.Runner.digest on.Runner.digest;
  checkb "lookahead cut the activations" true (on.Runner.events < off.Runner.events)

(* The §4.4 ablation without regions (8 workers, where no step starts a
   path, so there is no floor and serializable reads run ahead to the
   next event) at seed 42, which does not deadlock, and seed 1, which
   does: the same digest, and so the same deadlocks, with lookahead on
   and off. *)
let test_lookahead_ledger_ablation () =
  List.iter
    (fun seed ->
      let run lookahead =
        fst (ledger_ablation ~seed false ?prepare:(if lookahead then None else Some lock_step))
      in
      let on = run true and off = run false in
      let deadlocks r = r.Runner.engine_stats.Engine.aborts_deadlock in
      Alcotest.(check string)
        (Printf.sprintf "seed %Ld: same digest" seed)
        off.Runner.digest on.Runner.digest;
      checki "same deadlocks" (deadlocks off) (deadlocks on);
      checkb "lookahead cut the activations" true (2 * on.Runner.events < off.Runner.events))
    [ 42L; 1L ]

let () =
  Alcotest.run "preemptdb"
    [
      ( "bounded_queue",
        [
          Alcotest.test_case "fifo" `Quick test_bq_fifo;
          Alcotest.test_case "wraparound" `Quick test_bq_wraparound;
          Alcotest.test_case "full/empty transitions" `Quick test_bq_transitions;
          Alcotest.test_case "clear" `Quick test_bq_clear;
          QCheck_alcotest.to_alcotest prop_bq_matches_queue;
        ] );
      ("op_costs", [ Alcotest.test_case "mapping" `Quick test_op_costs ]);
      ("request", [ Alcotest.test_case "latencies" `Quick test_request_latencies ]);
      ("metrics", [ Alcotest.test_case "recording" `Quick test_metrics ]);
      ("config", [ Alcotest.test_case "defaults and names" `Quick test_config ]);
      ( "deadlock",
        [
          Alcotest.test_case "same-thread latch deadlock detected (§4.4)" `Quick
            test_program_commit_detects_same_thread_deadlock;
        ] );
      ( "worker",
        [
          Alcotest.test_case "preempts a stub lp transaction" `Quick
            test_worker_preempts_stub_lp;
          Alcotest.test_case "Wait defers hp to the lp boundary" `Quick
            test_worker_wait_defers_stub_hp;
          Alcotest.test_case "starvation accounting" `Quick test_worker_starvation_accounting;
          Alcotest.test_case "trace timeline" `Quick test_worker_trace_timeline;
          Alcotest.test_case "retry budget exhausts to a terminal abort" `Quick
            test_worker_retry_budget_exhausted;
          Alcotest.test_case "user aborts are not retried" `Quick
            test_worker_user_abort_is_not_retried;
          Alcotest.test_case "shared state declares a zero path" `Quick test_worker_zero_paths;
        ] );
      ( "integration",
        [
          Alcotest.test_case "preempt beats wait (Fig 10 shape)" `Slow
            test_integration_preempt_beats_wait;
          Alcotest.test_case "cooperative in between" `Slow test_integration_cooperative_between;
          Alcotest.test_case "yield interval tradeoff (Fig 11 shape)" `Slow
            test_integration_yield_interval_tradeoff;
          Alcotest.test_case "deterministic replay" `Slow test_integration_determinism;
          Alcotest.test_case "empty-interrupt overhead (Fig 8 shape)" `Slow
            test_integration_empty_interrupt_overhead;
          Alcotest.test_case "starvation prevention (Fig 12 shape)" `Slow
            test_integration_starvation_prevention;
          Alcotest.test_case "handcrafted near preempt (Fig 11)" `Slow
            test_integration_handcrafted_near_preempt;
          Alcotest.test_case "regions prevent same-thread deadlocks (§4.4)" `Slow
            test_integration_regions_prevent_deadlock;
          Alcotest.test_case "multi-level priorities (§5 extension)" `Slow
            test_integration_multilevel_priorities;
          Alcotest.test_case "WAL recovery end to end" `Slow
            test_integration_wal_recovery_end_to_end;
          Alcotest.test_case "scheduling latency recorded" `Slow
            test_integration_sched_latency_recorded;
          Alcotest.test_case "deadline shedding under overload + conservation" `Slow
            test_integration_shed_and_conservation;
          Alcotest.test_case "hp backlog cap drops at admission" `Slow
            test_integration_backlog_cap_drops;
          Alcotest.test_case "resilience stack defaults off" `Slow
            test_integration_resilience_defaults_off;
          Alcotest.test_case "zero scheduler intervals rejected" `Quick
            test_integration_zero_intervals_rejected;
        ] );
      ( "golden",
        [
          Alcotest.test_case "run_mixed" `Quick (fun () -> golden_mixed ~lookahead:true);
          Alcotest.test_case "run_tpcc" `Quick (fun () -> golden_tpcc ~lookahead:true);
          Alcotest.test_case "run_htap" `Quick (fun () -> golden_htap ~lookahead:true);
          Alcotest.test_case "run_tiered" `Quick (fun () -> golden_tiered ~lookahead:true);
          Alcotest.test_case "run_ledger" `Quick (fun () -> golden_ledger ~lookahead:true);
          Alcotest.test_case "run_maintenance" `Quick (fun () -> golden_maintenance ~lookahead:true);
          Alcotest.test_case "run_maintenance gc+ckpt lanes" `Quick (fun () ->
              golden_maintenance_lanes ~lookahead:true);
        ] );
      ( "lookahead",
        [
          Alcotest.test_case "off: run_mixed" `Quick (fun () -> golden_mixed ~lookahead:false);
          Alcotest.test_case "off: run_tpcc" `Quick (fun () -> golden_tpcc ~lookahead:false);
          Alcotest.test_case "off: run_htap" `Quick (fun () -> golden_htap ~lookahead:false);
          Alcotest.test_case "off: run_tiered" `Quick (fun () -> golden_tiered ~lookahead:false);
          Alcotest.test_case "off: run_ledger" `Quick (fun () -> golden_ledger ~lookahead:false);
          Alcotest.test_case "off: run_maintenance" `Quick (fun () ->
              golden_maintenance ~lookahead:false);
          Alcotest.test_case "off: run_maintenance gc+ckpt lanes" `Quick (fun () ->
              golden_maintenance_lanes ~lookahead:false);
          Alcotest.test_case "on and off: perfdiff mixed cells" `Quick
            test_lookahead_perfdiff_cells;
          Alcotest.test_case "on and off: a fast device sets the floor" `Quick
            test_lookahead_fast_device_floor;
          Alcotest.test_case "on and off: ledger deadlock ablation" `Quick
            test_lookahead_ledger_ablation;
        ] );
    ]
