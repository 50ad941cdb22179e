module Config = Preemptdb.Config

type cell = {
  label : string;
  figures : string;
  violations : Violation.t list;
  schedule_run : Harness.run option;
}

type preset = {
  name : string;
  cells : (unit -> cell) Seq.t;
  bug : string;
  armed : (unit -> Violation.t list) list;
}

(* --- schedule presets ---------------------------------------------------- *)

let jitters = [| 0; 5; 10; 20; 50; 150 |]
let periods = [| 13; 47; 101; 397 |]

let derive (base : Schedule.t) rng =
  let seed = Sim.Rng.next_int64 rng in
  let jitter_pct = jitters.(Sim.Rng.int rng (Array.length jitters)) in
  let forced =
    match Sim.Rng.int rng 3 with
    | 0 -> None
    | 1 ->
      Some
        (Schedule.Every
           { period = periods.(Sim.Rng.int rng (Array.length periods)); phase = Sim.Rng.int rng 13 })
    | _ -> Some (Schedule.Every { period = 1 + Sim.Rng.int rng 1000; phase = 0 })
  in
  { base with Schedule.seed; jitter_pct; forced }

(* The base schedule, then [budget - 1] derived from it in one RNG stream. *)
let fuzz_schedules ~budget ~base =
  let rng = Sim.Rng.create (Int64.logxor base.Schedule.seed 0xbb67ae8584caa73bL) in
  List.init budget (fun i -> if i = 0 then base else derive base rng)

let schedule_cell (r : Harness.run) =
  {
    label = Schedule.describe r.Harness.schedule;
    figures =
      Printf.sprintf "commits=%d forced=%d hash=%s" r.Harness.commits
        (List.length r.Harness.forced_fired)
        r.Harness.hash_hex;
    violations = r.Harness.violations;
    schedule_run = Some r;
  }

(* The first cell runs twice, and fails unless the two reports are
   byte-identical: every replay and reproducer rests on it. *)
let twice run (first : Harness.run Lazy.t) () =
  let r = Lazy.force first in
  let again = run r.Harness.schedule and c = schedule_cell r in
  let report r = Obs.Json.to_string (Harness.report_json r) in
  if String.equal (report r) (report again) then { c with figures = c.figures ^ " rerun=identical" }
  else
    let v = Violation.make "determinism" "reports differ (hashes %s vs %s)" r.Harness.hash_hex in
    let violations = c.violations @ [ v again.Harness.hash_hex ] in
    { c with figures = c.figures ^ " rerun=DIFFERS"; violations }

(* [cells], then the contended-counter workload on the clean engine, which
   must pass; the armed bug skips first-updater-wins write locks on that
   workload, which must lose updates on one of the fuzz schedules. *)
let schedule_preset name ?plan ~budget ~base cells =
  let selftest () =
    let c = schedule_cell (Harness.run ~workload:Harness.Selftest base) in
    { c with label = "selftest " ^ c.label }
  in
  {
    name;
    cells = Seq.append cells (Seq.return selftest);
    bug = "lost-update";
    armed =
      List.map
        (fun s () ->
          (Harness.run ~fault:Storage.Engine.Skip_write_lock ?plan ~workload:Harness.Selftest s)
            .Harness.violations)
        (fuzz_schedules ~budget ~base);
  }

let fuzz ?fault ?plan ?reclaim ~budget ~base () =
  let run = Harness.run ?fault ?plan ?reclaim in
  schedule_preset "fuzz" ?plan ~budget ~base
    (Seq.mapi
       (fun i s -> if i = 0 then twice run (lazy (run s)) else fun () -> schedule_cell (run s))
       (List.to_seq (fuzz_schedules ~budget ~base)))

let exhaustive ?fault ?plan ?reclaim ~budget ~base () =
  let run = Harness.run ?fault ?plan ?reclaim in
  let pilot = lazy (run { base with Schedule.forced = None }) in
  (* unless the pilot failed, one forced preemption at each of up to
     [budget] points strided evenly over its micro-op boundaries *)
  let placements () =
    match Lazy.force pilot with
    | r when not (Harness.failed r) ->
      let ops = max 1 r.Harness.ops in
      let stride = max 1 ((ops + budget - 1) / budget) in
      Seq.init
        ((ops + stride - 1) / stride)
        (fun i () ->
          schedule_cell (run { base with Schedule.forced = Some (Schedule.At [ i * stride ]) }))
        ()
    | _ | (exception _) -> Seq.Nil
  in
  schedule_preset "exhaustive" ?plan ~budget ~base (Seq.cons (twice run pilot) placements)

(* --- crash presets ------------------------------------------------------- *)

let preempt workers = Config.default ~policy:(Config.Preempt 1.0) ~n_workers:workers ()

(* Crash instant [i] of [n], spread evenly from [from_us] over [span_us],
   each with its own fault-injector seed. *)
let point ~from_us ~span_us ~seed ~n i =
  (from_us +. (span_us *. float_of_int i /. float_of_int n), Int64.of_int (seed + (i * 7919)))

let durability ~budget ~seed ~workers =
  (* a slow device + fast arrivals keep an unflushed tail pending, so the
     crash points exercise real commit loss *)
  let cfg =
    Config.with_durability
      ~durability:
        {
          Config.default_durability with
          Config.du_group_interval_us = 200.;
          du_fsync_floor_us = 50.;
        }
      (preempt workers)
  in
  let run ?crash_seed ?early_ack crash_at_us =
    Crash.run ~cfg ~crash_at_us ?crash_seed ?early_ack ~arrival_interval_us:50.
      ~horizon_sec:0.01 ()
  in
  let cell i () =
    let crash_at_us, crash_seed = point ~from_us:2000. ~span_us:6000. ~seed ~n:budget i in
    let o = run ~crash_seed crash_at_us in
    {
      label = Printf.sprintf "crash@%.0fus seed=%Ld" crash_at_us crash_seed;
      figures =
        Printf.sprintf "durable=%d lost=%d acked=%d violations=%d" o.Crash.co_durable_commits
          o.Crash.co_lost_commits o.Crash.co_acked
          (List.length o.Crash.co_violations);
      violations = o.Crash.co_violations;
      schedule_run = None;
    }
  in
  {
    name = "durability";
    cells = Seq.init budget cell;
    bug = "early-ack";
    armed = [ (fun () -> (run ~early_ack:true 5000.).Crash.co_violations) ];
  }

let failover ~budget ~seed ~workers =
  (* grid = crash time x mode; every cell runs the acked-commit-survival
     oracle, and semi-sync cells additionally demand RPO = 0 *)
  let mk mode =
    Config.with_replication
      ~replication:{ Config.default_replication with Config.rp_mode = mode }
      (Config.with_durability ~durability:Config.default_durability (preempt workers))
  in
  let tpch_cfg = { Workload.Tpch_schema.default with Workload.Tpch_schema.parts = 3000 } in
  let run ?crash_seed ?early_ack mode crash_at_us =
    Failover.run ~cfg:(mk mode) ~tpch_cfg ~crash_at_us ?crash_seed ?early_ack
      ~arrival_interval_us:200. ~horizon_sec:0.01 ()
  in
  let cell i mode () =
    let crash_at_us, crash_seed = point ~from_us:2000. ~span_us:6000. ~seed ~n:budget i in
    let o = run ~crash_seed mode crash_at_us in
    let rpo = o.Failover.fv_acked_lost in
    let rpo_bad = mode = Config.Repl_semi_sync && rpo > 0 in
    let rto =
      match o.Failover.fv_failover with
      | Some fo -> Printf.sprintf "%.1f" fo.Replication.Failover.fo_rto_us
      | None -> "-"
    in
    {
      label =
        Printf.sprintf "crash@%.0fus %-9s seed=%Ld" crash_at_us
          (Config.replication_mode_to_string mode)
          crash_seed;
      figures =
        Printf.sprintf "RTO=%sus RPO=%d survived=%d lost=%d violations=%d%s" rto rpo
          o.Failover.fv_survived_commits o.Failover.fv_lost_commits
          (List.length o.Failover.fv_violations)
          (if rpo_bad then "  RPO VIOLATION" else "");
      violations =
        (o.Failover.fv_violations
        @
        if rpo_bad then [ Violation.make "failover" "semi-sync lost %d acked commits" rpo ]
        else []);
      schedule_run = None;
    }
  in
  {
    name = "failover";
    cells =
      Seq.concat_map
        (fun i -> List.to_seq [ cell i Config.Repl_async; cell i Config.Repl_semi_sync ])
        (Seq.init budget Fun.id);
    bug = "early-ack";
    armed =
      [ (fun () -> (run ~early_ack:true Config.Repl_semi_sync 5000.).Failover.fv_violations) ];
  }

let shards ~budget ~seed ~workers =
  (* grid = crash instant x crash role; restricting origins to shard 0
     makes crashing shard 0 the coordinator-crash cell and the last
     shard the participant-crash cell *)
  let cfg = Config.with_shard (preempt workers) in
  let shards = match cfg.Config.shard with Some s -> s.Config.sh_shards | None -> 2 in
  let cell label run () =
    let rs = (run ()).Atomic.at_resolution in
    {
      label;
      figures =
        Printf.sprintf
          "decisions=%d in-doubt=%d resolved(commit/abort)=%d/%d torn=%d violations=%d"
          rs.Atomic.rs_decisions rs.Atomic.rs_in_doubt rs.Atomic.rs_committed
          rs.Atomic.rs_aborted rs.Atomic.rs_torn
          (List.length rs.Atomic.rs_violations);
      violations = rs.Atomic.rs_violations;
      schedule_run = None;
    }
  in
  let crash i (role, crash_sid) =
    let crash_at_us, crash_seed = point ~from_us:500. ~span_us:4000. ~seed ~n:budget i in
    cell
      (Printf.sprintf "crash@%.0fus %-11s seed=%Ld" crash_at_us role crash_seed)
      (fun () -> Atomic.run ~cfg ~crash_sid ~crash_at_us ~crash_seed ())
  in
  (* the early-vote self-test: a participant voting yes before its
     prepare record is durable, then crashing inside the group-commit
     window, must be caught.  All-cross traffic and a stretched flush
     interval widen the window so the tried instants land in it. *)
  let st_cfg =
    Config.with_shard
      ~shard:{ Config.default_shard with Config.sh_cross_pct = 100 }
      (Config.with_durability
         ~durability:{ Config.default_durability with Config.du_group_interval_us = 40. }
         (preempt workers))
  in
  let early_vote i () =
    (Atomic.run ~cfg:st_cfg ~bug_early_vote:true ~crash_sid:(shards - 1)
       ~crash_at_us:(700. +. (500. *. float_of_int i))
       ~crash_seed:(Int64.of_int (seed + 31 + i))
       ~arrival_interval_us:60. ())
      .Atomic.at_resolution
      .Atomic.rs_violations
  in
  {
    name = "shard-atomicity";
    cells =
      Seq.cons
        (cell "clean" (fun () -> Atomic.run ~cfg ()))
        (Seq.concat_map
           (fun i ->
             List.to_seq (List.map (crash i) [ ("coordinator", 0); ("participant", shards - 1) ]))
           (Seq.init budget Fun.id));
    bug = "early-vote";
    armed = List.init 8 early_vote;
  }

(* --- the runner ---------------------------------------------------------- *)

(* Shrink a failing schedule run, replay the shrunk schedule, and write
   its report as the reproducer [check --replay] re-runs. *)
let write_reproducer ~out (r : Harness.run) =
  let m = Shrink.minimize r in
  Format.printf "shrunk (%d evals) to: %s@." m.Shrink.evals (Schedule.describe m.Shrink.schedule);
  (match Harness.replay m.Shrink.run with
  | Ok () -> Format.printf "replay: trace hash %s reproduced@." m.Shrink.run.Harness.hash_hex
  | Error e -> Format.printf "replay WARNING: %s@." e);
  Out_channel.with_open_text out (fun oc ->
      Obs.Json.to_channel ~minify:false oc (Harness.report_json m.Shrink.run);
      output_char oc '\n');
  Format.printf "reproducer written to %s@." out

(* A crash cell or an armed attempt that raises reports an [exception]
   violation, and the grid goes on.  A schedule run that raises (an armed
   engine fault can insert an order id twice) is already a failing run
   ({!Harness.run}). *)
let raised e = Violation.make "exception" "%s" (Printexc.to_string e)

let run_preset ?out p =
  let cells = ref 0 and failed = ref [] in
  Seq.iter
    (fun cell ->
      incr cells;
      let c =
        try cell ()
        with e ->
          let label = Printf.sprintf "%s cell %d" p.name !cells in
          { label; figures = "raised"; violations = [ raised e ]; schedule_run = None }
      in
      Format.printf "%s: %s@." c.label c.figures;
      List.iteri
        (fun j v -> if j < 5 then Format.printf "  %s@." (Violation.to_string v))
        c.violations;
      if c.violations <> [] then failed := c :: !failed)
    p.cells;
  (match (out, List.find_map (fun c -> c.schedule_run) (List.rev !failed)) with
  | Some out, Some r -> write_reproducer ~out r
  | _ -> ());
  let caught =
    List.exists (fun attempt -> (try attempt () with e -> [ raised e ]) <> []) p.armed
  in
  Format.printf "%s self-test: %s@." p.bug
    (if caught then "caught (oracle works)" else "NOT CAUGHT (oracle bug)");
  let ok = !failed = [] && caught in
  Format.printf "%s: %s — %d cells, %d failing@." p.name
    (if ok then "PASS" else "FAIL")
    !cells (List.length !failed);
  ok

let run ?out presets = List.fold_left (fun ok p -> run_preset ?out p && ok) true presets
