module Config = Preemptdb.Config

type cell = { label : string; figures : string; violations : Violation.t list }

type preset = {
  name : string;
  cells : (unit -> cell) list;
  bug : string;
  armed : (unit -> Violation.t list) list;
}

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
  let n = max 1 budget in
  let cell i () =
    let crash_at_us, crash_seed = point ~from_us:2000. ~span_us:6000. ~seed ~n i in
    let o = run ~crash_seed crash_at_us in
    {
      label = Printf.sprintf "crash@%.0fus seed=%Ld" crash_at_us crash_seed;
      figures =
        Printf.sprintf "durable=%d lost=%d acked=%d violations=%d" o.Crash.co_durable_commits
          o.Crash.co_lost_commits o.Crash.co_acked
          (List.length o.Crash.co_violations);
      violations = o.Crash.co_violations;
    }
  in
  {
    name = "durability";
    cells = List.init n cell;
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
  let n = max 10 (budget / 2) in
  let cell i mode () =
    let crash_at_us, crash_seed = point ~from_us:2000. ~span_us:6000. ~seed ~n i in
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
    }
  in
  {
    name = "failover";
    cells =
      List.concat
        (List.init n (fun i ->
             [ cell i Config.Repl_async; cell i Config.Repl_semi_sync ]));
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
    }
  in
  let n = max 2 (budget / 4) in
  let crash i (role, crash_sid) =
    let crash_at_us, crash_seed = point ~from_us:500. ~span_us:4000. ~seed ~n i in
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
      cell "clean" (fun () -> Atomic.run ~cfg ())
      :: List.concat
           (List.init n (fun i ->
                List.map (crash i) [ ("coordinator", 0); ("participant", shards - 1) ]));
    bug = "early-vote";
    armed = List.init 8 early_vote;
  }

let run_preset p =
  let failing =
    List.fold_left
      (fun failing cell ->
        let c = cell () in
        Format.printf "%s: %s@." c.label c.figures;
        List.iteri
          (fun j v -> if j < 5 then Format.printf "  %s@." (Violation.to_string v))
          c.violations;
        if c.violations = [] then failing else failing + 1)
      0 p.cells
  in
  let caught = List.exists (fun attempt -> attempt () <> []) p.armed in
  Format.printf "%s self-test: %s@." p.bug
    (if caught then "caught (oracle works)" else "NOT CAUGHT (oracle bug)");
  let ok = failing = 0 && caught in
  Format.printf "%s: %s — %d cells, %d failing@." p.name
    (if ok then "PASS" else "FAIL")
    (List.length p.cells) failing;
  ok

let run presets = List.fold_left (fun ok p -> run_preset p && ok) true presets
