(* One benchmark episode: set up a seeded workload through a public
   entry point ([Runner], [Shard.Cluster]), run it to a fixed virtual
   horizon, check its outputs and collect its figures.  A faster
   simulator finishes the same virtual work sooner; it never simulates
   more, so memory figures stay comparable across speed-ups. *)

module Config = Preemptdb.Config
module Runner = Preemptdb.Runner
module Metrics = Preemptdb.Metrics
module Worker = Preemptdb.Worker
module Cluster = Shard.Cluster
module H = Sim.Histogram

type workload = Mixed | Durable | Shard

let workloads = [ ("mixed", Mixed); ("durable", Durable); ("shard", Shard) ]
let workload_of_string s = List.assoc_opt s workloads

(* Virtual horizons, sized so the NewOrder p99 holds within a few percent
   across seeds: [mixed] completes 16 NewOrders per virtual ms, so about
   1280, above the 1000 that ten samples beyond p99 need; [durable] ~400
   per ms; [shard] needs >= 1000 cross-shard transactions for
   [shard.xs_p99_us].  [durable]'s heap grows with every commit. *)
let horizon_ms = function Mixed -> 80. | Durable -> 25. | Shard -> 50.

(* What an episode hands its observer once set-up is done, before the
   first DES event: the event loop, every worker, a reader filling one
   public counter sum per {!Tracer.layer_names} entry, the monotonic
   wall clock (ns) at which set-up began, the virtual horizon and the
   rows loaded. *)
type ready = {
  des : Sim.Des.t;
  workers : Worker.t array;
  signature : int array -> unit;
  start_ns : int;
  horizon : int;  (* cycles *)
  rows : int;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let horizon_cycles wl des = Int64.to_int (Sim.Clock.cycles_of_ms (Sim.Des.clock des) (horizon_ms wl))

(* Observers of an episode: [on_ready] before the first DES event,
   [on_ran] as soon as the run returns, before any check allocates. *)
type hooks = { on_ready : ready -> unit; on_ran : unit -> unit }

type result = {
  wall_s : float;  (* wall time inside the DES run *)
  horizon_us : float;
  rows_loaded : int;
  commits : int;  (* committed workload transactions *)
  virt : (string * float) list;  (* end-to-end, virtual clock *)
  counts : (string * float) list;  (* per-layer, exact for a seed *)
  attempted : int;
  failed : int;
  violations : string list;
}

(* -- helpers ------------------------------------------------------------- *)

let rows_of eng =
  List.fold_left (fun acc tb -> acc + Storage.Table.size tb) 0 (Storage.Engine.tables eng)

let receivers workers = Array.map (fun w -> Uintr.Hw_thread.receiver (Worker.hw w)) workers

let posted rs = Array.fold_left (fun acc r -> acc + Uintr.Receiver.posted_count r) 0 rs

let merged hists =
  let dst = H.create () in
  List.iter (fun src -> H.merge_into ~src ~dst) hists;
  dst

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let pct a b = 100. *. ratio a b

(* [Sim.Histogram.percentile] gives the upper edge of the bucket that
   holds the percentile's sample.  A bucket spans 1/64 to 1/32 of its
   value, and on [shard] the Payment median fell into the same bucket on
   six seeds of six, so the edge would read the same whatever the seed.
   Place the sample inside its own bucket instead, by its rank among the
   samples that bucket holds.  A value of bit length b > 6 shares its
   bucket with every value that has the same top 6 bits (the metrics'
   histograms use the default 64 sub-buckets). *)
let interpolated h p =
  let n = H.count h in
  let at k = H.percentile h (100. *. (float_of_int k -. 0.5) /. float_of_int n) in
  let r = max 1 (min n (int_of_float (ceil (p /. 100. *. float_of_int n)))) in
  let edge = at r in
  let rec first lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if at mid = edge then first lo mid else first (mid + 1) hi
  in
  let rec last lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if at mid = edge then last mid hi else last lo (mid - 1)
  in
  let r_lo = first 1 r and r_hi = last r n in
  let e = Int64.to_int edge in
  let rec bits v = if v = 0 then 0 else 1 + bits (v lsr 1) in
  let shift = max 0 (bits e - 6) in
  let lower = float_of_int ((e lsr shift) lsl shift) in
  lower
  +. (Int64.to_float edge -. lower)
     *. (float_of_int (r - r_lo) +. 0.5)
     /. float_of_int (r_hi - r_lo + 1)

(* A percentile is reported only with at least ten samples beyond it.
   Latencies (cycles) are interpolated; counts keep their bucket edge. *)
let percentile ~viol ~clock ~what ?(cycles = true) h p =
  let n = H.count h in
  if float_of_int n *. (1. -. (p /. 100.)) < 10. then begin
    viol := Printf.sprintf "%s: p%g needs 10 samples beyond it, have %d samples" what p n :: !viol;
    0.
  end
  else if cycles then
    Sim.Clock.us_of_cycles clock 1_000_000L *. interpolated h p /. 1_000_000.
  else Int64.to_float (H.percentile h p)

(* The layer percentile only where the layer ran; a bypassed layer reads 0. *)
let layer_percentile ~viol ~clock ~what ?cycles h p =
  if H.is_empty h then 0. else percentile ~viol ~clock ~what ?cycles h p

let class_hists metrics labels f =
  List.filter_map (fun l -> Option.map f (Metrics.find metrics l)) labels

let e2e (cs : Metrics.class_stats) = cs.Metrics.end_to_end

(* Failed = terminal aborts other than TPC-C's specified NewOrder
   rollbacks (user aborts), plus shed and admission-dropped requests.
   Attempted = every request whose fate is known at the horizon. *)
let tally metrics labels =
  List.fold_left
    (fun (att, fail) l ->
      match Metrics.find metrics l with
      | None -> (att, fail)
      | Some cs ->
        let hard = cs.Metrics.aborted - cs.Metrics.aborted_user in
        ( att + cs.Metrics.committed + cs.Metrics.aborted + cs.Metrics.shed,
          fail + hard + cs.Metrics.shed ))
    (Metrics.drops metrics, Metrics.drops metrics)
    labels

let committed metrics labels =
  List.fold_left (fun acc l -> acc + Metrics.committed metrics l) 0 labels

let chain_counts engs =
  let tuples = ref 0 and versions = ref 0 and mx = ref 0 in
  List.iter
    (fun eng ->
      List.iter
        (fun (c : Storage.Engine.chain_stat) ->
          tuples := !tuples + c.Storage.Engine.cs_tuples;
          versions := !versions + c.Storage.Engine.cs_versions;
          mx := max !mx c.Storage.Engine.cs_max_len)
        (Storage.Engine.chain_stats eng))
    engs;
  [
    ("storage.chain_mean", ratio !versions !tuples);
    ("storage.chain_max", float_of_int !mx);
    ("storage.versions", float_of_int !versions);
  ]

let engine_counts (st : Storage.Engine.stats) ~commits =
  let aborts = Storage.Engine.total_aborts st in
  [
    ("storage.reads_per_commit", ratio st.Storage.Engine.reads commits);
    ( "storage.writes_per_commit",
      ratio (st.Storage.Engine.updates + st.Storage.Engine.inserts + st.Storage.Engine.deletes)
        commits );
    ("storage.commit_ratio", ratio st.Storage.Engine.commits (st.Storage.Engine.commits + aborts));
    ("storage.aborts_conflict", float_of_int st.Storage.Engine.aborts_conflict);
    ("storage.aborts_validation", float_of_int st.Storage.Engine.aborts_validation);
  ]

let sum_engine_stats stats =
  let z =
    {
      Storage.Engine.commits = 0;
      aborts_conflict = 0;
      aborts_validation = 0;
      aborts_deadlock = 0;
      aborts_user = 0;
      reads = 0;
      updates = 0;
      inserts = 0;
      deletes = 0;
    }
  in
  List.iter
    (fun (s : Storage.Engine.stats) ->
      z.commits <- z.commits + s.commits;
      z.aborts_conflict <- z.aborts_conflict + s.aborts_conflict;
      z.aborts_validation <- z.aborts_validation + s.aborts_validation;
      z.aborts_deadlock <- z.aborts_deadlock + s.aborts_deadlock;
      z.aborts_user <- z.aborts_user + s.aborts_user;
      z.reads <- z.reads + s.reads;
      z.updates <- z.updates + s.updates;
      z.inserts <- z.inserts + s.inserts;
      z.deletes <- z.deletes + s.deletes)
    stats;
  z

let worker_sum workers f =
  Array.fold_left (fun acc w -> acc + f (Worker.stats w)) 0 workers

(* Shares of all simulated worker cycles (idle included) per profiler
   bucket; "txn" folds every per-class bucket, "switch" both kinds. *)
let cycles_pct prof =
  let total = Int64.to_float (Obs.Profiler.total_cycles prof) in
  let totals = Obs.Profiler.totals prof in
  let share pred =
    let c =
      List.fold_left
        (fun acc (name, cyc) -> if pred name then Int64.add acc cyc else acc)
        0L totals
    in
    if total = 0. then 0. else 100. *. Int64.to_float c /. total
  in
  let is n s = String.equal n s in
  let starts p n = String.length n >= String.length p && String.sub n 0 (String.length p) = p in
  [
    ("preemptdb.cycles_pct.txn", share (starts "txn:"));
    ("preemptdb.cycles_pct.switch", share (starts "switch:"));
    ("preemptdb.cycles_pct.uintr_handler", share (is "uintr:handler"));
    ("preemptdb.cycles_pct.queue_op", share (is "queue_op"));
    ("preemptdb.cycles_pct.retry_backoff", share (is "retry_backoff"));
    ("preemptdb.cycles_pct.commit_publish", share (is "commit:publish"));
    ("preemptdb.cycles_pct.commit_unpark", share (is "commit:unpark"));
    ("preemptdb.cycles_pct.idle", share (is "idle"));
  ]

let no_cycles_pct =
  List.map (fun (k, _) -> (k, 0.)) (cycles_pct (Obs.Profiler.create ()))

(* Profiler conservation: per worker the buckets sum to the total, and
   the non-idle buckets equal the worker's charged busy cycles. *)
let profiler_conservation ~viol prof workers =
  Array.iter
    (fun w ->
      let wid = Worker.id w in
      let sum =
        List.fold_left (fun acc (_, c) -> Int64.add acc c) 0L (Obs.Profiler.worker_buckets prof ~wid)
      in
      if sum <> Obs.Profiler.worker_total prof ~wid then
        viol := Printf.sprintf "profiler: worker %d buckets sum %Ld <> total" wid sum :: !viol;
      let busy = Int64.of_int (Worker.stats w).Worker.busy_cycles in
      if Obs.Profiler.non_idle_total prof ~wid <> busy then
        viol :=
          Printf.sprintf "profiler: worker %d non-idle %Ld <> busy %Ld" wid
            (Obs.Profiler.non_idle_total prof ~wid) busy
          :: !viol)
    workers

let add_violations viol oracle vs =
  List.iter (fun v -> viol := (oracle ^ ": " ^ Check.Violation.to_string v) :: !viol) vs

(* -- single-node workloads (Runner) -------------------------------------- *)

let base_cfg ~seed ~workers =
  { (Config.default ~policy:(Config.Preempt 1.0) ~n_workers:workers ()) with Config.seed }

let runner_signature (a : Runner.assembly) =
  let rs = receivers a.Runner.workers in
  fun sg ->
    sg.(0) <-
      (match a.Runner.dur with
      | Some d ->
        Durability.Daemon.flushes d.Runner.dur_daemon + Durability.Device.flushes d.Runner.dur_device
      | None -> 0);
    sg.(1) <-
      (match a.Runner.repl with
      | Some r ->
        Replication.Shipper.batches r.Runner.repl_shipper
        + Replication.Shipper.heartbeats r.Runner.repl_shipper
        + Replication.Replica.batches r.Runner.repl_replica
        + Replication.Replica.persisted_lsn r.Runner.repl_replica
        + Uintr.Channel.sends r.Runner.repl_ack_ch
        + Uintr.Channel.delivered r.Runner.repl_ship_ch
        + Uintr.Channel.delivered r.Runner.repl_ack_ch
      | None -> 0);
    sg.(2) <- 0;
    sg.(3) <-
      (match a.Runner.maint with
      | Some m -> Maint.Epoch.advances (Maint.Reclaimer.epoch m) + Maint.Reclaimer.chunks m
      | None -> 0);
    sg.(4) <-
      (match a.Runner.sched with
      | Some s ->
        Preemptdb.Sched_thread.generated_hp s + Preemptdb.Sched_thread.generated_lp s
        + Preemptdb.Sched_thread.generated_gc s + Preemptdb.Sched_thread.backlog_length s
      | None -> 0)
      + Metrics.drops a.Runner.metrics;
    sg.(5) <- worker_sum a.Runner.workers (fun s -> s.Worker.busy_cycles);
    sg.(6) <- Uintr.Fabric.sends a.Runner.fabric + posted rs

let run_single wl ~seed ~check ~hooks =
  let horizon_sec = horizon_ms wl /. 1000. in
  let rows = ref 0 in
  let assembly = ref None in
  let start_ns = now_ns () in
  let prepare (a : Runner.assembly) =
    rows := rows_of a.Runner.eng;
    assembly := Some a;
    hooks.on_ready
      {
        des = a.Runner.des;
        workers = a.Runner.workers;
        signature = runner_signature a;
        start_ns;
        horizon = horizon_cycles wl a.Runner.des;
        rows = !rows;
      }
  in
  let r, labels, lp_label =
    match wl with
    | Mixed ->
      (* 32 NewOrder/Payment per virtual ms preempt a standing Q2 stream *)
      let cfg = base_cfg ~seed ~workers:8 in
      ( Runner.run_mixed ~cfg ~prepare ~arrival_interval_us:1000. ~hp_batch:32 ~horizon_sec (),
        [ "NewOrder"; "Payment"; "Q2" ],
        "Q2" )
    | Durable ->
      (* 32 NewOrder/Payment every 40 virtual us; group commit, semi-sync
         standby and epoch reclamation (GC chunks own the low level) *)
      let cfg =
        base_cfg ~seed ~workers:8 |> Config.with_reclaim |> Config.with_durability
        |> Config.with_replication
      in
      ( Runner.run_maintenance ~cfg ~prepare ~arrival_interval_us:40. ~hp_batch:32 ~horizon_sec (),
        [ "NewOrder"; "Payment" ],
        "Payment" )
    | Shard -> assert false
  in
  hooks.on_ran ();
  let a = match !assembly with Some a -> a | None -> failwith "prepare never ran" in
  let viol = ref [] in
  let clock = r.Runner.clock in
  let m = r.Runner.metrics in
  let commits = committed m labels in
  let hp = merged (class_hists m [ "NewOrder" ] e2e) in
  let lp = merged (class_hists m [ lp_label ] e2e) in
  let virt =
    [
      ("hp_p50_us", percentile ~viol ~clock ~what:"hp" hp 50.);
      ("hp_p99_us", percentile ~viol ~clock ~what:"hp" hp 99.);
      ("lp_p50_us", percentile ~viol ~clock ~what:"lp" lp 50.);
      ("ktps", float_of_int commits /. Sim.Clock.ms_of_cycles clock r.Runner.horizon);
    ]
  in
  let attempted, failed = tally m labels in
  if check then begin
    add_violations viol "request-conservation" (Check.Oracle.request_conservation r);
    add_violations viol "version-chains" (Check.Oracle.version_chains r.Runner.eng);
    profiler_conservation ~viol r.Runner.profile a.Runner.workers;
    (match r.Runner.durability with
    | Some ds when ds.Runner.ds_ack_violations <> 0 ->
      viol := Printf.sprintf "durability: %d acks of non-durable LSNs" ds.Runner.ds_ack_violations :: !viol
    | _ -> ());
    match (a.Runner.dur, a.Runner.repl) with
    | Some d, Some rp ->
      let persisted = Replication.Replica.persisted_lsn rp.Runner.repl_replica in
      if Replication.Shipper.degraded rp.Runner.repl_shipper then
        viol := "replication: semi-sync degraded to async" :: !viol;
      let beyond =
        List.filter (fun l -> l >= persisted) (Durability.Daemon.acked d.Runner.dur_daemon)
      in
      if beyond <> [] then
        viol :=
          Printf.sprintf "replication: %d acks beyond the replica's persisted LSN %d"
            (List.length beyond) persisted
          :: !viol
    | _ -> ()
  end;
  let w = r.Runner.workers in
  let horizon = r.Runner.horizon in
  let sched_hist = merged (class_hists m [ "NewOrder" ] (fun cs -> cs.Metrics.scheduling)) in
  let dur_counts =
    match r.Runner.durability with
    | None ->
      List.map (fun k -> (k, 0.))
        [
          "durability.flushes"; "durability.txns_per_flush_p50"; "durability.bytes_per_commit";
          "durability.device_busy_pct"; "durability.commit_wait_p50_us";
          "durability.commit_wait_p99_us"; "durability.buffer_overflows"; "durability.log_records";
        ]
    | Some ds ->
      let cw = merged (class_hists m labels (fun cs -> cs.Metrics.commit_wait)) in
      [
        ("durability.flushes", float_of_int ds.Runner.ds_flushes);
        ( "durability.txns_per_flush_p50",
          layer_percentile ~viol ~clock ~what:"txns per flush" ~cycles:false
            ds.Runner.ds_group_txns_hist 50. );
        ( "durability.bytes_per_commit",
          Int64.to_float ds.Runner.ds_device_bytes /. float_of_int (max 1 ds.Runner.ds_log_commits) );
        ( "durability.device_busy_pct",
          100. *. Int64.to_float ds.Runner.ds_device_busy /. Int64.to_float horizon );
        ("durability.commit_wait_p50_us", layer_percentile ~viol ~clock ~what:"commit wait" cw 50.);
        ("durability.commit_wait_p99_us", layer_percentile ~viol ~clock ~what:"commit wait" cw 99.);
        ("durability.buffer_overflows", float_of_int ds.Runner.ds_buffer_overflows);
        ("durability.log_records", float_of_int ds.Runner.ds_next_lsn);
      ]
  in
  let repl_counts =
    match r.Runner.replication with
    | None ->
      List.map (fun k -> (k, 0.))
        [
          "replication.batches"; "replication.records_per_batch"; "replication.resent_pct";
          "replication.naks"; "replication.bytes_per_commit"; "replication.lag_p99_us";
        ]
    | Some rs ->
      let log_commits =
        match r.Runner.durability with Some ds -> ds.Runner.ds_log_commits | None -> 0
      in
      [
        ("replication.batches", float_of_int rs.Runner.rs_batches);
        ("replication.records_per_batch", ratio rs.Runner.rs_records rs.Runner.rs_batches);
        ("replication.resent_pct", pct rs.Runner.rs_resent rs.Runner.rs_records);
        ("replication.naks", float_of_int rs.Runner.rs_naks);
        ("replication.bytes_per_commit", ratio rs.Runner.rs_ship_bytes log_commits);
        ( "replication.lag_p99_us",
          layer_percentile ~viol ~clock ~what:"replication lag" ~cycles:false
            rs.Runner.rs_lag_us_hist 99. );
      ]
  in
  let channel_msgs, channel_bytes =
    match a.Runner.repl with
    | Some rp ->
      ( Uintr.Channel.sends rp.Runner.repl_ship_ch + Uintr.Channel.sends rp.Runner.repl_ack_ch,
        Uintr.Channel.bytes_sent rp.Runner.repl_ship_ch + Uintr.Channel.bytes_sent rp.Runner.repl_ack_ch )
    | None -> (0, 0)
  in
  let maint_counts =
    match r.Runner.maint with
    | None ->
      [ ("maint.gc_chunks", 0.); ("maint.versions_reclaimed", 0.); ("maint.chain_p99", 0.) ]
    | Some ms ->
      [
        ("maint.gc_chunks", float_of_int ms.Runner.ms_chunks);
        ("maint.versions_reclaimed", float_of_int ms.Runner.ms_versions_reclaimed);
        ( "maint.chain_p99",
          layer_percentile ~viol ~clock ~what:"chain length" ~cycles:false ms.Runner.ms_chain_hist 99. );
      ]
  in
  let counts =
    [
      ("sim.events", float_of_int r.Runner.events);
      ("sim.events_per_commit", ratio r.Runner.events commits);
      ("sim.max_queue", float_of_int r.Runner.des_max_queue);
      ("preemptdb.hp_sched_p99_us", percentile ~viol ~clock ~what:"hp scheduling" sched_hist 99.);
      ( "preemptdb.busy_pct",
        100. *. Int64.to_float w.Runner.busy_cycles
        /. (Int64.to_float horizon *. float_of_int (Array.length a.Runner.workers)) );
    ]
    @ cycles_pct r.Runner.profile
    @ [
        ("preemptdb.retries", float_of_int w.Runner.retries);
        ("preemptdb.parks_commit", float_of_int w.Runner.dur_parks);
        ("preemptdb.parks_gate", float_of_int w.Runner.gate_parks);
        ("preemptdb.parks_immediate", float_of_int (w.Runner.dur_immediate + w.Runner.gate_immediate));
        ("preemptdb.backlog_end", float_of_int r.Runner.backlog_left);
        ("preemptdb.drops", float_of_int (Metrics.drops m));
        ("preemptdb.shed", float_of_int r.Runner.shed);
        ("preemptdb.exhausted", float_of_int w.Runner.exhausted);
      ]
    @ engine_counts r.Runner.engine_stats ~commits
    @ chain_counts [ r.Runner.eng ]
    @ [
        ("uintr.sends", float_of_int (posted (receivers a.Runner.workers)));
        ("uintr.recognized", float_of_int w.Runner.uintr_recognized);
        ("uintr.switches", float_of_int (w.Runner.passive_switches + w.Runner.active_switches));
        ("uintr.rejects", float_of_int (Uintr.Stages.rejected r.Runner.stages));
        (* p90: [mixed] completes ~8 preemption flows per virtual ms *)
        ( "uintr.stage_send_to_resume_p90_us",
          layer_percentile ~viol ~clock ~what:"send->resume"
            (Uintr.Stages.send_to_resume r.Runner.stages) 90. );
        ("uintr.channel_msgs", float_of_int channel_msgs);
        ("uintr.channel_bytes", float_of_int channel_bytes);
      ]
    @ dur_counts @ repl_counts
    @ [
        ("shard.xs_started", 0.); ("shard.xs_commit_pct", 0.); ("shard.coord_timeouts", 0.);
        ("shard.votes_no", 0.); ("shard.msgs_per_xs", 0.); ("shard.xs_p99_us", 0.);
        ("shard.gate_parks", 0.); ("shard.parked_end", 0.);
      ]
    @ maint_counts
    @ [ ("maint.gc_preempted", float_of_int w.Runner.gc_preempted) ]
  in
  {
    wall_s = r.Runner.wall_s;
    horizon_us = Sim.Clock.us_of_cycles clock horizon;
    rows_loaded = !rows;
    commits;
    virt;
    counts;
    attempted;
    failed;
    violations = List.rev !viol;
  }

(* -- sharded workload (Shard.Cluster) ------------------------------------ *)

let run_shard ~seed ~check ~hooks =
  let n_shards = 4 in
  let start_ns = now_ns () in
  (* 4 shards x 2 workers, one request per 18 virtual us per shard (just
     under 2-worker capacity), 10 % cross-shard 2PC *)
  let cfg =
    Config.with_shard
      ~shard:{ Config.default_shard with Config.sh_shards = n_shards; sh_cross_pct = 10 }
      (base_cfg ~seed ~workers:2)
  in
  let cl = Cluster.create ~cfg ~arrival_interval_us:18. () in
  let sids = List.init n_shards Fun.id in
  let workers = Array.concat (List.map (fun sid -> Cluster.workers cl ~sid) sids) in
  let rows = List.fold_left (fun acc sid -> acc + rows_of (Cluster.engine cl ~sid)) 0 sids in
  let rs = receivers workers in
  let signature sg =
    sg.(0) <- List.fold_left (fun acc sid -> acc + Durability.Log.durable_lsn (Cluster.log cl ~sid)) 0 sids;
    sg.(1) <- 0;
    sg.(2) <-
      List.fold_left
        (fun acc sid -> acc + Cluster.coord_pending cl ~sid + Cluster.decision_waits cl ~sid)
        0 sids;
    sg.(3) <- 0;
    sg.(4) <- Array.fold_left (fun acc w -> acc + Worker.queued_requests w) 0 workers;
    sg.(5) <- worker_sum workers (fun s -> s.Worker.busy_cycles);
    sg.(6) <- posted rs
  in
  let des = Cluster.des cl in
  hooks.on_ready { des; workers; signature; start_ns; horizon = horizon_cycles Shard des; rows };
  Cluster.run cl ~horizon_sec:(horizon_ms Shard /. 1000.);
  hooks.on_ran ();
  let viol = ref [] in
  let clock = Cluster.clock cl in
  let metrics = List.map (fun sid -> Cluster.metrics cl ~sid) sids in
  let hists labels f = merged (List.concat_map (fun m -> class_hists m labels f) metrics) in
  let hp = hists [ "NewOrder"; "NewOrderX" ] e2e in
  let lp = hists [ "Payment"; "PaymentX" ] e2e in
  let labels = Cluster.coordinator_labels in
  let commits = List.fold_left (fun acc m -> acc + committed m labels) 0 metrics in
  let horizon = Cluster.horizon cl in
  let virt =
    [
      ("hp_p50_us", percentile ~viol ~clock ~what:"hp" hp 50.);
      ("hp_p99_us", percentile ~viol ~clock ~what:"hp" hp 99.);
      ("lp_p50_us", percentile ~viol ~clock ~what:"lp" lp 50.);
      ("ktps", float_of_int commits /. Sim.Clock.ms_of_cycles clock horizon);
    ]
  in
  let attempted, failed =
    List.fold_left
      (fun (a, f) m ->
        let a', f' = tally m labels in
        (a + a', f + f'))
      (0, 0) metrics
  in
  if check then begin
    (* the 2PC atomicity oracle over every shard's log, and well-formed
       version chains in every partition *)
    let logs = Array.of_list (List.map (fun sid -> Cluster.log cl ~sid) sids) in
    add_violations viol "atomicity" (Check.Atomic.recover logs).Check.Atomic.rs_violations;
    List.iter
      (fun sid ->
        add_violations viol "version-chains" (Check.Oracle.version_chains (Cluster.engine cl ~sid)))
      sids
  end;
  let st = Cluster.stats cl in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 st in
  let xs_started = sum (fun s -> s.Cluster.ss_xs_started) in
  let ws f = worker_sum workers f in
  let sched_hist = hists [ "NewOrder"; "NewOrderX" ] (fun cs -> cs.Metrics.scheduling) in
  let cw = hists (labels @ [ "XPart" ]) (fun cs -> cs.Metrics.commit_wait) in
  let engs = List.map (fun sid -> Cluster.engine cl ~sid) sids in
  let events = Cluster.events_processed cl in
  let counts =
    [
      ("sim.events", float_of_int events);
      ("sim.events_per_commit", ratio events commits);
      ("sim.max_queue", float_of_int (Sim.Des.max_queue_depth des));
      ("preemptdb.hp_sched_p99_us", percentile ~viol ~clock ~what:"hp scheduling" sched_hist 99.);
      ( "preemptdb.busy_pct",
        100. *. float_of_int (ws (fun s -> s.Worker.busy_cycles))
        /. (Int64.to_float horizon *. float_of_int (Array.length workers)) );
    ]
    (* Shard.Cluster keeps its cycle profiler private: no bucket shares *)
    @ no_cycles_pct
    @ [
        ("preemptdb.retries", float_of_int (ws (fun s -> s.Worker.retries)));
        ("preemptdb.parks_commit", float_of_int (ws (fun s -> s.Worker.dur_parks)));
        ("preemptdb.parks_gate", float_of_int (ws (fun s -> s.Worker.gate_parks)));
        ( "preemptdb.parks_immediate",
          float_of_int (ws (fun s -> s.Worker.dur_immediate + s.Worker.gate_immediate)) );
        ("preemptdb.backlog_end", 0.);
        ("preemptdb.drops", float_of_int (List.fold_left (fun acc m -> acc + Metrics.drops m) 0 metrics));
        ("preemptdb.shed", float_of_int (List.fold_left (fun acc m -> acc + Metrics.shed_total m) 0 metrics));
        ("preemptdb.exhausted", float_of_int (ws (fun s -> s.Worker.exhausted)));
      ]
    @ engine_counts (sum_engine_stats (List.map Storage.Engine.stats engs)) ~commits
    @ chain_counts engs
    @ [
        ("uintr.sends", float_of_int (posted rs));
        ("uintr.recognized", float_of_int (ws (fun s -> s.Worker.uintr_recognized)));
        ( "uintr.switches",
          float_of_int (ws (fun s -> s.Worker.passive_switches + s.Worker.active_switches)) );
        ("uintr.rejects", float_of_int (ws (fun s -> s.Worker.drops_region + s.Worker.drops_window)));
        (* the cluster's fabric (and its stage tracer) is private *)
        ("uintr.stage_send_to_resume_p90_us", 0.);
        ("uintr.channel_msgs", float_of_int (sum (fun s -> s.Cluster.ss_link_sends)));
        ("uintr.channel_bytes", float_of_int (sum (fun s -> s.Cluster.ss_link_bytes)));
        ("durability.flushes", float_of_int (sum (fun s -> s.Cluster.ss_flushes)));
        ("durability.txns_per_flush_p50", 0.);
        ("durability.bytes_per_commit", 0.);
        ("durability.device_busy_pct", 0.);
        ("durability.commit_wait_p50_us", layer_percentile ~viol ~clock ~what:"commit wait" cw 50.);
        ("durability.commit_wait_p99_us", layer_percentile ~viol ~clock ~what:"commit wait" cw 99.);
        ( "durability.buffer_overflows",
          float_of_int
            (List.fold_left (fun acc sid -> acc + Durability.Log.buffer_overflows (Cluster.log cl ~sid)) 0 sids) );
        ( "durability.log_records",
          float_of_int
            (List.fold_left (fun acc sid -> acc + Durability.Log.next_lsn (Cluster.log cl ~sid)) 0 sids) );
        ("replication.batches", 0.);
        ("replication.records_per_batch", 0.);
        ("replication.resent_pct", 0.);
        ("replication.naks", 0.);
        ("replication.bytes_per_commit", 0.);
        ("replication.lag_p99_us", 0.);
        ("shard.xs_started", float_of_int xs_started);
        ("shard.xs_commit_pct", pct (sum (fun s -> s.Cluster.ss_xs_committed)) xs_started);
        ("shard.coord_timeouts", float_of_int (sum (fun s -> s.Cluster.ss_coord_timeouts)));
        ("shard.votes_no", float_of_int (sum (fun s -> s.Cluster.ss_votes_no)));
        ("shard.msgs_per_xs", ratio (sum (fun s -> s.Cluster.ss_link_sends)) xs_started);
        ( "shard.xs_p99_us",
          percentile ~viol ~clock ~what:"cross-shard" (hists [ "NewOrderX"; "PaymentX" ] e2e) 99. );
        ("shard.gate_parks", float_of_int (sum (fun s -> s.Cluster.ss_gate_parks)));
        ("shard.parked_end", float_of_int (sum (fun s -> s.Cluster.ss_parked_left)));
        ("maint.gc_chunks", 0.);
        ("maint.versions_reclaimed", 0.);
        ("maint.chain_p99", 0.);
        ("maint.gc_preempted", float_of_int (ws (fun s -> s.Worker.gc_preempted)));
      ]
  in
  {
    wall_s = Cluster.wall_s cl;
    horizon_us = Sim.Clock.us_of_cycles clock horizon;
    rows_loaded = rows;
    commits;
    virt;
    counts;
    attempted;
    failed;
    violations = List.rev !viol;
  }

(* [check] runs the output oracles.  They are deterministic for a seed,
   so a run needs them in one episode; the others must reproduce that
   episode's figures exactly. *)
let run wl ~seed ~check ~hooks =
  match wl with
  | Shard -> run_shard ~seed ~check ~hooks
  | Mixed | Durable -> run_single wl ~seed ~check ~hooks
