module J = Obs.Json
module Metrics = Preemptdb.Metrics

let total_ktps cl =
  let clock = Cluster.clock cl and horizon = Cluster.horizon cl in
  let total = ref 0. in
  for sid = 0 to Cluster.n_shards cl - 1 do
    let m = Cluster.metrics cl ~sid in
    List.iter
      (fun label -> total := !total +. Metrics.throughput_ktps m label ~horizon ~clock)
      Cluster.coordinator_labels
  done;
  !total

let label_p99_us cl label =
  let clock = Cluster.clock cl in
  let worst = ref None in
  for sid = 0 to Cluster.n_shards cl - 1 do
    match Metrics.latency_us (Cluster.metrics cl ~sid) label ~pct:99. ~clock with
    | Some v -> (
      match !worst with
      | Some w when w >= v -> ()
      | _ -> worst := Some v)
    | None -> ()
  done;
  !worst

let to_json cl =
  let stats = Cluster.stats cl in
  let committed = Array.fold_left (fun a s -> a + s.Cluster.ss_committed) 0 stats in
  let aborted = Array.fold_left (fun a s -> a + s.Cluster.ss_aborted) 0 stats in
  let xs_started = Array.fold_left (fun a s -> a + s.Cluster.ss_xs_started) 0 stats in
  let xs_committed = Array.fold_left (fun a s -> a + s.Cluster.ss_xs_committed) 0 stats in
  let xs_aborted = Array.fold_left (fun a s -> a + s.Cluster.ss_xs_aborted) 0 stats in
  let gate_parks = Array.fold_left (fun a s -> a + s.Cluster.ss_gate_parks) 0 stats in
  let gate_immediate = Array.fold_left (fun a s -> a + s.Cluster.ss_gate_immediate) 0 stats in
  let clock = Cluster.clock cl in
  let virtual_us = Sim.Clock.us_of_cycles clock (Cluster.horizon cl) in
  let wall = Cluster.wall_s cl in
  let per_shard =
    Array.to_list
      (Array.map
         (fun s ->
           J.Obj
             [
               ("sid", J.Int s.Cluster.ss_sid);
               ("crashed", J.Bool s.Cluster.ss_crashed);
               ("committed", J.Int s.Cluster.ss_committed);
               ("aborted", J.Int s.Cluster.ss_aborted);
               ("xs_started", J.Int s.Cluster.ss_xs_started);
               ("xs_committed", J.Int s.Cluster.ss_xs_committed);
               ("prepares_recv", J.Int s.Cluster.ss_prepares_recv);
               ("votes_yes", J.Int s.Cluster.ss_votes_yes);
               ("votes_no", J.Int s.Cluster.ss_votes_no);
               ("coord_timeouts", J.Int s.Cluster.ss_coord_timeouts);
               ("gate_parks", J.Int s.Cluster.ss_gate_parks);
               ("gate_unparks", J.Int s.Cluster.ss_gate_unparks);
               ("gate_immediate", J.Int s.Cluster.ss_gate_immediate);
               ("parked_left", J.Int s.Cluster.ss_parked_left);
               ("flushes", J.Int s.Cluster.ss_flushes);
               ("durable_lsn", J.Int s.Cluster.ss_durable_lsn);
               ("link_sends", J.Int s.Cluster.ss_link_sends);
               ("link_bytes", J.Int s.Cluster.ss_link_bytes);
             ])
         stats)
  in
  let p99 label = match label_p99_us cl label with Some v -> J.Float v | None -> J.Null in
  J.Obj
    [
      ("shards", J.Int (Cluster.n_shards cl));
      ("total_ktps", J.Float (total_ktps cl));
      ("committed", J.Int committed);
      ("aborted", J.Int aborted);
      ("xs_started", J.Int xs_started);
      ("xs_committed", J.Int xs_committed);
      ("xs_aborted", J.Int xs_aborted);
      ("gate_parks", J.Int gate_parks);
      ("gate_immediate", J.Int gate_immediate);
      ("neworder_p99_us", p99 "NewOrder");
      ("neworderx_p99_us", p99 "NewOrderX");
      ("paymentx_p99_us", p99 "PaymentX");
      (* Informational (not gated): per-shard breakdown and sim rate. *)
      ("info_shards", J.List per_shard);
      ("info_wall_s", J.Float wall);
      ( "info_sim_us_per_wall_s",
        J.Float (if wall > 0. then virtual_us /. wall else 0.) );
      ("info_des_events", J.Int (Cluster.events_processed cl));
    ]
