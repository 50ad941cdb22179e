module R = Preemptdb.Runner
module Config = Preemptdb.Config

type outcome = {
  fv_result : R.result;
  fv_promoted : Storage.Engine.t;
  fv_survivor_lsn : int;
  fv_audits : Crash.audit list;  (* commit-ts order *)
  fv_survived_commits : int;
  fv_lost_commits : int;
  fv_acked : int;
  fv_acked_lost : int;
  fv_failover : Replication.Failover.outcome option;
  fv_violations : Violation.t list;
}

let run ~cfg ?tpcc_cfg ?tpch_cfg ?(crash_at_us = 0.) ?(crash_seed = 11L)
    ?(early_ack = false) ?(hb_drop_pct = 0) ?(replica_crash_at_us = 0.)
    ?(arrival_interval_us = 400.) ?(horizon_sec = 0.01) () =
  let mode =
    match cfg.Config.replication with
    | None -> invalid_arg "Check.Failover.run: cfg.replication must be set"
    | Some rp -> rp.Config.rp_mode
  in
  let fv_result, node, audits =
    Crash.audited_run ~cfg ?tpcc_cfg ?tpch_cfg ~early_ack
      ~plan:
        {
          Faults.Plan.none with
          Faults.Plan.crash_at_us;
          hb_drop_pct;
          replica_crash_at_us;
          seed = crash_seed;
        }
      ~arrival_interval_us ~horizon_sec ()
  in
  let dur, repl =
    match node.R.dur, node.R.repl with
    | Some d, Some r -> (d, r)
    | _ -> assert false
  in
  let fv_failover = Option.bind repl.R.repl_failover Replication.Failover.outcome in
  let survivor =
    match fv_failover with
    | Some o -> o.Replication.Failover.fo_applied_lsn
    | None -> Replication.Replica.applied_lsn repl.R.repl_replica
  in
  let promoted = Replication.Replica.engine repl.R.repl_replica in
  let survived = List.length (List.filter (Crash.survived ~prefix:survivor) audits) in
  (* The promoted replica is the survivor.  In semi-sync the ack gate means
     an acknowledged commit was already persisted (hence applied) on the
     replica, so every acked marker must sit inside the surviving prefix
     (RPO = 0); a degrade edge voids the gate from then on (that is its
     contract), so the clause only binds while the mode held.
     Post-promotion probe commits land in their own table, left out of
     the primary-vs-promoted comparison. *)
  let violations =
    Crash.survival ~oracle:"failover" ~dur ~audits ~prefix:survivor
      ~acked_bound:
        (mode = Config.Repl_semi_sync
        && not (Replication.Shipper.degraded repl.R.repl_shipper))
      ~exclude:Replication.Failover.probe_table promoted
    @
    (* A completed failover must leave an engine that serves new
       transactions: the probe commits prove it. *)
    match fv_failover with
    | Some o when o.Replication.Failover.fo_probe_commits = 0 ->
      [
        {
          Violation.oracle = "failover";
          detail = "promotion completed but no probe transaction committed";
        };
      ]
    | _ -> []
  in
  {
    fv_result;
    fv_promoted = promoted;
    fv_survivor_lsn = survivor;
    fv_audits = audits;
    fv_survived_commits = survived;
    fv_lost_commits = List.length audits - survived;
    fv_acked = Durability.Daemon.acked_count dur.R.dur_daemon;
    fv_acked_lost =
      (match fv_result.R.replication with
      | Some rs -> rs.R.rs_acked_lost
      | None -> 0);
    fv_failover;
    fv_violations = violations;
  }
