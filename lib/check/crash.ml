module R = Preemptdb.Runner
module Txn = Storage.Txn
module Table = Storage.Table
module Tuple = Storage.Tuple
module Version = Storage.Version

type audit_write = {
  aw_table : string;
  aw_oid : int;
  aw_payload : Storage.Value.t option;
}

type audit = {
  ac_id : int;
  ac_ts : int64;
  ac_lsn : int option;
  ac_writes : audit_write list;
}

type outcome = {
  co_result : R.result;
  co_recovered : Storage.Engine.t;
  co_rec_stats : Durability.Recovery.stats;
  co_audits : audit list;  (* commit-ts order *)
  co_durable_commits : int;
  co_lost_commits : int;
  co_acked : int;
  co_violations : Violation.t list;
}

(* Audit every commit of a mixed-workload run from the engine side, with
   the fault [plan] installed (and the lying-daemon fault when
   [early_ack]).  Returns the audits in commit-timestamp order. *)
let audited_run ~cfg ?tpcc_cfg ?tpch_cfg ~early_ack ~plan ~arrival_interval_us
    ~horizon_sec () =
  let audits = ref [] in
  let node = ref None in
  let prepare (a : R.assembly) =
    node := Some a;
    (match a.R.dur with
    | Some d when early_ack -> Durability.Daemon.set_early_ack d.R.dur_daemon true
    | _ -> ());
    Storage.Engine.set_observer a.R.eng
      (Some
         {
           Storage.Engine.obs_read = (fun ~txn:_ ~table:_ ~oid:_ ~version:_ -> ());
           obs_write = (fun ~txn:_ ~table:_ ~oid:_ -> ());
           obs_commit =
             (fun ~txn ~commit_ts ->
               audits :=
                 {
                   ac_id = txn.Txn.id;
                   ac_ts = commit_ts;
                   ac_lsn = txn.Txn.commit_lsn;
                   ac_writes =
                     List.rev_map
                       (fun w ->
                         {
                           aw_table = Table.name w.Txn.wtable;
                           aw_oid = w.Txn.wtuple.Tuple.oid;
                           aw_payload = w.Txn.wversion.Version.data;
                         })
                       txn.Txn.writes;
                 }
                 :: !audits);
           obs_abort = (fun ~txn:_ ~reason:_ -> ());
         });
    Faults.Injector.install plan a
  in
  let result =
    R.run_mixed ~cfg ?tpcc_cfg ?tpch_cfg ~prepare ~arrival_interval_us ~horizon_sec ()
  in
  let node = match !node with Some a -> a | None -> assert false in
  (result, node, List.sort (fun a b -> Int64.compare a.ac_ts b.ac_ts) !audits)

let survived ~prefix a = match a.ac_lsn with Some l -> l < prefix | None -> false

(* The independently-derived expected surviving state: the bootstrap base
   image overlaid with every audited commit whose marker lies inside the
   surviving prefix, in commit-timestamp order.  Built from the
   engine-side audit trail, not from the log records, so it cross-checks
   the whole append/flush(/ship/persist)/replay pipeline. *)
let expected_state (log : Durability.Log.t) ~prefix audits =
  let exp : (string * int, int64 * Storage.Value.t option) Hashtbl.t =
    Hashtbl.create 1024
  in
  List.iter
    (fun (tname, rows) ->
      List.iter
        (fun (oid, payload, ts) -> Hashtbl.replace exp (tname, oid) (ts, payload))
        rows)
    (Durability.Log.base log);
  List.iter
    (fun a ->
      if survived ~prefix a then
        List.iter
          (fun w -> Hashtbl.replace exp (w.aw_table, w.aw_oid) (a.ac_ts, w.aw_payload))
          a.ac_writes)
    audits;
  exp

let actual_state ?exclude (eng : Storage.Engine.t) =
  let act : (string * int, int64 * Storage.Value.t option) Hashtbl.t =
    Hashtbl.create 1024
  in
  List.iter
    (fun table ->
      let name = Table.name table in
      if Some name <> exclude then
        Table.iter table (fun tuple ->
            let v = Version.latest_committed (Tuple.head tuple) in
            if not (Version.is_nil v) then
              Hashtbl.replace act (name, tuple.Tuple.oid) (v.Version.begin_ts, v.Version.data)))
    (Storage.Engine.tables eng);
  act

let payload_to_string = function
  | None -> "<tombstone>"
  | Some v ->
    Printf.sprintf "%d fields, %d bytes" (Storage.Value.length v) (Storage.Value.size_bytes v)

let survival ~oracle ~(dur : R.dur_parts) ~audits ~prefix ~acked_bound ?exclude survivor =
  let dm = dur.R.dur_daemon in
  let vs = ref [] in
  let add fmt =
    Format.kasprintf (fun d -> vs := { Violation.oracle; detail = d } :: !vs) fmt
  in
  (* 1. The daemon never acknowledged a commit whose marker was not yet
     durable (the early-ack fault makes this fire — the self-test). *)
  let viol = Durability.Daemon.ack_violations dm in
  if viol > 0 then add "%d commit acks issued before the marker was durable" viol;
  (* 2. Every ack is backed by an audited commit and, where the survivor
     promises it, lies inside the surviving prefix: acked effects cannot
     die with the failure. *)
  let audited_lsns = Hashtbl.create 256 in
  List.iter
    (fun a -> match a.ac_lsn with Some l -> Hashtbl.replace audited_lsns l a | None -> ())
    audits;
  List.iter
    (fun lsn ->
      if acked_bound && lsn >= prefix then
        add "acked marker %d outside the surviving prefix %d" lsn prefix;
      if not (Hashtbl.mem audited_lsns lsn) then
        add "acked marker %d matches no audited commit" lsn)
    (Durability.Daemon.acked dm);
  (* 3. With durability armed, every committed transaction has a marker. *)
  List.iter
    (fun a ->
      if a.ac_lsn = None then add "committed txn %d has no marker LSN" a.ac_id)
    audits;
  (* 4. Surviving state = base image + exactly the commits inside the
     prefix, in both directions: surviving effects are present, lost
     effects are invisible, and fuzzy-checkpoint images or at-least-once
     shipping converge to the same rows. *)
  let exp = expected_state dur.R.dur_log ~prefix audits in
  let act = actual_state ?exclude survivor in
  Hashtbl.iter
    (fun (tname, oid) (ets, epay) ->
      match Hashtbl.find_opt act (tname, oid) with
      | None ->
        if epay <> None then
          add "%s[%d]: expected a surviving row (ts %Ld), the survivor has none" tname oid
            ets
      | Some (ats, apay) ->
        if not (Int64.equal ets ats) then
          add "%s[%d]: commit ts %Ld survives as %Ld" tname oid ets ats
        else if not (Option.equal Storage.Value.equal epay apay) then
          add "%s[%d]: payload mismatch at ts %Ld (expected %s, got %s)" tname oid ets
            (payload_to_string epay) (payload_to_string apay))
    exp;
  Hashtbl.iter
    (fun (tname, oid) (ats, _) ->
      if not (Hashtbl.mem exp (tname, oid)) then
        add "%s[%d]: surviving row (ts %Ld) matches no base row or surviving commit"
          tname oid ats)
    act;
  (* 5. Surviving version chains are well-formed. *)
  let chains = Oracle.version_chains survivor in
  List.rev !vs @ chains

let run ~cfg ?tpcc_cfg ?tpch_cfg ?(crash_at_us = 0.) ?(crash_seed = 11L)
    ?(early_ack = false) ?(arrival_interval_us = 400.) ?(horizon_sec = 0.01) () =
  (match cfg.Preemptdb.Config.durability with
  | None -> invalid_arg "Check.Crash.run: cfg.durability must be set"
  | Some _ -> ());
  let co_result, node, audits =
    audited_run ~cfg ?tpcc_cfg ?tpch_cfg ~early_ack
      ~plan:{ Faults.Plan.none with Faults.Plan.crash_at_us; seed = crash_seed }
      ~arrival_interval_us ~horizon_sec ()
  in
  let dur = match node.R.dur with Some d -> d | None -> assert false in
  let prefix = Durability.Log.durable_lsn dur.R.dur_log in
  let co_recovered, co_rec_stats = Durability.Recovery.recover_with_stats dur.R.dur_log in
  let durable = List.length (List.filter (survived ~prefix) audits) in
  {
    co_result;
    co_recovered;
    co_rec_stats;
    co_audits = audits;
    co_durable_commits = durable;
    co_lost_commits = List.length audits - durable;
    co_acked = Durability.Daemon.acked_count dur.R.dur_daemon;
    co_violations =
      survival ~oracle:"durability" ~dur ~audits ~prefix ~acked_bound:true co_recovered;
  }
