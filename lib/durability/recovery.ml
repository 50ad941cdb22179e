module Engine = Storage.Engine
module Table = Storage.Table
module Tuple = Storage.Tuple
module Version = Storage.Version
module Value = Storage.Value
module Timestamp = Storage.Timestamp

type stats = {
  rec_from_ckpt : bool;
  rec_image_rows : int;
  rec_entries_replayed : int;
  rec_txns_applied : int;
  rec_txns_torn : int;  (* records durable, commit marker lost *)
  rec_tables_created : int;
}

(* The incremental redo applier: the same buffer-until-marker replay loop
   whether the records arrive all at once (crash recovery) or one shipped
   batch at a time (a replica tailing the primary's log).  Feeding is
   idempotent — re-feeding a record a replica already applied (duplicated
   delivery, overlap after a NAK re-request) installs the same version in
   place — because [install_row] orders by commit timestamp. *)
module Applier = struct
  type t = {
    eng : Engine.t;
    mutable tables_created : int;
    mutable max_ts : int64;
    mutable replayed : int;
    mutable applied : int;
    pending : (int, (Table.t * int * Value.t option * int64) list) Hashtbl.t;
    (* 2PC (lib/shard): writes whose prepare marker is durable are held
       in-doubt — neither installed nor torn — keyed by global txn id,
       until cross-shard decision records resolve them. *)
    prepared_ : (int, (Table.t * int * Value.t option * int64) list) Hashtbl.t;
    installed_ : (int, int64) Hashtbl.t;  (* gid → in-memory commit ts (-4) *)
    decisions_ : (int, int64 * int list) Hashtbl.t;
        (* gid → (commit ts, participant shards) from -6 records *)
  }

  let create () =
    {
      eng = Engine.create ();
      tables_created = 0;
      max_ts = 0L;
      replayed = 0;
      applied = 0;
      pending = Hashtbl.create 64;
      prepared_ = Hashtbl.create 16;
      installed_ = Hashtbl.create 16;
      decisions_ = Hashtbl.create 16;
    }

  let engine t = t.eng

  let table_of t name =
    match Engine.table t.eng name with
    | table -> table
    | exception Not_found ->
      t.tables_created <- t.tables_created + 1;
      Engine.create_table t.eng name

  let create_table t name = ignore (table_of t name)

  let install_row t table ~oid ~ts payload =
    (* materialize OID gaps left by aborted inserts *)
    while Table.size table <= oid do
      ignore (Table.alloc table)
    done;
    let tuple = Table.get table oid in
    let v = Version.latest_committed (Tuple.head tuple) in
    (* No transaction runs on an applier's engine before [finish], so every
       chain here is empty or one committed version.  A newer commit
       overwrites that version in place: the applied state is the latest
       committed one, and the promoted engine's first snapshot lies past
       [max_ts], so no reader could ask for an older version.  The same
       transaction seen twice (image + replay, or a re-write) lands in
       place too, the later replay winning; an older one is ignored. *)
    if Version.is_nil v then Tuple.install tuple (Version.committed ~ts payload)
    else if Int64.compare v.Version.begin_ts ts <= 0 then begin
      v.Version.data <- payload;
      v.Version.begin_ts <- ts
    end;
    if Int64.compare ts t.max_ts > 0 then t.max_ts <- ts

  let load_image t image =
    let rows = ref 0 in
    List.iter
      (fun (name, image_rows) ->
        let table = table_of t name in
        List.iter
          (fun (oid, payload, ts) ->
            incr rows;
            install_row t table ~oid ~ts payload)
          image_rows)
      image;
    !rows

  (* Buffer records per transaction; apply the batch when the commit
     marker arrives.  Records of a transaction whose marker never shows up
     stay invisible (torn tail / un-shipped suffix). *)
  let feed t (r : Log.record) =
    t.replayed <- t.replayed + 1;
    if Log.is_ddl r then ignore (table_of t r.Log.rtable)
    else if Log.is_prepare r then begin
      (* Seal the buffered writes as in-doubt: durable enough to survive
         the crash, but only a decision record may install them. *)
      let gid = r.Log.txn_id in
      let writes = try Hashtbl.find t.pending gid with Not_found -> [] in
      Hashtbl.remove t.pending gid;
      Hashtbl.replace t.prepared_ gid writes
    end
    else if Log.is_twopc_install r then
      Hashtbl.replace t.installed_ r.Log.txn_id r.Log.commit_ts
    else if Log.is_decision r then begin
      let participants =
        match r.Log.payload with
        | Some vals ->
          List.init (Value.length vals) (Value.get vals)
          |> List.filter_map (function Value.Int p -> Some p | _ -> None)
        | None -> []
      in
      Hashtbl.replace t.decisions_ r.Log.txn_id
        (r.Log.commit_ts, participants)
    end
    else if Log.is_marker r then begin
      let writes =
        try Hashtbl.find t.pending r.Log.txn_id with Not_found -> []
      in
      Hashtbl.remove t.pending r.Log.txn_id;
      List.iter
        (fun (table, oid, payload, ts) -> install_row t table ~oid ~ts payload)
        (List.rev writes);
      t.applied <- t.applied + 1
    end
    else begin
      let prev =
        try Hashtbl.find t.pending r.Log.txn_id with Not_found -> []
      in
      Hashtbl.replace t.pending r.Log.txn_id
        (( table_of t r.Log.rtable,
           r.Log.oid,
           r.Log.payload,
           r.Log.commit_ts )
        :: prev)
    end

  let replayed t = t.replayed
  let applied t = t.applied
  let pending_txns t = Hashtbl.length t.pending
  let tables_created t = t.tables_created
  let prepared_count t = Hashtbl.length t.prepared_
  let prepared_gids t = Hashtbl.fold (fun gid _ acc -> gid :: acc) t.prepared_ []
  let prepared t gid = Hashtbl.mem t.prepared_ gid
  let installed t gid = Hashtbl.mem t.installed_ gid
  let installed_gids t = Hashtbl.fold (fun gid _ acc -> gid :: acc) t.installed_ []

  let decisions t =
    Hashtbl.fold
      (fun gid (ts, participants) acc -> (gid, ts, participants) :: acc)
      t.decisions_ []

  (* Resolve the in-doubt set against the union of durable decisions from
     every shard's log ([decided]): a prepared gid with a durable decision
     anywhere installs at the decision timestamp; one with none is
     presumed aborted and dropped.  Prepares whose -4 install marker is
     durable were already applied through their ordinary commit records —
     those resolve at the -4's in-memory commit timestamp (NOT the later
     decision timestamp, which could clobber writes committed after the
     2PC transaction released its latches).  Returns (committed, aborted). *)
  let resolve_in_doubt t ~decided =
    let committed = ref 0 and aborted = ref 0 in
    List.iter
      (fun gid ->
        let writes = Hashtbl.find t.prepared_ gid in
        Hashtbl.remove t.prepared_ gid;
        let verdict =
          match Hashtbl.find_opt t.installed_ gid with
          | Some ts -> Some ts
          | None -> decided gid
        in
        match verdict with
        | Some ts ->
          incr committed;
          List.iter
            (fun (table, oid, payload, _) -> install_row t table ~oid ~ts payload)
            (List.rev writes)
        | None -> incr aborted)
      (List.sort compare (prepared_gids t));
    (!committed, !aborted)

  let discard_pending t =
    let torn = Hashtbl.length t.pending in
    Hashtbl.reset t.pending;
    torn

  (* resume the commit-timestamp counter past everything replayed *)
  let finish t = Timestamp.advance_to (Engine.timestamp t.eng) t.max_ts
end

(* Newest image wins: a completed checkpoint pass supersedes the bootstrap
   base (and already covers every table alive at pass time).  Load it,
   then replay the durable suffix past it.  A transaction's effects apply
   only when its commit marker is durable — buffered records of a torn
   transaction (its marker past the durable point) stay invisible.
   Returns the applier and the image's row count. *)
let replay log =
  let ap = Applier.create () in
  let image, from_lsn =
    match Log.checkpoint log with
    | Some (start_lsn, image) -> image, start_lsn
    | None ->
      List.iter (fun name -> Applier.create_table ap name) (Log.catalog log);
      Log.base log, 0
  in
  let image_rows = Applier.load_image ap image in
  List.iter
    (fun (r : Log.record) ->
      if r.Log.lsn >= from_lsn then Applier.feed ap r)
    (Log.durable_entries log);
  (ap, image_rows)

(* 2PC variant: return the applier BEFORE discarding torn tails or
   finishing — the caller (the cross-shard atomicity oracle / sharded
   restart) must first union decision records across every shard's log
   and resolve the in-doubt set, then discard and finish. *)
let recover_applier log = fst (replay log)

let recover_with_stats log =
  let ap, image_rows = replay log in
  let torn = Applier.pending_txns ap in
  Applier.finish ap;
  ( Applier.engine ap,
    {
      rec_from_ckpt = Option.is_some (Log.checkpoint log);
      rec_image_rows = image_rows;
      rec_entries_replayed = Applier.replayed ap;
      rec_txns_applied = Applier.applied ap;
      rec_txns_torn = torn;
      rec_tables_created = Applier.tables_created ap;
    } )

let recover log = fst (recover_with_stats log)

(* -- state comparison (test and oracle helper) --------------------------- *)

let table_rows table =
  let rows = ref [] in
  Table.iter table (fun tuple ->
      rows := (tuple.Tuple.oid, Tuple.read_committed tuple) :: !rows);
  (* drop empty slots so allocation-count differences don't matter *)
  List.filter (fun (_, data) -> data <> None) !rows

let durable_state_equal a b =
  let names eng = List.sort compare (List.map Table.name (Engine.tables eng)) in
  let by_oid rows = List.sort (fun (o1, _) (o2, _) -> compare o1 o2) rows in
  names a = names b
  && List.for_all
       (fun name ->
         let rows_a = by_oid (table_rows (Engine.table a name)) in
         let rows_b = by_oid (table_rows (Engine.table b name)) in
         List.length rows_a = List.length rows_b
         && List.for_all2
              (fun (oid_a, data_a) (oid_b, data_b) ->
                oid_a = oid_b
                &&
                match data_a, data_b with
                | Some ra, Some rb -> Value.equal ra rb
                | None, None -> true
                | Some _, None | None, Some _ -> false)
              rows_a rows_b)
       (names a)
