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
   range at a time (a replica tailing the primary's log).  Feeding is
   idempotent — re-feeding a record a replica already applied (duplicated
   delivery, overlap after a NAK re-request) lands on the same row in
   place — because [install] orders by commit timestamp.

   Applied state is flat: per table, in creation order, the latest payload
   and commit timestamp of each OID in two arrays.  The engine is built
   from them once, at [finish] or at the first [engine] call. *)
module Applier = struct
  (* [stamps.(oid) = absent]: nothing installed at [oid] (an aborted
     insert's gap); otherwise [rows.(oid)] is the payload, [tombstone]
     for a delete.  Slots at or past [size] are unused. *)
  type table = {
    name : string;
    mutable rows : Value.t array;
    mutable stamps : int array;
    mutable size : int;  (* 1 + the highest installed OID *)
  }

  type write = { wtable : table; woid : int; wpayload : Value.t option; wts : int }

  type t = {
    by_name : (string, table) Hashtbl.t;
    mutable tables : table list;  (* newest first *)
    mutable eng : Engine.t option;
    mutable max_ts : int;
    mutable replayed : int;
    mutable applied : int;
    pending : (int, write list) Hashtbl.t;
    (* 2PC (lib/shard): writes whose prepare marker is durable are held
       in-doubt — neither installed nor torn — keyed by global txn id,
       until cross-shard decision records resolve them. *)
    prepared_ : (int, write list) Hashtbl.t;
    installed_ : (int, int64) Hashtbl.t;  (* gid → in-memory commit ts (-4) *)
    decisions_ : (int, int64 * int list) Hashtbl.t;
        (* gid → (commit ts, participant shards) from -6 records *)
  }

  let absent = -1

  (* A row of one field allocated here: no installed payload is
     physically equal to it. *)
  let tombstone = Value.of_fields [| Value.Int 0 |]

  let create () =
    {
      by_name = Hashtbl.create 16;
      tables = [];
      eng = None;
      max_ts = 0;
      replayed = 0;
      applied = 0;
      pending = Hashtbl.create 64;
      prepared_ = Hashtbl.create 16;
      installed_ = Hashtbl.create 16;
      decisions_ = Hashtbl.create 16;
    }

  let unbuilt t what =
    if Option.is_some t.eng then
      invalid_arg (Printf.sprintf "Recovery.Applier.%s: the engine is already built" what)

  let table_of t name =
    match Hashtbl.find t.by_name name with
    | tb -> tb
    | exception Not_found ->
      let tb = { name; rows = [||]; stamps = [||]; size = 0 } in
      Hashtbl.replace t.by_name name tb;
      t.tables <- tb :: t.tables;
      tb

  let create_table t name =
    unbuilt t "create_table";
    ignore (table_of t name)

  (* Room for OIDs below [n], growing by half again past the need. *)
  let ensure tb n =
    let cap = Array.length tb.stamps in
    if n > cap then begin
      let cap' = max n (cap + (cap / 2)) in
      let rows = Array.make cap' tombstone and stamps = Array.make cap' absent in
      Array.blit tb.rows 0 rows 0 tb.size;
      Array.blit tb.stamps 0 stamps 0 tb.size;
      tb.rows <- rows;
      tb.stamps <- stamps
    end

  (* The applied state is the latest committed one: a newer commit
     replaces the OID's payload, the same transaction seen twice (image +
     replay, or a re-write) lands in place, the later replay winning, and
     an older one is ignored.  The built engine's first snapshot lies
     past [max_ts], so no reader could ask for an older version. *)
  let install t tb ~oid ~ts payload =
    ensure tb (oid + 1);
    if oid >= tb.size then tb.size <- oid + 1;
    let cur = tb.stamps.(oid) in
    if cur = absent || cur <= ts then begin
      tb.rows.(oid) <- (match payload with Some row -> row | None -> tombstone);
      tb.stamps.(oid) <- ts
    end;
    if ts > t.max_ts then t.max_ts <- ts

  let load_image t image =
    unbuilt t "load_image";
    let rows = ref 0 in
    List.iter
      (fun (name, image_rows) ->
        let tb = table_of t name in
        (* the image lists OIDs in order: size the arrays once *)
        ensure tb (List.fold_left (fun acc (oid, _, _) -> max acc (oid + 1)) 0 image_rows);
        List.iter
          (fun (oid, payload, ts) ->
            incr rows;
            install t tb ~oid ~ts:(Int64.to_int ts) payload)
          image_rows)
      image;
    !rows

  let take tbl key =
    match Hashtbl.find tbl key with
    | writes ->
      Hashtbl.remove tbl key;
      writes
    | exception Not_found -> []

  let apply t writes =
    List.iter (fun w -> install t w.wtable ~oid:w.woid ~ts:w.wts w.wpayload) (List.rev writes)

  (* Buffer records per transaction; apply the batch when the commit
     marker arrives.  Records of a transaction whose marker never shows up
     stay invisible (torn tail / un-shipped suffix). *)
  let feed_one t log lsn =
    t.replayed <- t.replayed + 1;
    match Log.kind_at log lsn with
    | Log.Write ->
      let txn = Log.txn_at log lsn in
      let prev = try Hashtbl.find t.pending txn with Not_found -> [] in
      Hashtbl.replace t.pending txn
        ({
           wtable = table_of t (Log.table_at log lsn);
           woid = Log.oid_at log lsn;
           wpayload = Log.payload_at log lsn;
           wts = Int64.to_int (Log.ts_at log lsn);
         }
        :: prev)
    | Log.Commit_marker ->
      apply t (take t.pending (Log.txn_at log lsn));
      t.applied <- t.applied + 1
    | Log.Ddl -> ignore (table_of t (Log.table_at log lsn))
    | Log.Prepare_marker ->
      (* Seal the buffered writes as in-doubt: durable enough to survive
         the crash, but only a decision record may install them. *)
      let gid = Log.txn_at log lsn in
      Hashtbl.replace t.prepared_ gid (take t.pending gid)
    | Log.Install_marker ->
      Hashtbl.replace t.installed_ (Log.txn_at log lsn) (Log.ts_at log lsn)
    | Log.Decision ->
      let participants =
        match Log.payload_at log lsn with
        | Some vals ->
          List.init (Value.length vals) (Value.get vals)
          |> List.filter_map (function Value.Int p -> Some p | _ -> None)
        | None -> []
      in
      Hashtbl.replace t.decisions_ (Log.txn_at log lsn) (Log.ts_at log lsn, participants)

  let feed t log ~first ~upto =
    unbuilt t "feed";
    for lsn = first to upto - 1 do
      feed_one t log lsn
    done

  let replayed t = t.replayed
  let applied t = t.applied
  let pending_txns t = Hashtbl.length t.pending
  let tables_created t = List.length t.tables
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
    unbuilt t "resolve_in_doubt";
    let committed = ref 0 and aborted = ref 0 in
    List.iter
      (fun gid ->
        let writes = take t.prepared_ gid in
        let verdict =
          match Hashtbl.find_opt t.installed_ gid with
          | Some ts -> Some ts
          | None -> decided gid
        in
        match verdict with
        | Some ts ->
          incr committed;
          apply t (List.map (fun w -> { w with wts = Int64.to_int ts }) writes)
        | None -> incr aborted)
      (List.sort compare (prepared_gids t));
    (!committed, !aborted)

  let discard_pending t =
    let torn = Hashtbl.length t.pending in
    Hashtbl.reset t.pending;
    torn

  (* One tuple per OID below [size], creation order keeping the table
     ids; an installed OID gets its one committed version.  The flat
     arrays are dropped: nothing installs after the build. *)
  let build t =
    let eng = Engine.create () in
    List.iter
      (fun tb ->
        let table = Engine.create_table eng tb.name in
        for oid = 0 to tb.size - 1 do
          let tuple = Table.alloc table in
          let ts = tb.stamps.(oid) in
          if ts <> absent then begin
            let row = tb.rows.(oid) in
            Tuple.install tuple
              (Version.committed ~ts:(Int64.of_int ts)
                 (if row == tombstone then None else Some row))
          end
        done;
        tb.rows <- [||];
        tb.stamps <- [||])
      (List.rev t.tables);
    t.eng <- Some eng;
    eng

  let engine t = match t.eng with Some eng -> eng | None -> build t

  (* resume the commit-timestamp counter past everything replayed *)
  let finish t = Timestamp.advance_to (Engine.timestamp (engine t)) (Int64.of_int t.max_ts)
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
  Applier.feed ap log ~first:from_lsn ~upto:(Log.durable_lsn log);
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
