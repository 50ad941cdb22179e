type stats = {
  mutable commits : int;
  mutable aborts_conflict : int;
  mutable aborts_validation : int;
  mutable aborts_deadlock : int;
  mutable aborts_user : int;
  mutable reads : int;
  mutable updates : int;
  mutable inserts : int;
  mutable deletes : int;
}

type observer = {
  obs_read : txn:Txn.t -> table:Table.t -> oid:int -> version:Version.t option -> unit;
  obs_write : txn:Txn.t -> table:Table.t -> oid:int -> unit;
  obs_commit : txn:Txn.t -> commit_ts:int64 -> unit;
  obs_abort : txn:Txn.t -> reason:Err.abort_reason -> unit;
}

type lifecycle = {
  on_begin : Txn.t -> unit;
  on_end : Txn.t -> unit;
}

(* Durability lives above storage (lib/durability owns the log and the
   group-commit daemon); the engine only signals it through these hooks. *)
type durability = {
  dur_reserve : Txn.t -> unit;
  dur_release : Txn.t -> unit;
  dur_commit : Txn.t -> commit_ts:int64 -> int;
  dur_table_created : string -> unit;
}

type fault = Skip_write_lock

type t = {
  ts : Timestamp.t;
  table_by_name : (string, Table.t) Hashtbl.t;
  mutable table_list : Table.t list;  (* creation order *)
  mutable next_table_id : int;
  mutable next_txn_id : int;
  active : (int, Txn.t) Hashtbl.t;
  mutable durability : durability option;
  mutable observer : observer option;
  mutable lifecycle : lifecycle option;
  mutable fault : fault option;
  pool : Version.pool;
  st : stats;
}

let create () =
  {
    ts = Timestamp.create ();
    table_by_name = Hashtbl.create 16;
    table_list = [];
    next_table_id = 0;
    next_txn_id = 0;
    active = Hashtbl.create 64;
    durability = None;
    observer = None;
    lifecycle = None;
    fault = None;
    pool = Version.pool_create ();
    st =
      {
        commits = 0;
        aborts_conflict = 0;
        aborts_validation = 0;
        aborts_deadlock = 0;
        aborts_user = 0;
        reads = 0;
        updates = 0;
        inserts = 0;
        deletes = 0;
      };
  }

let timestamp t = t.ts
let stats t = t.st
let version_pool t = t.pool
let set_durability t d = t.durability <- d
let durability t = t.durability
let set_observer t obs = t.observer <- obs
let set_lifecycle t lc = t.lifecycle <- lc

let active_snapshots t =
  Hashtbl.fold (fun _ txn acc -> txn.Txn.begin_ts :: acc) t.active []

let inject_fault t fault = t.fault <- fault
let fault t = t.fault

let total_aborts st =
  st.aborts_conflict + st.aborts_validation + st.aborts_deadlock + st.aborts_user

let create_table t name =
  if Hashtbl.mem t.table_by_name name then
    invalid_arg (Printf.sprintf "Engine.create_table: duplicate table %S" name);
  let table = Table.create ~id:t.next_table_id ~name in
  t.next_table_id <- t.next_table_id + 1;
  Hashtbl.replace t.table_by_name name table;
  t.table_list <- table :: t.table_list;
  (match t.durability with Some d -> d.dur_table_created name | None -> ());
  table

let table t name = Hashtbl.find t.table_by_name name
let tables t = List.rev t.table_list

type chain_stat = {
  cs_table : string;
  cs_tuples : int;
  cs_versions : int;  (* committed versions across all chains *)
  cs_max_len : int;
  cs_mean_len : float;
}

let chain_stats t =
  List.map
    (fun table ->
      let tuples = ref 0 and versions = ref 0 and max_len = ref 0 in
      Table.iter table (fun tuple ->
          incr tuples;
          let len = Version.committed_length (Tuple.head tuple) in
          versions := !versions + len;
          if len > !max_len then max_len := len);
      {
        cs_table = Table.name table;
        cs_tuples = !tuples;
        cs_versions = !versions;
        cs_max_len = !max_len;
        cs_mean_len = (if !tuples = 0 then 0. else float_of_int !versions /. float_of_int !tuples);
      })
    (tables t)

let begin_txn ?(iso = Txn.Si) t ~worker ~ctx =
  t.next_txn_id <- t.next_txn_id + 1;
  (* The begin timestamp is the current counter value: the snapshot sees
     everything committed so far. *)
  let txn = Txn.make ~id:t.next_txn_id ~begin_ts:(Timestamp.current t.ts) ~iso ~worker ~ctx in
  Hashtbl.replace t.active txn.Txn.id txn;
  (match t.lifecycle with Some lc -> lc.on_begin txn | None -> ());
  txn

let active_txn t id = Hashtbl.find_opt t.active id

let require_active txn op =
  if not (Txn.is_active txn) then
    invalid_arg
      (Printf.sprintf "Engine.%s: txn %d is %s" op txn.Txn.id
          (Txn.state_to_string txn.Txn.state))

let track_read txn table tuple version =
  if txn.Txn.iso = Txn.Serializable then
    txn.Txn.reads <-
      { Txn.rtable = table; rtuple = tuple; observed = version.Version.begin_ts }
      :: txn.Txn.reads

let read t txn table ~oid =
  require_active txn "read";
  t.st.reads <- t.st.reads + 1;
  let tuple = Table.get table oid in
  let version =
    match txn.Txn.iso with
    | Txn.Read_committed -> (
      match Txn.find_write txn tuple with
      | Some w -> w.Txn.wversion
      | None ->
        let v = Version.latest_committed (Tuple.head tuple) in
        if not (Version.is_nil v) then track_read txn table tuple v;
        v)
    | Txn.Si | Txn.Serializable ->
      let v =
        Version.snapshot_read (Tuple.head tuple) ~snapshot:txn.Txn.begin_ts ~reader:txn.Txn.id
      in
      if (not (Version.is_nil v)) && Version.is_committed v then track_read txn table tuple v;
      v
  in
  (match t.observer with
  | Some o ->
    o.obs_read ~txn ~table ~oid
      ~version:(if Version.is_nil version then None else Some version)
  | None -> ());
  (* [Version.nil.data] is [None]: an invisible record reads as absent *)
  version.Version.data

let install_write t txn table tuple data =
  let version = Version.in_flight_of t.pool ~writer:txn.Txn.id data in
  Tuple.install tuple version;
  txn.Txn.writes <- { Txn.wtable = table; wtuple = tuple; wversion = version } :: txn.Txn.writes

let notify_write t txn table oid =
  match t.observer with Some o -> o.obs_write ~txn ~table ~oid | None -> ()

(* [v], a committed version or [Version.nil], postdates [txn]'s snapshot *)
let committed_after v txn =
  (not (Version.is_nil v)) && Int64.compare v.Version.begin_ts txn.Txn.begin_ts > 0

let write_internal t txn table ~oid data op =
  require_active txn op;
  let tuple = Table.get table oid in
  match Txn.find_write txn tuple with
  | Some w ->
    (* Second write by the same transaction: update the in-flight version
       in place. *)
    w.Txn.wversion.Version.data <- data;
    notify_write t txn table oid;
    Ok ()
  | None when t.fault = Some Skip_write_lock ->
    (* Injected bug (checker self-test): install blindly, skipping the
       first-updater-wins check, the snapshot-freshness check and the
       install latch — the classic lost-update race the serializability
       oracle must be able to catch. *)
    install_write t txn table tuple data;
    notify_write t txn table oid;
    Ok ()
  | None ->
    let head = Tuple.head tuple in
    if not (Version.is_committed head) then
      (* First-updater-wins: someone else's in-flight version is at the
         head.  ([Version.nil] counts as committed.) *)
      Error Err.Write_conflict
    else if
      match txn.Txn.iso with
      | Txn.Read_committed -> false
      | Txn.Si | Txn.Serializable -> committed_after (Version.latest_committed head) txn
    then Error Err.Write_conflict
    else if
      (* A serializable certifier may hold this latch across commit
         stages; a write squeezing in would fail its validation anyway. *)
      not (Tuple.try_latch tuple ~owner:txn.Txn.id)
    then Error Err.Write_conflict
    else begin
      install_write t txn table tuple data;
      Tuple.unlatch tuple ~owner:txn.Txn.id;
      notify_write t txn table oid;
      Ok ()
    end

let update t txn table ~oid data =
  t.st.updates <- t.st.updates + 1;
  write_internal t txn table ~oid (Some data) "update"

let delete t txn table ~oid =
  t.st.deletes <- t.st.deletes + 1;
  write_internal t txn table ~oid None "delete"

let insert t txn table data =
  require_active txn "insert";
  t.st.inserts <- t.st.inserts + 1;
  let tuple = Table.alloc table in
  install_write t txn table tuple (Some data);
  notify_write t txn table tuple.Tuple.oid;
  tuple

(* -- staged commit ------------------------------------------------------ *)

let commit_begin t txn =
  require_active txn "commit_begin";
  (* The durability layer tracks transactions between commit-begin and
     their final commit/abort; an abort on any path must release this. *)
  (match t.durability with Some d -> d.dur_reserve txn | None -> ());
  txn.Txn.state <- Txn.Preparing;
  (* One entry per (table id, oid), in that order: a tuple read and written,
     or read twice, is latched once. *)
  let plan =
    List.rev_map (fun w -> (Table.id w.Txn.wtable, w.Txn.wtuple)) txn.Txn.writes
  in
  let plan =
    if txn.Txn.iso = Txn.Serializable then
      List.fold_left (fun acc r -> (Table.id r.Txn.rtable, r.Txn.rtuple) :: acc) plan txn.Txn.reads
    else plan
  in
  let by_key (t1, (u1 : Tuple.t)) (t2, (u2 : Tuple.t)) =
    if t1 <> t2 then Int.compare t1 t2 else Int.compare u1.Tuple.oid u2.Tuple.oid
  in
  txn.Txn.latch_plan <- Array.of_list (List.map snd (List.sort_uniq by_key plan));
  txn.Txn.latched <- 0

let commit_latch_next t txn =
  ignore t;
  if txn.Txn.state <> Txn.Preparing then
    invalid_arg "Engine.commit_latch_next: not preparing";
  if txn.Txn.latched >= Array.length txn.Txn.latch_plan then `Done
  else begin
    let tuple = txn.Txn.latch_plan.(txn.Txn.latched) in
    if Tuple.try_latch tuple ~owner:txn.Txn.id then begin
      txn.Txn.latched <- txn.Txn.latched + 1;
      `Acquired
    end
    else
      match Tuple.latch_holder tuple with
      | Some owner -> `Busy owner
      | None -> assert false
  end

let commit_validate t txn =
  ignore t;
  if txn.Txn.state <> Txn.Preparing then
    invalid_arg "Engine.commit_validate: not preparing";
  match txn.Txn.iso with
  | Txn.Read_committed | Txn.Si -> Ok ()
  | Txn.Serializable ->
    let stale =
      List.exists
        (fun r -> committed_after (Version.latest_committed (Tuple.head r.Txn.rtuple)) txn)
        txn.Txn.reads
    in
    if stale then Error Err.Read_validation else Ok ()

let release_latches txn =
  for i = txn.Txn.latched - 1 downto 0 do
    Tuple.unlatch txn.Txn.latch_plan.(i) ~owner:txn.Txn.id
  done;
  txn.Txn.latched <- 0

let commit_install t txn =
  if txn.Txn.state <> Txn.Preparing then
    invalid_arg "Engine.commit_install: not preparing";
  let commit_ts = Timestamp.next t.ts in
  List.iter (fun w -> Version.stamp w.Txn.wversion commit_ts) txn.Txn.writes;
  (* Redo records + commit marker land in one atomic step, so the
     transaction's log range is contiguous; the marker LSN is its
     durability point (what the worker waits on). *)
  (match t.durability with
  | Some d -> txn.Txn.commit_lsn <- Some (d.dur_commit txn ~commit_ts)
  | None -> ());
  release_latches txn;
  txn.Txn.state <- Txn.Committed;
  txn.Txn.commit_ts <- Some commit_ts;
  Hashtbl.remove t.active txn.Txn.id;
  (match t.lifecycle with Some lc -> lc.on_end txn | None -> ());
  t.st.commits <- t.st.commits + 1;
  (match t.observer with Some o -> o.obs_commit ~txn ~commit_ts | None -> ());
  commit_ts

let count_abort t = function
  | Err.Write_conflict -> t.st.aborts_conflict <- t.st.aborts_conflict + 1
  | Err.Read_validation -> t.st.aborts_validation <- t.st.aborts_validation + 1
  | Err.Latch_deadlock -> t.st.aborts_deadlock <- t.st.aborts_deadlock + 1
  | Err.User_abort -> t.st.aborts_user <- t.st.aborts_user + 1

let abort ?(reason = Err.User_abort) t txn =
  (match txn.Txn.state with
  | Txn.Committed | Txn.Aborted ->
    invalid_arg
      (Printf.sprintf "Engine.abort: txn %d already %s" txn.Txn.id
          (Txn.state_to_string txn.Txn.state))
  | Txn.Active | Txn.Preparing -> ());
  (* Every abort path drops the durability reservation (idempotent on the
     other side) — a parked registration must never leak past abort. *)
  (match t.durability with Some d -> d.dur_release txn | None -> ());
  release_latches txn;
  List.iter (fun w -> Tuple.unlink_in_flight w.Txn.wtuple ~writer:txn.Txn.id) txn.Txn.writes;
  List.iter (fun undo -> undo ()) txn.Txn.undo;
  txn.Txn.state <- Txn.Aborted;
  Hashtbl.remove t.active txn.Txn.id;
  (match t.lifecycle with Some lc -> lc.on_end txn | None -> ());
  count_abort t reason;
  (match t.observer with Some o -> o.obs_abort ~txn ~reason | None -> ());
  (* The in-flight versions were unlinked above and the observer has had
     its look: recycle them.  The write entries stay on the txn record
     (aborted txns are inspected by checkers), but their version nodes are
     pool property from here on. *)
  List.iter (fun w -> Version.release t.pool w.Txn.wversion) txn.Txn.writes

let commit t txn =
  commit_begin t txn;
  let rec latch_all () =
    match commit_latch_next t txn with
    | `Acquired -> latch_all ()
    | `Done -> Ok ()
    | `Busy _ -> Error Err.Latch_deadlock
  in
  match latch_all () with
  | Error reason ->
    abort ~reason t txn;
    Error reason
  | Ok () -> (
    match commit_validate t txn with
    | Error reason ->
      abort ~reason t txn;
      Error reason
    | Ok () -> Ok (commit_install t txn))
