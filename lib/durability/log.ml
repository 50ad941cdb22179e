module Engine = Storage.Engine
module Txn = Storage.Txn
module Table = Storage.Table
module Tuple = Storage.Tuple
module Version = Storage.Version
module Value = Storage.Value
module J = Obs.Json

type record = {
  lsn : int;
  txn_id : int;
  commit_ts : int64;
  rtable : string;
  oid : int;
  payload : Value.t option;
  bytes : int;
}

(* Special oids, all payload-free except the decision record:
   -1 DDL, -2 commit marker, -3 2PC prepare marker (txn_id = the global
   transaction id), -4 2PC install marker (the prepared writes were
   committed in memory), -6 coordinator decision record (txn_id = gid,
   payload = the participant shard ids as an Int array). *)
let is_ddl r = r.oid = -1
let is_marker r = r.oid = -2
let is_prepare r = r.oid = -3
let is_twopc_install r = r.oid = -4
let is_decision r = r.oid = -6

(* Modeled on-device sizes: a fixed header per record, payload bytes on
   top; commit markers and DDL records are header-only. *)
let record_header_bytes = 24
let marker_bytes = 16
let ddl_bytes = 32

(* Records a worker may append between two drains before the append
   counts as a buffer overflow (an emergency drain of that worker's
   redo buffer, ERMIA-style). *)
let buffer_records = 4096

type image = (string * (int * Value.t option * int64) list) list

type t = {
  n_workers : int;
  fill : int array;  (* per worker: records appended since the last drain *)
  mutable overflows : int;
  mutable entries : record array;  (* indexed by LSN, dense *)
  mutable next : int;
  mutable durable : int;
  mutable drained_upto : int;  (* LSNs below were handed to the daemon *)
  mutable pending_bytes_ : int;
  mutable pending_markers_ : int;
  mutable base : image;
  mutable catalog : string list;  (* creation order at snapshot time *)
  mutable ckpt : (int * image) option;  (* start LSN of the completed pass *)
  reservations : (int, unit) Hashtbl.t;
  mutable committed_ : int;
  mutable kick : (unit -> unit) option;
}

let dummy_record =
  { lsn = -1; txn_id = 0; commit_ts = 0L; rtable = ""; oid = 0; payload = None; bytes = 0 }

let create ~n_workers () =
  if n_workers < 1 then invalid_arg "Log.create: need n_workers >= 1";
  {
    n_workers;
    fill = Array.make n_workers 0;
    overflows = 0;
    entries = Array.make 1024 dummy_record;
    next = 0;
    durable = 0;
    drained_upto = 0;
    pending_bytes_ = 0;
    pending_markers_ = 0;
    base = [];
    catalog = [];
    ckpt = None;
    reservations = Hashtbl.create 64;
    committed_ = 0;
    kick = None;
  }

let set_kick t f = t.kick <- f

let next_lsn t = t.next
let durable_lsn t = t.durable
let pending_bytes t = t.pending_bytes_
let catalog t = t.catalog
let base t = t.base
let checkpoint t = t.ckpt
let buffer_overflows t = t.overflows
let committed t = t.committed_
let open_reservations t = Hashtbl.length t.reservations

let entry t lsn =
  if lsn < 0 || lsn >= t.next then invalid_arg "Log.entry: LSN out of range";
  t.entries.(lsn)

let store t (r : record) =
  let cap = Array.length t.entries in
  if t.next >= cap then begin
    let bigger = Array.make (2 * cap) dummy_record in
    Array.blit t.entries 0 bigger 0 cap;
    t.entries <- bigger
  end;
  t.entries.(t.next) <- r;
  t.next <- t.next + 1

(* Append one record on behalf of a worker.  A worker that has already
   appended [buffer_records] since the last drain has a full redo buffer:
   the append forces an emergency drain of it (the records are all in
   [entries] already), counted as an overflow. *)
let append t ~worker (mk : lsn:int -> record) =
  let r = mk ~lsn:t.next in
  store t r;
  t.pending_bytes_ <- t.pending_bytes_ + r.bytes;
  if is_marker r then t.pending_markers_ <- t.pending_markers_ + 1;
  let w = worker mod t.n_workers in
  if t.fill.(w) = buffer_records then begin
    t.overflows <- t.overflows + 1;
    t.fill.(w) <- 0
  end;
  t.fill.(w) <- t.fill.(w) + 1;
  r.lsn

let record_bytes payload =
  match payload with
  | Some row -> record_header_bytes + Value.size_bytes row
  | None -> record_header_bytes

let on_commit t (txn : Txn.t) ~commit_ts =
  Hashtbl.remove t.reservations txn.Txn.id;
  t.committed_ <- t.committed_ + 1;
  let worker = txn.Txn.worker in
  List.iter
    (fun (w : Txn.write_entry) ->
      let payload = w.Txn.wversion.Storage.Version.data in
      ignore
        (append t ~worker (fun ~lsn ->
             {
               lsn;
               txn_id = txn.Txn.id;
               commit_ts;
               rtable = Table.name w.Txn.wtable;
               oid = w.Txn.wtuple.Tuple.oid;
               payload;
               bytes = record_bytes payload;
             })))
    (List.rev txn.Txn.writes);
  let marker =
    append t ~worker (fun ~lsn ->
        {
          lsn;
          txn_id = txn.Txn.id;
          commit_ts;
          rtable = "";
          oid = -2;
          payload = None;
          bytes = marker_bytes;
        })
  in
  (match t.kick with Some f -> f () | None -> ());
  marker

(* -- 2PC records --------------------------------------------------------
   A participant (or the coordinator for its local slice) logs the
   prepared transaction's writes under the GLOBAL transaction id [gid]
   with ts 0 (not yet committed), sealed by a -3 prepare marker; recovery
   holds them aside as in-doubt instead of installing.  The install marker
   (-4) records that the prepared writes were later committed in memory at
   [commit_ts].  The coordinator's decision record (-6) carries the
   participant shard ids; its durability is the distributed commit point
   (presumed abort).  All three are appended, counted against the
   worker's buffer and flushed by group commit like ordinary commits. *)

let append_prepare t ~worker ~gid (txn : Txn.t) =
  List.iter
    (fun (w : Txn.write_entry) ->
      let payload = w.Txn.wversion.Storage.Version.data in
      ignore
        (append t ~worker (fun ~lsn ->
             {
               lsn;
               txn_id = gid;
               commit_ts = 0L;
               rtable = Table.name w.Txn.wtable;
               oid = w.Txn.wtuple.Tuple.oid;
               payload;
               bytes = record_bytes payload;
             })))
    (List.rev txn.Txn.writes);
  let marker =
    append t ~worker (fun ~lsn ->
        {
          lsn;
          txn_id = gid;
          commit_ts = 0L;
          rtable = "";
          oid = -3;
          payload = None;
          bytes = marker_bytes;
        })
  in
  (match t.kick with Some f -> f () | None -> ());
  marker

let append_twopc_install t ~worker ~gid ~commit_ts =
  let lsn =
    append t ~worker (fun ~lsn ->
        {
          lsn;
          txn_id = gid;
          commit_ts;
          rtable = "";
          oid = -4;
          payload = None;
          bytes = marker_bytes;
        })
  in
  (match t.kick with Some f -> f () | None -> ());
  lsn

let append_decision t ~worker ~gid ~commit_ts ~participants =
  let payload =
    Some (Value.of_fields (Array.of_list (List.map (fun p -> Value.Int p) participants)))
  in
  let lsn =
    append t ~worker (fun ~lsn ->
        {
          lsn;
          txn_id = gid;
          commit_ts;
          rtable = "";
          oid = -6;
          payload;
          bytes = record_bytes payload;
        })
  in
  (match t.kick with Some f -> f () | None -> ());
  lsn

let on_table_created t name =
  ignore
    (append t ~worker:0 (fun ~lsn ->
         {
           lsn;
           txn_id = 0;
           commit_ts = 0L;
           rtable = name;
           oid = -1;
           payload = None;
           bytes = ddl_bytes;
         }))

let attach t eng =
  Engine.set_durability eng
    (Some
       {
         Engine.dur_reserve = (fun txn -> Hashtbl.replace t.reservations txn.Txn.id ());
         (* Aborts from [Active] never reserved, so this may find nothing. *)
         dur_release = (fun txn -> Hashtbl.remove t.reservations txn.Txn.id);
         dur_commit = (fun txn ~commit_ts -> on_commit t txn ~commit_ts);
         dur_table_created = (fun name -> on_table_created t name);
       })

(* Capture the bootstrap-loaded state (direct installs bypass commits, so
   the log alone cannot reproduce it).  Call after loading, before the run. *)
let snapshot_base t eng =
  t.catalog <- List.map Table.name (Engine.tables eng);
  t.base <-
    List.map
      (fun table ->
        let rows = ref [] in
        Table.iter table (fun tuple ->
            let v = Version.latest_committed (Tuple.head tuple) in
            if not (Version.is_nil v) then
              rows := (tuple.Tuple.oid, v.Version.data, v.Version.begin_ts) :: !rows);
        (Table.name table, List.rev !rows))
      (Engine.tables eng)

let install_checkpoint t ~start_lsn image =
  if start_lsn < 0 || start_lsn > t.next then
    invalid_arg "Log.install_checkpoint: start LSN out of range";
  t.ckpt <- Some (start_lsn, image)

(* Hand the un-flushed suffix to the daemon as one batch: all LSNs in
   [drained_upto, next), which empties every worker's buffer.  Returns
   (first, upto, bytes, commit markers). *)
let drain_all t =
  Array.fill t.fill 0 t.n_workers 0;
  let first = t.drained_upto and upto = t.next in
  let bytes = t.pending_bytes_ and markers = t.pending_markers_ in
  t.drained_upto <- t.next;
  t.pending_bytes_ <- 0;
  t.pending_markers_ <- 0;
  (first, upto, bytes, markers)

let set_durable t lsn =
  if lsn < t.durable || lsn > t.next then
    invalid_arg "Log.set_durable: LSN must advance within the log";
  t.durable <- lsn

let durable_entries t =
  let rec collect i acc = if i < 0 then acc else collect (i - 1) (t.entries.(i) :: acc) in
  collect (t.durable - 1) []

(* -- JSON dump / load (the CLI [recover] subcommand's input) ------------- *)

let value_to_json (v : Value.t) =
  J.List
    (List.init (Value.length v) (fun k ->
         match Value.get v k with
         | Value.Int i -> J.Obj [ ("i", J.Int i) ]
         | Value.Float f -> J.Obj [ ("f", J.Float f) ]
         | Value.Str s -> J.Obj [ ("s", J.String s) ]))

let value_of_json json =
  match J.to_list_opt json with
  | None -> None
  | Some fields ->
    let parse field =
      match J.member "i" field, J.member "f" field, J.member "s" field with
      | Some i, _, _ -> Option.map (fun i -> Value.Int i) (J.to_int_opt i)
      | _, Some f, _ -> Option.map (fun f -> Value.Float f) (J.to_float_opt f)
      | _, _, Some s -> Option.map (fun s -> Value.Str s) (J.to_string_opt s)
      | None, None, None -> None
    in
    let parsed = List.map parse fields in
    if List.exists Option.is_none parsed then None
    else Some (Value.of_fields (Array.of_list (List.map Option.get parsed)))

let payload_to_json = function None -> J.Null | Some v -> value_to_json v

let record_to_json (r : record) =
  J.Obj
    [
      ("lsn", J.Int r.lsn);
      ("txn", J.Int r.txn_id);
      ("ts", J.Int (Int64.to_int r.commit_ts));
      ("table", J.String r.rtable);
      ("oid", J.Int r.oid);
      ("payload", payload_to_json r.payload);
    ]

let record_of_json json =
  match
    ( Option.bind (J.member "lsn" json) J.to_int_opt,
      Option.bind (J.member "txn" json) J.to_int_opt,
      Option.bind (J.member "ts" json) J.to_int_opt,
      Option.bind (J.member "table" json) J.to_string_opt,
      Option.bind (J.member "oid" json) J.to_int_opt )
  with
  | Some lsn, Some txn_id, Some ts, Some rtable, Some oid ->
    let payload =
      match J.member "payload" json with
      | Some J.Null | None -> None
      | Some p -> value_of_json p
    in
    Some
      {
        lsn;
        txn_id;
        commit_ts = Int64.of_int ts;
        rtable;
        oid;
        payload;
        bytes = record_bytes payload;
      }
  | _ -> None

let image_to_json (image : image) =
  J.List
    (List.map
       (fun (name, rows) ->
         J.Obj
           [
             ("table", J.String name);
             ( "rows",
               J.List
                 (List.map
                    (fun (oid, payload, ts) ->
                      J.Obj
                        [
                          ("oid", J.Int oid);
                          ("ts", J.Int (Int64.to_int ts));
                          ("payload", payload_to_json payload);
                        ])
                    rows) );
           ])
       image)

let image_of_json json =
  match J.to_list_opt json with
  | None -> None
  | Some tables ->
    let parse tbl =
      match Option.bind (J.member "table" tbl) J.to_string_opt with
      | None -> None
      | Some name ->
        let rows =
          match Option.bind (J.member "rows" tbl) J.to_list_opt with
          | None -> []
          | Some rows ->
            List.filter_map
              (fun row ->
                match
                  ( Option.bind (J.member "oid" row) J.to_int_opt,
                    Option.bind (J.member "ts" row) J.to_int_opt )
                with
                | Some oid, Some ts ->
                  let payload =
                    match J.member "payload" row with
                    | Some J.Null | None -> None
                    | Some p -> value_of_json p
                  in
                  Some (oid, payload, Int64.of_int ts)
                | _ -> None)
              rows
        in
        Some (name, rows)
    in
    let parsed = List.map parse tables in
    if List.exists Option.is_none parsed then None
    else Some (List.map Option.get parsed)

(* Only the durable prefix is dumped: the dump is what survives a crash. *)
let to_json t =
  J.Obj
    [
      ("durable", J.Int t.durable);
      ("catalog", J.List (List.map (fun n -> J.String n) t.catalog));
      ("base", image_to_json t.base);
      ( "ckpt",
        match t.ckpt with
        | None -> J.Null
        | Some (start_lsn, image) ->
          J.Obj [ ("start_lsn", J.Int start_lsn); ("image", image_to_json image) ] );
      ("entries", J.List (List.map record_to_json (durable_entries t)));
    ]

let of_json json =
  let fail msg = Error ("log dump: " ^ msg) in
  match Option.bind (J.member "durable" json) J.to_int_opt with
  | None -> fail "missing durable LSN"
  | Some durable -> (
    let catalog =
      match Option.bind (J.member "catalog" json) J.to_list_opt with
      | None -> []
      | Some names -> List.filter_map J.to_string_opt names
    in
    let base =
      match Option.bind (J.member "base" json) image_of_json with
      | Some image -> image
      | None -> []
    in
    let ckpt =
      match J.member "ckpt" json with
      | Some (J.Obj _ as c) -> (
        match
          ( Option.bind (J.member "start_lsn" c) J.to_int_opt,
            Option.bind (J.member "image" c) image_of_json )
        with
        | Some start_lsn, Some image -> Some (start_lsn, image)
        | _ -> None)
      | _ -> None
    in
    let entries =
      match Option.bind (J.member "entries" json) J.to_list_opt with
      | None -> []
      | Some items -> List.filter_map record_of_json items
    in
    if List.length entries <> durable then
      fail
        (Printf.sprintf "expected %d durable entries, found %d" durable
           (List.length entries))
    else begin
      let t = create ~n_workers:1 () in
      List.iter (fun r -> store t r) entries;
      t.drained_upto <- t.next;
      t.durable <- durable;
      t.catalog <- catalog;
      t.base <- base;
      t.ckpt <- ckpt;
      Ok t
    end)

let to_string t = J.to_string ~minify:true (to_json t)

let of_string s =
  match J.parse s with Ok json -> of_json json | Error e -> Error e
