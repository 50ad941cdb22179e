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
let ddl_oid = -1
let marker_oid = -2
let prepare_oid = -3
let install_oid = -4
let decision_oid = -6

type kind = Write | Ddl | Commit_marker | Prepare_marker | Install_marker | Decision

let kind_of_oid oid =
  if oid >= 0 then Write
  else if oid = marker_oid then Commit_marker
  else if oid = ddl_oid then Ddl
  else if oid = prepare_oid then Prepare_marker
  else if oid = install_oid then Install_marker
  else Decision

(* Modeled on-device sizes: a fixed header per record, payload bytes on
   top; commit, prepare and install markers and DDL records are
   header-only. *)
let record_header_bytes = 24
let marker_bytes = 16
let ddl_bytes = 32

(* Records a worker may append between two drains before the append
   counts as a buffer overflow (an emergency drain of that worker's
   redo buffer, ERMIA-style). *)
let buffer_records = 4096

type image = (string * (int * Value.t option * int64) list) list

(* The records live in fixed-size chunks of parallel columns, and the LSN
   is the position: entry [lsn] is slot [lsn land chunk_mask] of chunk
   [lsn lsr chunk_bits].  Four words per record: the transaction id, the
   commit timestamp, a key packing the oid above [table_bits] bits of an
   index into the log's table names (0 is [""], the markers' table), and
   the payload, [no_payload] standing for [None].  The modeled size is not
   stored: {!bytes_of} derives it from the kind and the payload. *)
let chunk_bits = 10
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1
let table_bits = 16
let table_mask = (1 lsl table_bits) - 1
let max_oid = max_int asr table_bits

type chunk = {
  txns : int array;
  stamps : int array;
  keys : int array;
  payloads : Value.t array;
}

(* Stands for [None] in a payload column; a row of one field allocated
   here, so no logged payload is physically equal to it. *)
let no_payload = Value.of_fields [| Value.Int 0 |]

(* Fills the chunk directory's slack. *)
let no_chunk = { txns = [||]; stamps = [||]; keys = [||]; payloads = [||] }

type t = {
  n_workers : int;
  fill : int array;  (* per worker: records appended since the last drain *)
  mutable overflows : int;
  mutable chunks : chunk array;  (* the first [n_chunks] are allocated *)
  mutable n_chunks : int;
  mutable next : int;
  mutable durable : int;
  mutable drained_upto : int;  (* LSNs below were handed to the daemon *)
  mutable pending_bytes_ : int;
  mutable pending_markers_ : int;
  mutable names : string array;  (* table index -> name; the first [n_names] are used *)
  mutable n_names : int;
  name_index : (string, int) Hashtbl.t;
  mutable base : image;
  mutable catalog : string list;  (* creation order at snapshot time *)
  mutable ckpt : (int * image) option;  (* start LSN of the completed pass *)
  reservations : (int, unit) Hashtbl.t;
  mutable committed_ : int;
  mutable kick : (unit -> unit) option;
}

let create ~n_workers () =
  if n_workers < 1 then invalid_arg "Log.create: need n_workers >= 1";
  let name_index = Hashtbl.create 16 in
  Hashtbl.replace name_index "" 0;
  {
    n_workers;
    fill = Array.make n_workers 0;
    overflows = 0;
    chunks = Array.make 16 no_chunk;
    n_chunks = 0;
    next = 0;
    durable = 0;
    drained_upto = 0;
    pending_bytes_ = 0;
    pending_markers_ = 0;
    names = Array.make 16 "";
    n_names = 1;
    name_index;
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

let table_index t name =
  match Hashtbl.find t.name_index name with
  | i -> i
  | exception Not_found ->
    let i = t.n_names in
    if i > table_mask then failwith "Log: more than 65536 tables";
    if i = Array.length t.names then begin
      let bigger = Array.make (2 * i) "" in
      Array.blit t.names 0 bigger 0 i;
      t.names <- bigger
    end;
    t.names.(i) <- name;
    t.n_names <- i + 1;
    Hashtbl.replace t.name_index name i;
    i

let key t ~table ~oid = (oid lsl table_bits) lor table_index t table
let word_of = function Some row -> row | None -> no_payload
let option_of row = if row == no_payload then None else Some row

(* Make room for LSNs up to [t.next + n). *)
let reserve t n =
  while t.n_chunks lsl chunk_bits < t.next + n do
    if t.n_chunks = Array.length t.chunks then begin
      let bigger = Array.make (2 * t.n_chunks) no_chunk in
      Array.blit t.chunks 0 bigger 0 t.n_chunks;
      t.chunks <- bigger
    end;
    t.chunks.(t.n_chunks) <-
      {
        txns = Array.make chunk_size 0;
        stamps = Array.make chunk_size 0;
        keys = Array.make chunk_size 0;
        payloads = Array.make chunk_size no_payload;
      };
    t.n_chunks <- t.n_chunks + 1
  done

(* Write one reserved slot's columns. *)
let set t lsn ~txn ~ts ~key payload =
  let c = Array.unsafe_get t.chunks (lsn lsr chunk_bits) and i = lsn land chunk_mask in
  c.txns.(i) <- txn;
  c.stamps.(i) <- ts;
  c.keys.(i) <- key;
  c.payloads.(i) <- payload

let record_bytes payload =
  if payload == no_payload then record_header_bytes
  else record_header_bytes + Value.size_bytes payload

let bytes_of ~oid payload =
  match kind_of_oid oid with
  | Ddl -> ddl_bytes
  | Commit_marker | Prepare_marker | Install_marker -> marker_bytes
  | Write | Decision -> record_bytes payload

(* Count [n] records against a worker's redo buffer.  A worker that has
   already appended [buffer_records] since the last drain has a full
   buffer: the append forces an emergency drain of it (the records are
   all in the columns already), counted as an overflow. *)
let account t ~worker n =
  let w = worker mod t.n_workers in
  for _ = 1 to n do
    if t.fill.(w) = buffer_records then begin
      t.overflows <- t.overflows + 1;
      t.fill.(w) <- 0
    end;
    t.fill.(w) <- t.fill.(w) + 1
  done

(* Append one record on behalf of a worker; returns its LSN. *)
let append t ~worker ~txn ~ts ~key ~bytes payload =
  reserve t 1;
  let lsn = t.next in
  set t lsn ~txn ~ts ~key payload;
  t.next <- lsn + 1;
  t.pending_bytes_ <- t.pending_bytes_ + bytes;
  account t ~worker 1;
  lsn

(* A transaction's writes, newest first, into the LSNs [.., lsn] from the
   top down, so they land oldest first. *)
let rec store_writes t ~txn ~ts lsn = function
  | [] -> ()
  | (w : Txn.write_entry) :: rest ->
    let payload = word_of w.Txn.wversion.Version.data in
    set t lsn ~txn ~ts ~key:(key t ~table:(Table.name w.Txn.wtable) ~oid:w.Txn.wtuple.Tuple.oid)
      payload;
    t.pending_bytes_ <- t.pending_bytes_ + record_bytes payload;
    store_writes t ~txn ~ts (lsn - 1) rest

(* Append a transaction's writes and the marker that seals them, in one
   step; returns the marker's LSN. *)
let append_txn t ~worker ~txn ~ts ~marker (writes : Txn.write_entry list) =
  let n = List.length writes in
  reserve t (n + 1);
  store_writes t ~txn ~ts (t.next + n - 1) writes;
  t.next <- t.next + n;
  account t ~worker n;
  let lsn =
    append t ~worker ~txn ~ts ~key:(marker lsl table_bits) ~bytes:marker_bytes no_payload
  in
  (match t.kick with Some f -> f () | None -> ());
  lsn

let on_commit t (txn : Txn.t) ~commit_ts =
  Hashtbl.remove t.reservations txn.Txn.id;
  t.committed_ <- t.committed_ + 1;
  t.pending_markers_ <- t.pending_markers_ + 1;
  append_txn t ~worker:txn.Txn.worker ~txn:txn.Txn.id ~ts:(Int64.to_int commit_ts)
    ~marker:marker_oid txn.Txn.writes

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
  append_txn t ~worker ~txn:gid ~ts:0 ~marker:prepare_oid txn.Txn.writes

let append_single t ~worker ~gid ~commit_ts ~oid ~bytes payload =
  let lsn =
    append t ~worker ~txn:gid ~ts:(Int64.to_int commit_ts) ~key:(oid lsl table_bits) ~bytes
      payload
  in
  (match t.kick with Some f -> f () | None -> ());
  lsn

let append_twopc_install t ~worker ~gid ~commit_ts =
  append_single t ~worker ~gid ~commit_ts ~oid:install_oid ~bytes:marker_bytes no_payload

let append_decision t ~worker ~gid ~commit_ts ~participants =
  let payload = Value.of_fields (Array.of_list (List.map (fun p -> Value.Int p) participants)) in
  append_single t ~worker ~gid ~commit_ts ~oid:decision_oid ~bytes:(record_bytes payload) payload

let on_table_created t name =
  ignore
    (append t ~worker:0 ~txn:0 ~ts:0 ~key:(key t ~table:name ~oid:ddl_oid) ~bytes:ddl_bytes
       no_payload)

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

(* -- Reading entries ------------------------------------------------------ *)

let[@inline never] out_of_range what lsn =
  invalid_arg (Printf.sprintf "Log.%s: LSN %d out of range" what lsn)

let[@inline] chunk_of t what lsn =
  if lsn < 0 || lsn >= t.next then out_of_range what lsn;
  Array.unsafe_get t.chunks (lsn lsr chunk_bits)

let[@inline] txn_at t lsn = (chunk_of t "txn_at" lsn).txns.(lsn land chunk_mask)
let[@inline] ts_at t lsn = Int64.of_int (chunk_of t "ts_at" lsn).stamps.(lsn land chunk_mask)
let[@inline] oid_at t lsn = (chunk_of t "oid_at" lsn).keys.(lsn land chunk_mask) asr table_bits
let kind_at t lsn = kind_of_oid (oid_at t lsn)

let[@inline] table_at t lsn =
  t.names.((chunk_of t "table_at" lsn).keys.(lsn land chunk_mask) land table_mask)

let[@inline] payload_at t lsn = option_of (chunk_of t "payload_at" lsn).payloads.(lsn land chunk_mask)

let entry t lsn =
  let c = chunk_of t "entry" lsn and i = lsn land chunk_mask in
  let key = c.keys.(i) and payload = c.payloads.(i) in
  let oid = key asr table_bits in
  {
    lsn;
    txn_id = c.txns.(i);
    commit_ts = Int64.of_int c.stamps.(i);
    rtable = t.names.(key land table_mask);
    oid;
    payload = option_of payload;
    bytes = bytes_of ~oid payload;
  }

let range_bytes t ~first ~upto =
  if first < 0 || upto > t.next || first > upto then
    invalid_arg (Printf.sprintf "Log.range_bytes: [%d, %d) outside [0, %d)" first upto t.next);
  let sum = ref 0 in
  for lsn = first to upto - 1 do
    let c = Array.unsafe_get t.chunks (lsn lsr chunk_bits) and i = lsn land chunk_mask in
    sum := !sum + bytes_of ~oid:(c.keys.(i) asr table_bits) c.payloads.(i)
  done;
  !sum

let durable_entries t = List.init t.durable (entry t)

(* -- JSON dump / load (the CLI [recover] subcommand's input) ------------- *)

let value_to_json (v : Value.t) =
  J.List
    (List.init (Value.length v) (fun k ->
         match Value.get v k with
         | Value.Int i -> J.Obj [ ("i", J.Int i) ]
         | Value.Float f -> J.Obj [ ("f", J.Float f) ]
         | Value.Str s -> J.Obj [ ("s", J.String s) ]))

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

(* Loading is strict: a member that does not parse is an error naming it
   (and its LSN, or its table and OID), never a default. *)
exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt
let int_member json name = Option.bind (J.member name json) J.to_int_opt
let string_member json name = Option.bind (J.member name json) J.to_string_opt

let list_of what json =
  match J.to_list_opt json with Some items -> items | None -> bad "%s is not a list" what

let field_of_json where json =
  match J.member "i" json, J.member "f" json, J.member "s" json with
  | Some i, None, None -> (
    match J.to_int_opt i with Some i -> Value.Int i | None -> bad "%s: malformed payload" where)
  | None, Some f, None -> (
    match J.to_float_opt f with
    | Some f -> Value.Float f
    | None -> bad "%s: malformed payload" where)
  | None, None, Some s -> (
    match J.to_string_opt s with
    | Some s -> Value.Str s
    | None -> bad "%s: malformed payload" where)
  | _ -> bad "%s: malformed payload" where

let payload_of_json where = function
  | None | Some J.Null -> None
  | Some json -> (
    match J.to_list_opt json with
    | Some fields -> Some (Value.of_fields (Array.of_list (List.map (field_of_json where) fields)))
    | None -> bad "%s: malformed payload" where)

let image_of_json what json =
  List.map
    (fun tbl ->
      match string_member tbl "table" with
      | None -> bad "%s: a table has no name" what
      | Some name ->
        let rows =
          match J.member "rows" tbl with
          | Some rows -> list_of (Printf.sprintf "%s: table %s rows" what name) rows
          | None -> bad "%s: table %s has no rows" what name
        in
        ( name,
          List.mapi
            (fun k row ->
              match int_member row "oid", int_member row "ts" with
              | Some oid, Some ts when oid >= 0 && ts >= 0 ->
                let where = Printf.sprintf "%s: table %s oid %d" what name oid in
                (oid, payload_of_json where (J.member "payload" row), Int64.of_int ts)
              | _ -> bad "%s: table %s row %d: bad oid or ts" what name k)
            rows ))
    (list_of what json)

let kind_ok oid =
  (oid >= 0 && oid <= max_oid)
  || oid = ddl_oid || oid = marker_oid || oid = prepare_oid || oid = install_oid
  || oid = decision_oid

let of_json json =
  let durable =
    match int_member json "durable" with
    | Some d when d >= 0 -> d
    | Some _ -> bad "negative durable LSN"
    | None -> bad "missing durable LSN"
  in
  let member name = match J.member name json with Some m -> m | None -> bad "missing %s" name in
  let catalog =
    List.mapi
      (fun k name ->
        match J.to_string_opt name with
        | Some name -> name
        | None -> bad "catalog entry %d is not a table name" k)
      (list_of "catalog" (member "catalog"))
  in
  let base = image_of_json "base" (member "base") in
  let ckpt =
    match member "ckpt" with
    | J.Null -> None
    | c -> (
      match int_member c "start_lsn", J.member "image" c with
      | Some start_lsn, Some image when start_lsn >= 0 && start_lsn <= durable ->
        Some (start_lsn, image_of_json "ckpt image" image)
      | Some start_lsn, Some _ -> bad "ckpt start_lsn %d outside [0, %d]" start_lsn durable
      | _ -> bad "malformed ckpt")
  in
  let entries = list_of "entries" (member "entries") in
  let found = List.length entries in
  if found <> durable then bad "expected %d durable entries, found %d" durable found;
  let t = create ~n_workers:1 () in
  reserve t durable;
  List.iteri
    (fun lsn r ->
      match
        int_member r "lsn", int_member r "txn", int_member r "ts", string_member r "table",
        int_member r "oid"
      with
      | Some l, Some txn, Some ts, Some table, Some oid when l = lsn && ts >= 0 && kind_ok oid ->
        let payload = payload_of_json (Printf.sprintf "entry %d" lsn) (J.member "payload" r) in
        set t lsn ~txn ~ts ~key:(key t ~table ~oid) (word_of payload)
      | _ -> bad "entry %d: malformed record" lsn)
    entries;
  t.next <- durable;
  t.drained_upto <- durable;
  t.durable <- durable;
  t.catalog <- catalog;
  t.base <- base;
  t.ckpt <- ckpt;
  t

let to_string t = J.to_string ~minify:true (to_json t)

let of_string s =
  match J.parse s with
  | Error e -> Error e
  | Ok json -> (
    match of_json json with t -> Ok t | exception Bad msg -> Error ("log dump: " ^ msg))
