type iso = Read_committed | Si | Serializable

type state = Active | Preparing | Committed | Aborted

type write_entry = { wtable : Table.t; wtuple : Tuple.t; wversion : Version.t }

type read_entry = { rtable : Table.t; rtuple : Tuple.t; observed : int64 }

type t = {
  id : int;
  begin_ts : int64;
  iso : iso;
  worker : int;
  ctx : int;
  mutable state : state;
  mutable commit_ts : int64 option;
  mutable commit_lsn : int option;
  mutable writes : write_entry list;
  mutable reads : read_entry list;
  mutable undo : (unit -> unit) list;
  mutable latch_plan : Tuple.t array;
  mutable latched : int;
  declared : writes option;
}

and writes = { w_tables : Table.t list; w_indexes : Btree.Int_tree.t list }

let declare ?(tables = []) ?(indexes = []) () =
  List.iter Btree.Int_tree.mark_written indexes;
  { w_tables = tables; w_indexes = indexes }

let[@inline never] undeclared txn what =
  failwith
    (Printf.sprintf "txn %d writes %s, which its class does not declare" txn.id what)

let check_table txn table =
  match txn.declared with
  | Some d when not (List.memq table d.w_tables) ->
    undeclared txn ("table " ^ Table.name table)
  | _ -> ()

let check_index txn tree =
  match txn.declared with
  | Some d when not (List.memq tree d.w_indexes) -> undeclared txn "an index"
  | _ -> ()

let iso_to_string = function
  | Read_committed -> "read-committed"
  | Si -> "snapshot-isolation"
  | Serializable -> "serializable"

let state_to_string = function
  | Active -> "active"
  | Preparing -> "preparing"
  | Committed -> "committed"
  | Aborted -> "aborted"

let make ?declared ~id ~begin_ts ~iso ~worker ~ctx () =
  {
    id;
    begin_ts;
    iso;
    worker;
    ctx;
    state = Active;
    commit_ts = None;
    commit_lsn = None;
    writes = [];
    reads = [];
    undo = [];
    latch_plan = [||];
    latched = 0;
    declared;
  }

let is_active t = t.state = Active

let find_write t tuple =
  List.find_opt (fun w -> w.wtuple == tuple) t.writes

let on_abort t f = t.undo <- f :: t.undo

let pp ppf t =
  Format.fprintf ppf "txn%d[%s %s w%d.c%d begin=%Ld writes=%d]" t.id
    (state_to_string t.state) (iso_to_string t.iso) t.worker t.ctx t.begin_ts
    (List.length t.writes)
