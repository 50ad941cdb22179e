module IT = Storage.Btree.Int_tree
module ST = Storage.Btree.Str_tree
module Txn = Storage.Txn

let probe_int tree k =
  Program.charge Program.Index_probe;
  IT.find tree k

let insert_int env txn tree ~key ~oid =
  Program.non_preemptible env (fun () ->
      Program.charge Program.Index_insert;
      match IT.insert tree key oid with
      | None -> Txn.on_abort txn (fun () -> ignore (IT.remove tree key))
      | Some _ -> invalid_arg "Idx.insert_int: duplicate key")

let remove_int env txn tree ~key =
  Program.non_preemptible env (fun () ->
      Program.charge Program.Index_remove;
      match IT.remove tree key with
      | Some oid -> Txn.on_abort txn (fun () -> ignore (IT.insert tree key oid))
      | None -> invalid_arg "Idx.remove_int: key not present")

let scan_int env tree ~lo ~hi ?(limit = max_int) f =
  ignore env;
  let cursor = IT.cursor tree ~lo ~hi in
  let rec loop remaining =
    if remaining > 0 then begin
      Program.charge Program.Scan_step;
      match IT.cursor_next cursor with
      | Some (k, oid) -> if f k oid then loop (remaining - 1)
      | None -> ()
    end
  in
  loop limit

let scan_str env tree ~lo ~hi ?(limit = max_int) f =
  ignore env;
  let cursor = ST.cursor tree ~lo ~hi in
  let rec loop remaining =
    if remaining > 0 then begin
      Program.charge Program.Scan_step;
      match ST.cursor_next cursor with
      | Some (k, oid) -> if f k oid then loop (remaining - 1)
      | None -> ()
    end
  in
  loop limit

let collect_str env tree ~lo ~hi =
  let acc = ref [] in
  scan_str env tree ~lo ~hi (fun k oid ->
      acc := (k, oid) :: !acc;
      true);
  List.rev !acc

let first_int env tree ~lo ~hi =
  let found = ref None in
  scan_int env tree ~lo ~hi ~limit:1 (fun k oid ->
      found := Some (k, oid);
      false);
  !found
