module IT = Storage.Btree.Int_tree
module ST = Storage.Btree.Str_tree
module Txn = Storage.Txn

(* Reads of a tree that no transaction class declares written commute. *)
let probe_int tree k =
  Program.charge_as ~commutes:(not (IT.written tree)) Program.Index_probe;
  IT.find tree k

let insert_int env txn tree ~key ~oid =
  Program.non_preemptible env (fun () ->
      Program.charge Program.Index_insert;
      Txn.check_index txn tree;
      match IT.insert tree key oid with
      | None -> Txn.on_abort txn (fun () -> ignore (IT.remove tree key))
      | Some _ -> invalid_arg "Idx.insert_int: duplicate key")

let remove_int env txn tree ~key =
  Program.non_preemptible env (fun () ->
      Program.charge Program.Index_remove;
      Txn.check_index txn tree;
      match IT.remove tree key with
      | Some oid -> Txn.on_abort txn (fun () -> ignore (IT.insert tree key oid))
      | None -> invalid_arg "Idx.remove_int: key not present")

let scan_int tree ~lo ~hi ?(limit = max_int) f =
  let cursor = IT.cursor tree ~lo ~hi in
  let commutes = not (IT.written tree) in
  let rec loop remaining =
    if remaining > 0 then begin
      Program.charge_as ~commutes Program.Scan_step;
      if IT.cursor_next cursor f then loop (remaining - 1)
    end
  in
  loop limit

let scan_str tree ~lo ~hi ?(limit = max_int) f =
  let cursor = ST.cursor tree ~lo ~hi in
  let commutes = not (ST.written tree) in
  let rec loop remaining =
    if remaining > 0 then begin
      Program.charge_as ~commutes Program.Scan_step;
      if ST.cursor_next cursor f then loop (remaining - 1)
    end
  in
  loop limit

let collect_str tree ~lo ~hi =
  let acc = ref [] in
  scan_str tree ~lo ~hi (fun k oid ->
      acc := (k, oid) :: !acc;
      true);
  List.rev !acc

let first_int tree ~lo ~hi =
  let found = ref None in
  scan_int tree ~lo ~hi ~limit:1 (fun k oid ->
      found := Some (k, oid);
      false);
  !found
