module P = Program
module Value = Storage.Value
module Engine = Storage.Engine
module Table = Storage.Table
module Tuple = Storage.Tuple
module Txn = Storage.Txn

type config = {
  accounts : int;
  branches : int;
  audit_scan : int;
  audit_settle : int;
  zipf_theta : float;
}

let default =
  { accounts = 10_000; branches = 32; audit_scan = 2000; audit_settle = 8; zipf_theta = 0.6 }

type t = {
  cfg_ : config;
  eng : Engine.t;
  branch_table_ : Table.t;  (* created first: lowest table id, latched first *)
  table_ : Table.t;
  index_ : Idx.IT.t;
  zipf : Zipf.t;
  writes : Storage.Txn.writes;  (* both classes write accounts only *)
}

let cfg t = t.cfg_
let table t = t.table_

let create eng cfg_ =
  if cfg_.accounts < 2 then invalid_arg "Ledger.create: need at least 2 accounts";
  if cfg_.branches < 1 then invalid_arg "Ledger.create: need at least 1 branch";
  if cfg_.audit_settle mod 2 <> 0 then invalid_arg "Ledger.create: audit_settle must be even";
  let t =
    {
      cfg_;
      eng;
      branch_table_ = Engine.create_table eng "ledger_branch";
      table_ = Engine.create_table eng "ledger";
      index_ = Idx.IT.create ();
      zipf = Zipf.create ~theta:cfg_.zipf_theta ~n:cfg_.accounts ();
      writes = Program.read_only;
    }
  in
  { t with writes = Storage.Txn.declare ~tables:[ t.table_ ] () }

let load t rng =
  ignore rng;
  for branch = 0 to t.cfg_.branches - 1 do
    let tuple = Table.alloc t.branch_table_ in
    Tuple.install tuple
      (Storage.Version.committed (Some (Value.of_fields [| Value.Int branch; Value.Str "open" |])))
  done;
  for account = 0 to t.cfg_.accounts - 1 do
    let tuple = Table.alloc t.table_ in
    Tuple.install tuple
      (Storage.Version.committed (Some (Value.of_fields [| Value.Int account; Value.Int 1000 |])));
    ignore (Idx.IT.insert t.index_ account tuple.Tuple.oid)
  done

let total_balance t =
  let sum = ref 0 in
  Table.iter t.table_ (fun tuple ->
      match Tuple.read_committed tuple with
      | Some row -> sum := !sum + Value.int_exn row 1
      | None -> ());
  !sum

let read_account t env txn account =
  match Idx.probe_int t.index_ account with
  | None -> failwith "Ledger: missing account"
  | Some oid -> (
    match P.read env txn t.table_ ~oid with
    | Some row -> oid, row
    | None -> failwith "Ledger: invisible account")

let read_branch t env txn branch =
  (* branches were loaded in order, so oid = branch id *)
  match P.read env txn t.branch_table_ ~oid:branch with
  | Some row -> row
  | None -> failwith "Ledger: invisible branch"

let audit t env =
  let rng = env.P.rng in
  let start = Sim.Rng.int rng (max 1 (t.cfg_.accounts - t.cfg_.audit_scan)) in
  P.run_txn env ~iso:Txn.Serializable ~writes:t.writes (fun txn ->
      (* branch sweep: read-only rows that end up in the commit latch plan *)
      for branch = 0 to t.cfg_.branches - 1 do
        ignore (read_branch t env txn branch)
      done;
      (* long snapshot scan *)
      let scanned = ref [] in
      Idx.scan_int t.index_ ~lo:start ~hi:(start + t.cfg_.audit_scan - 1) (fun _ oid ->
          (match P.read env txn t.table_ ~oid with
          | Some row -> scanned := (oid, row) :: !scanned
          | None -> ());
          true);
      P.compute 2000;
      (* settle: move one unit along pairs of scanned accounts *)
      let arr = Array.of_list !scanned in
      if Array.length arr >= 2 then begin
        let pairs = min (t.cfg_.audit_settle / 2) (Array.length arr / 2) in
        for i = 0 to pairs - 1 do
          let from_oid, from_row = arr.(2 * i) in
          let to_oid, to_row = arr.((2 * i) + 1) in
          P.update env txn t.table_ ~oid:from_oid (Value.add_int from_row 1 (-1));
          P.update env txn t.table_ ~oid:to_oid (Value.add_int to_row 1 1)
        done
      end)

let transfer t env =
  let rng = env.P.rng in
  let a = Zipf.next t.zipf rng in
  let b =
    let pick = Zipf.next t.zipf rng in
    if pick = a then (pick + 1) mod t.cfg_.accounts else pick
  in
  let amount = Sim.Rng.int_in rng 1 10 in
  P.run_txn env ~iso:Txn.Serializable ~writes:t.writes (fun txn ->
      (* read-only branch check: certification will latch this row *)
      ignore (read_branch t env txn (a mod t.cfg_.branches));
      let a_oid, a_row = read_account t env txn a in
      let b_oid, b_row = read_account t env txn b in
      P.update env txn t.table_ ~oid:a_oid (Value.add_int a_row 1 (-amount));
      P.update env txn t.table_ ~oid:b_oid (Value.add_int b_row 1 amount))
