(* Tests for the workload layer: program machinery, key encoders, random
   generators, TPC-C loading and transaction correctness, and Q2 against a
   brute-force oracle. *)

module P = Workload.Program
module Idx = Workload.Idx
module Zipf = Workload.Zipf
module TR = Workload.Tpcc_rand
module Sc = Workload.Tpcc_schema
module Hc = Workload.Tpch_schema
module Tpcc = Workload.Tpcc
module Tpcc_db = Workload.Tpcc_db
module Tpch_db = Workload.Tpch_db
module Q2 = Workload.Tpch_q2
module Value = Storage.Value
module Engine = Storage.Engine
module Table = Storage.Table
module Tuple = Storage.Tuple
module Version = Storage.Version
module IT = Storage.Btree.Int_tree

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let mk_env ?(worker = 0) eng =
  {
    P.eng;
    worker;
    ctx = 0;
    cls = Uintr.Cls.create_area ();
    rng = Sim.Rng.create 123L;
  }

(* Drive a program to completion, counting ops. *)
let drive prog env =
  let ops = ref 0 in
  let rec go = function
    | P.Finished outcome -> outcome, !ops
    | P.Pending (_, k) ->
      incr ops;
      go (P.resume k)
  in
  go (P.start prog env)

let committed = function P.Committed _ -> true | P.Aborted _ -> false

(* -- Program machinery ------------------------------------------------------- *)

let test_program_runs_to_completion () =
  let eng = Engine.create () in
  let table = Engine.create_table eng "t" in
  let env = mk_env eng in
  let writes = Storage.Txn.declare ~tables:[ table ] () in
  let prog env =
    P.run_txn ~writes env (fun txn ->
        let tuple = P.insert env txn table (Value.of_fields [| Value.Int 7 |]) in
        P.compute 100;
        match P.read env txn table ~oid:tuple.Tuple.oid with
        | Some r -> checki "read back" 7 (Value.int_exn r 0)
        | None -> Alcotest.fail "own insert invisible")
  in
  let outcome, ops = drive prog env in
  checkb "committed" true (committed outcome);
  checkb "multiple micro-ops" true (ops >= 5)

let test_program_charge_outside_fails () =
  checkb "charge outside start fails" true
    (match P.charge P.Record_read with
    | () -> false
    | exception Failure _ -> true)

let test_program_user_abort_path () =
  let eng = Engine.create () in
  let table = Engine.create_table eng "t" in
  let env = mk_env eng in
  let writes = Storage.Txn.declare ~tables:[ table ] () in
  let prog env =
    P.run_txn ~writes env (fun txn ->
        ignore (P.insert env txn table (Value.of_fields [| Value.Int 1 |]));
        raise (P.Txn_failed Storage.Err.User_abort))
  in
  let outcome, _ = drive prog env in
  checkb "aborted" true (outcome = P.Aborted Storage.Err.User_abort);
  checki "engine rolled back" 0 (Engine.stats eng).Engine.commits;
  checki "user abort counted" 1 (Engine.stats eng).Engine.aborts_user

let test_program_non_preemptible_balanced_on_exception () =
  let eng = Engine.create () in
  let env = mk_env eng in
  let prog env =
    (try P.non_preemptible env (fun () -> failwith "inner") with Failure _ -> ());
    checki "counter balanced" 0 (Uintr.Cls.get env.P.cls Uintr.Region.lock_counter);
    P.Committed 0L
  in
  let outcome, _ = drive prog env in
  checkb "finished" true (committed outcome)

let test_program_discard () =
  let eng = Engine.create () in
  let env = mk_env eng in
  let cleanup_ran = ref false in
  let prog _env =
    Fun.protect
      ~finally:(fun () -> cleanup_ran := true)
      (fun () ->
        P.compute 1;
        P.compute 1;
        P.Committed 0L)
  in
  (match P.start prog env with
  | P.Pending (_, k) -> P.discard k
  | P.Finished _ -> Alcotest.fail "expected suspension");
  checkb "finalizers ran on discard" true !cleanup_ran

let test_program_op_is_record_access () =
  checkb "read is access" true (P.is_record_access P.Record_read);
  checkb "scan is access" true (P.is_record_access P.Scan_step);
  checkb "probe is not" false (P.is_record_access P.Index_probe);
  checkb "yield hint is not" false (P.is_record_access P.Yield_hint)

(* Shared state behind a commuting charge fails loudly, whether the step
   ran inline or was resumed with the flag its executor kept; behind a
   charge that does not commute it passes. *)
let test_program_check_ordered () =
  let eng = Engine.create () in
  let env = mk_env eng in
  let ordered = ref 0 in
  let prog _env =
    P.charge P.Txn_abort;
    P.check_ordered "a test";
    incr ordered;
    P.compute 1;
    P.check_ordered "a test";
    P.Committed 0L
  in
  let fails f =
    match f () with
    | _ -> false
    | exception Failure msg -> msg = "a test ran in a step that commutes"
  in
  (* resumed with the flags the executor read at each suspension *)
  let rec go step =
    match step with
    | P.Finished _ -> ()
    | P.Pending (_, k) -> go (P.resume ~commutes:(P.pending_commutes ()) k)
  in
  checkb "resumed commuting step fails" true (fails (fun () -> go (P.start prog env)));
  checki "the ordered step passed" 1 !ordered;
  (* inline: every charge taken on the spot *)
  checkb "inline commuting step fails" true
    (fails (fun () -> P.start ~stepper:(fun _ -> true) prog env));
  checki "the ordered step passed inline" 2 !ordered

(* -- Idx helpers --------------------------------------------------------------- *)

let test_idx_rollback_on_abort () =
  let eng = Engine.create () in
  let table = Engine.create_table eng "t" in
  let tree = IT.create () in
  ignore (IT.insert tree 99 0);
  let env = mk_env eng in
  let writes = Storage.Txn.declare ~tables:[ table ] ~indexes:[ tree ] () in
  let prog env =
    P.run_txn ~writes env (fun txn ->
        let tuple = P.insert env txn table (Value.of_fields [| Value.Int 1 |]) in
        Idx.insert_int env txn tree ~key:5 ~oid:tuple.Tuple.oid;
        Idx.remove_int env txn tree ~key:99;
        raise (P.Txn_failed Storage.Err.User_abort))
  in
  let outcome, _ = drive prog env in
  checkb "aborted" true (outcome = P.Aborted Storage.Err.User_abort);
  checkb "insert rolled back" true (IT.find tree 5 = None);
  checkb "remove rolled back" true (IT.find tree 99 = Some 0)

let test_idx_scan_limit_and_first () =
  let eng = Engine.create () in
  let tree = IT.create () in
  List.iter (fun k -> ignore (IT.insert tree k k)) [ 2; 4; 6; 8 ];
  let env = mk_env eng in
  let prog _env =
    let seen = ref [] in
    Idx.scan_int tree ~lo:0 ~hi:100 ~limit:2 (fun k _ ->
        seen := k :: !seen;
        true);
    Alcotest.(check (list int)) "limit" [ 2; 4 ] (List.rev !seen);
    (match Idx.first_int tree ~lo:5 ~hi:100 with
    | Some (k, _) -> checki "first" 6 k
    | None -> Alcotest.fail "expected first");
    P.Committed 0L
  in
  ignore (drive prog env)

(* -- Generators ------------------------------------------------------------------ *)

let test_zipf () =
  let z = Zipf.create ~n:100 () in
  let rng = Sim.Rng.create 5L in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let v = Zipf.next z rng in
    checkb "in range" true (v >= 0 && v < 100);
    counts.(v) <- counts.(v) + 1
  done;
  checkb "head hotter than tail" true (counts.(0) > 10 * (counts.(99) + 1));
  checkb "bad theta rejected" true
    (match Zipf.create ~theta:1.0 ~n:10 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_nurand_bounds () =
  let rng = Sim.Rng.create 5L in
  for _ = 1 to 10_000 do
    let v = TR.customer_id_scaled rng ~customers:3000 in
    checkb "in [1,3000]" true (v >= 1 && v <= 3000);
    let w = TR.customer_id_scaled rng ~customers:300 in
    checkb "scaled in [1,300]" true (w >= 1 && w <= 300);
    let i = TR.item_id_scaled rng ~items:2000 in
    checkb "item in [1,2000]" true (i >= 1 && i <= 2000)
  done

let test_c_last () =
  Alcotest.(check string) "0" "BARBARBAR" (TR.c_last 0);
  Alcotest.(check string) "371" "PRICALLYOUGHT" (TR.c_last 371);
  Alcotest.(check string) "999" "EINGEINGEING" (TR.c_last 999);
  checkb "out of range" true
    (match TR.c_last 1000 with _ -> false | exception Invalid_argument _ -> true)

(* -- Key encoders ------------------------------------------------------------------ *)

let test_key_encoders_distinct () =
  let seen = Hashtbl.create 4096 in
  for w = 1 to 3 do
    for d = 1 to 10 do
      for o = 1 to 20 do
        let k = Sc.order_key ~w ~d ~o in
        if Hashtbl.mem seen k then Alcotest.failf "collision at %d/%d/%d" w d o;
        Hashtbl.replace seen k ()
      done
    done
  done

let test_order_by_customer_desc () =
  (* newer order → smaller key, so a cursor's first hit is the latest *)
  let k_new = Sc.order_by_customer_key ~w:1 ~d:1 ~c:5 ~o:100 in
  let k_old = Sc.order_by_customer_key ~w:1 ~d:1 ~c:5 ~o:99 in
  checkb "descending in o" true (k_new < k_old);
  let lo, hi = Sc.order_by_customer_bounds ~w:1 ~d:1 ~c:5 in
  checkb "bounds cover" true (lo <= k_new && k_new <= hi && lo <= k_old && k_old <= hi);
  let other_customer = Sc.order_by_customer_key ~w:1 ~d:1 ~c:6 ~o:100 in
  checkb "bounds exclude other customers" true (other_customer > hi)

let test_new_order_bounds_oldest_first () =
  let lo, hi = Sc.new_order_bounds ~w:2 ~d:3 in
  let k5 = Sc.new_order_key ~w:2 ~d:3 ~o:5 in
  let k9 = Sc.new_order_key ~w:2 ~d:3 ~o:9 in
  checkb "ascending in o" true (k5 < k9);
  checkb "bounds cover" true (lo <= k5 && k9 <= hi);
  checkb "other district excluded" true
    (let k = Sc.new_order_key ~w:2 ~d:4 ~o:5 in
     k < lo || k > hi)

let test_customer_name_prefix () =
  let key = Sc.customer_name_key ~w:1 ~d:2 ~last:"SMITH" ~first:"ANNA" ~c:7 in
  let lo, hi = Sc.customer_name_prefix ~w:1 ~d:2 ~last:"SMITH" in
  checkb "key within prefix" true (lo <= key && key <= hi);
  let other = Sc.customer_name_key ~w:1 ~d:2 ~last:"SMITZ" ~first:"ANNA" ~c:7 in
  checkb "other name excluded" true (other < lo || other > hi);
  (* ordering by first name within a last name *)
  let k_a = Sc.customer_name_key ~w:1 ~d:2 ~last:"SMITH" ~first:"ANNA" ~c:1 in
  let k_b = Sc.customer_name_key ~w:1 ~d:2 ~last:"SMITH" ~first:"BOB" ~c:0 in
  checkb "sorted by first name" true (k_a < k_b)

let test_config_validation () =
  checkb "too many warehouses rejected" true
    (match Sc.validate { (Sc.small ~warehouses:5000) with Sc.warehouses = 5000 } with
    | () -> false
    | exception Invalid_argument _ -> true);
  Sc.validate (Sc.small ~warehouses:16);
  Hc.validate Hc.small

(* -- TPC-C load --------------------------------------------------------------------- *)

let load_small_tpcc ?(warehouses = 2) () =
  let eng = Engine.create () in
  let cfg = Sc.small ~warehouses in
  let db = Tpcc_db.create eng cfg in
  Tpcc_db.load db (Sim.Rng.create 99L);
  eng, cfg, db

let test_tpcc_load_counts () =
  let _, cfg, db = load_small_tpcc () in
  let counts = Tpcc_db.row_counts db in
  let get name = List.assoc name counts in
  checki "warehouses" cfg.Sc.warehouses (get "warehouse");
  checki "districts" (cfg.Sc.warehouses * cfg.Sc.districts) (get "district");
  checki "customers" (cfg.Sc.warehouses * cfg.Sc.districts * cfg.Sc.customers) (get "customer");
  checki "items" cfg.Sc.items (get "item");
  checki "stock" (cfg.Sc.warehouses * cfg.Sc.items) (get "stock");
  checki "orders" (cfg.Sc.warehouses * cfg.Sc.districts * cfg.Sc.init_orders) (get "orders");
  checkb "order lines 5-15 per order" true
    (let ol = get "order_line" and o = get "orders" in
     ol >= 5 * o && ol <= 15 * o);
  (* ~30 % of initial orders are undelivered *)
  let no = get "new_order" and o = get "orders" in
  checkb "30% undelivered" true (abs (no - (o * 3 / 10)) <= o / 20)

let test_tpcc_load_index_sizes () =
  let _, cfg, db = load_small_tpcc () in
  checki "customer idx" (Table.size db.Tpcc_db.customer) (IT.length db.Tpcc_db.customer_idx);
  checki "stock idx" (Table.size db.Tpcc_db.stock) (IT.length db.Tpcc_db.stock_idx);
  checki "orders idx" (Table.size db.Tpcc_db.orders) (IT.length db.Tpcc_db.orders_idx);
  checki "new_order idx" (Table.size db.Tpcc_db.new_order) (IT.length db.Tpcc_db.new_order_idx);
  checki "name idx covers all customers"
    (cfg.Sc.warehouses * cfg.Sc.districts * cfg.Sc.customers)
    (Storage.Btree.Str_tree.length db.Tpcc_db.customer_name_idx)

(* -- TPC-C transactions -------------------------------------------------------------- *)

(* Read the latest committed row of [oid] directly (outside transactions). *)
let peek table oid = Option.get (Tuple.read_committed (Table.get table oid))

let district_row db ~w ~d =
  let oid = Option.get (IT.find db.Tpcc_db.district_idx (Sc.district_key ~w ~d)) in
  oid, peek db.Tpcc_db.district oid

let test_new_order_commits_and_updates () =
  let eng, _, db = load_small_tpcc () in
  let env = mk_env eng in
  (* Count through the index: table slots allocated by aborted inserts
     remain (empty chains), but index entries are rolled back. *)
  let orders_before = IT.length db.Tpcc_db.orders_idx in
  let no_before = IT.length db.Tpcc_db.new_order_idx in
  (* district next_o_id before, per district *)
  let next_before = Array.init 10 (fun d -> Value.int_exn (snd (district_row db ~w:1 ~d:(d + 1))) Sc.D.next_o_id) in
  let mutable_commits = ref 0 in
  for _ = 1 to 50 do
    let outcome, _ = drive (Tpcc.new_order db ~home_w:1) env in
    if committed outcome then incr mutable_commits
  done;
  checkb "most commit (1% user aborts)" true (!mutable_commits >= 45);
  checki "orders grew by commits" (orders_before + !mutable_commits)
    (IT.length db.Tpcc_db.orders_idx);
  checki "new_order entries grew" (no_before + !mutable_commits) (IT.length db.Tpcc_db.new_order_idx);
  (* sum of district next_o_id increases match commits *)
  let next_after = Array.init 10 (fun d -> Value.int_exn (snd (district_row db ~w:1 ~d:(d + 1))) Sc.D.next_o_id) in
  let total_inc = Array.fold_left ( + ) 0 (Array.init 10 (fun i -> next_after.(i) - next_before.(i))) in
  checki "district counters advanced once per commit" !mutable_commits total_inc

let test_new_order_order_lines_consistent () =
  let eng, _, db = load_small_tpcc () in
  let env = mk_env eng in
  for _ = 1 to 20 do
    ignore (drive (Tpcc.new_order db ~home_w:2) env)
  done;
  (* every order's ol_cnt matches its order_line index entries *)
  let ok = ref true in
  Table.iter db.Tpcc_db.orders (fun tuple ->
      match Tuple.read_committed tuple with
      | None -> ()
      | Some orow ->
        let w = Value.int_exn orow Sc.O.w_id in
        let d = Value.int_exn orow Sc.O.d_id in
        let o = Value.int_exn orow Sc.O.id in
        let cnt = Value.int_exn orow Sc.O.ol_cnt in
        let lo, hi = Sc.order_line_bounds ~w ~d ~o in
        let lines = IT.cursor db.Tpcc_db.order_line_idx ~lo ~hi in
        let rec count n = if IT.cursor_next lines (fun _ _ -> true) then count (n + 1) else n in
        let found = count 0 in
        if found <> cnt then ok := false);
  checkb "ol_cnt matches order_line entries for every order" true !ok

let test_payment_updates_balances () =
  let eng, _, db = load_small_tpcc ~warehouses:1 () in
  let env = mk_env eng in
  let woid = Option.get (IT.find db.Tpcc_db.warehouse_idx 1) in
  let ytd_before = Value.float_exn (peek db.Tpcc_db.warehouse woid) Sc.W.ytd in
  let hist_before = Table.size db.Tpcc_db.history in
  let commits = ref 0 in
  for _ = 1 to 30 do
    let outcome, _ = drive (Tpcc.payment db ~home_w:1) env in
    if committed outcome then incr commits
  done;
  checki "all commit" 30 !commits;
  let ytd_after = Value.float_exn (peek db.Tpcc_db.warehouse woid) Sc.W.ytd in
  checkb "warehouse ytd grew" true (ytd_after > ytd_before);
  checki "history rows appended" (hist_before + 30) (Table.size db.Tpcc_db.history)

let test_order_status_read_only () =
  let eng, _, db = load_small_tpcc () in
  let env = mk_env eng in
  let commits_before = (Engine.stats eng).Engine.commits in
  for _ = 1 to 20 do
    let outcome, _ = drive (Tpcc.program db Tpcc.Order_status ~home_w:1) env in
    checkb "commits" true (committed outcome)
  done;
  checki "20 commits" (commits_before + 20) (Engine.stats eng).Engine.commits;
  checki "no orders created" (IT.length db.Tpcc_db.orders_idx)
    (2 * 10 * 30 (* warehouses x districts x init_orders *))

let test_delivery_consumes_new_orders () =
  let eng, _, db = load_small_tpcc ~warehouses:1 () in
  let env = mk_env eng in
  let no_before = IT.length db.Tpcc_db.new_order_idx in
  let outcome, _ = drive (Tpcc.program db Tpcc.Delivery ~home_w:1) env in
  checkb "commits" true (committed outcome);
  let no_after = IT.length db.Tpcc_db.new_order_idx in
  (* one undelivered order per district consumed (districts with none skip) *)
  checkb "consumed up to 10" true (no_before - no_after >= 1 && no_before - no_after <= 10);
  (* delivered orders got a carrier *)
  let assigned = ref 0 in
  Table.iter db.Tpcc_db.orders (fun tuple ->
      match Tuple.read_committed tuple with
      | Some orow when Value.int_exn orow Sc.O.carrier_id >= 1 -> incr assigned
      | Some _ | None -> ());
  checkb "carriers assigned" true (!assigned > 0)

let test_stock_level_commits () =
  let eng, _, db = load_small_tpcc () in
  let env = mk_env eng in
  for _ = 1 to 10 do
    let outcome, _ = drive (Tpcc.stock_level db ~home_w:1) env in
    checkb "commits" true (committed outcome)
  done

let test_standard_mix_distribution () =
  let rng = Sim.Rng.create 31L in
  let counts = Hashtbl.create 5 in
  let n = 100_000 in
  for _ = 1 to n do
    let k = Tpcc.kind_to_string (Tpcc.standard_mix rng) in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  let pct k = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts k)) /. float_of_int n *. 100. in
  checkb "NewOrder ~45%" true (abs_float (pct "NewOrder" -. 45.) < 1.5);
  checkb "Payment ~43%" true (abs_float (pct "Payment" -. 43.) < 1.5);
  checkb "OrderStatus ~4%" true (abs_float (pct "OrderStatus" -. 4.) < 1.);
  checkb "Delivery ~4%" true (abs_float (pct "Delivery" -. 4.) < 1.);
  checkb "StockLevel ~4%" true (abs_float (pct "StockLevel" -. 4.) < 1.)

(* -- TPC-H Q2 -------------------------------------------------------------------------- *)

let load_small_tpch () =
  let eng = Engine.create () in
  let db = Tpch_db.create eng Hc.small in
  Tpch_db.load db (Sim.Rng.create 7L);
  eng, db

let test_tpch_load_counts () =
  let _, db = load_small_tpch () in
  let counts = Tpch_db.row_counts db in
  let get name = List.assoc name counts in
  checki "regions" Hc.small.Hc.regions (get "region");
  checki "nations" Hc.small.Hc.nations (get "nation");
  checki "suppliers" Hc.small.Hc.suppliers (get "supplier");
  checki "parts" Hc.small.Hc.parts (get "part");
  checki "partsupp" (Hc.small.Hc.parts * Hc.small.Hc.ps_per_part) (get "partsupp")

(* Brute-force Q2 oracle over latest-committed data. *)
let q2_oracle (db : Tpch_db.t) (params : Q2.params) =
  let module HSc = Hc in
  let nation_region = Hashtbl.create 32 and nation_name = Hashtbl.create 32 in
  Table.iter db.Tpch_db.nation (fun t ->
      match Tuple.read_committed t with
      | Some r ->
        Hashtbl.replace nation_region (Value.int_exn r HSc.N.id) (Value.int_exn r HSc.N.r_id);
        Hashtbl.replace nation_name (Value.int_exn r HSc.N.id) (Value.str_exn r HSc.N.name)
      | None -> ());
  let suppliers = Hashtbl.create 256 in
  Table.iter db.Tpch_db.supplier (fun t ->
      match Tuple.read_committed t with
      | Some r -> Hashtbl.replace suppliers (Value.int_exn r HSc.Su.id) r
      | None -> ());
  let parts = Hashtbl.create 256 in
  Table.iter db.Tpch_db.part (fun t ->
      match Tuple.read_committed t with
      | Some r ->
        if
          Value.int_exn r HSc.Pa.size = params.Q2.size
          && Value.int_exn r HSc.Pa.type_ = params.Q2.type_code
        then Hashtbl.replace parts (Value.int_exn r HSc.Pa.id) r
      | None -> ());
  let offers = Hashtbl.create 256 in
  Table.iter db.Tpch_db.partsupp (fun t ->
      match Tuple.read_committed t with
      | Some r ->
        let p = Value.int_exn r HSc.Ps.p_id and s = Value.int_exn r HSc.Ps.s_id in
        if Hashtbl.mem parts p then begin
          let srow = Hashtbl.find suppliers s in
          let n = Value.int_exn srow HSc.Su.n_id in
          if Hashtbl.find nation_region n = params.Q2.region then
            Hashtbl.replace offers p
              ((Value.float_exn r HSc.Ps.supplycost, s)
              :: Option.value ~default:[] (Hashtbl.find_opt offers p))
        end
      | None -> ());
  let rows = ref [] in
  Hashtbl.iter
    (fun p offer_list ->
      let min_cost = List.fold_left (fun acc (c, _) -> Float.min acc c) Float.max_float offer_list in
      List.iter
        (fun (c, s) ->
          if Float.equal c min_cost then begin
            let srow = Hashtbl.find suppliers s in
            rows :=
              ( Value.float_exn srow HSc.Su.acctbal,
                Value.str_exn srow HSc.Su.name,
                p )
              :: !rows
          end)
        offer_list)
    offers;
  List.sort (fun (a, _, _) (b, _, _) -> Float.compare b a) !rows

let test_q2_matches_oracle () =
  let eng, db = load_small_tpch () in
  let env = mk_env eng in
  let found_nonempty = ref false in
  for seed = 1 to 10 do
    let prng = Sim.Rng.create (Int64.of_int seed) in
    let params = Q2.random_params Hc.small prng in
    let rows, outcome = Q2.execute db env params in
    checkb "q2 commits" true (match outcome with P.Committed _ -> true | _ -> false);
    let oracle = q2_oracle db params in
    let oracle_top =
      List.filteri (fun i _ -> i < params.Q2.top_n) oracle
      |> List.map (fun (b, n, p) -> b, n, p)
    in
    let got = List.map (fun (r : Q2.result_row) -> r.Q2.s_acctbal, r.Q2.s_name, r.Q2.p_id) rows in
    if oracle_top <> [] then found_nonempty := true;
    checki (Printf.sprintf "row count (seed %d)" seed) (List.length oracle_top) (List.length got);
    (* same multiset; ordering ties (equal acctbal) may permute *)
    let sort = List.sort compare in
    checkb "same rows" true (sort got = sort oracle_top)
  done;
  checkb "at least one non-empty result across seeds" true !found_nonempty

let test_q2_emits_yield_hints () =
  let eng, db = load_small_tpch () in
  let env = mk_env eng in
  let prng = Sim.Rng.create 3L in
  let params = Q2.random_params Hc.small prng in
  let hints = ref 0 in
  let rec go = function
    | P.Finished _ -> ()
    | P.Pending (op, k) ->
      if op = P.Yield_hint then incr hints;
      go (P.resume k)
  in
  go (P.start (Q2.program db params) env);
  (* one hint per part scanned — the nested-block marker of §6.3 *)
  checki "hint per outer block" Hc.small.Hc.parts !hints

(* -- CH-benCHmark queries ---------------------------------------------------------- *)

module Ch = Workload.Ch

(* Direct latest-committed oracle for Q1. *)
let q1_oracle (db : Tpcc_db.t) =
  let groups = Hashtbl.create 16 in
  Table.iter db.Tpcc_db.order_line (fun tuple ->
      match Tuple.read_committed tuple with
      | Some row when Value.int_exn row Sc.OL.delivery_d >= 0 ->
        let n = Value.int_exn row Sc.OL.number in
        let qty, amount, count =
          Option.value ~default:(0, 0., 0) (Hashtbl.find_opt groups n)
        in
        Hashtbl.replace groups n
          ( qty + Value.int_exn row Sc.OL.quantity,
            amount +. Value.float_exn row Sc.OL.amount,
            count + 1 )
      | Some _ | None -> ());
  groups

let test_ch_q1_matches_oracle () =
  let eng, _, db = load_small_tpcc () in
  let env = mk_env eng in
  let got = ref [] in
  let outcome, _ = drive (Ch.q1_collect db (fun rows -> got := rows)) env in
  checkb "commits" true (committed outcome);
  let oracle = q1_oracle db in
  checki "group count" (Hashtbl.length oracle) (List.length !got);
  List.iter
    (fun (r : Ch.q1_row) ->
      match Hashtbl.find_opt oracle r.Ch.ol_number with
      | Some (qty, amount, count) ->
        checki "sum qty" qty r.Ch.sum_qty;
        checki "count" count r.Ch.count_lines;
        checkb "sum amount" true (abs_float (amount -. r.Ch.sum_amount) < 1e-6)
      | None -> Alcotest.fail "unexpected group")
    !got

let test_ch_q6_snapshot_stable () =
  (* A Q6 paused mid-scan must not see concurrently committed inserts. *)
  let eng, _, db = load_small_tpcc ~warehouses:1 () in
  let env = mk_env eng in
  let before = ref nan in
  let outcome, _ = drive (Ch.q6_collect db (fun v -> before := v)) env in
  checkb "first run commits" true (committed outcome);
  (* interleave: start a second Q6, and mid-scan commit NewOrders *)
  let after_concurrent = ref nan in
  let prog = Ch.q6_collect db (fun v -> after_concurrent := v) in
  let steps = ref 0 in
  let writer_env = { (mk_env eng) with P.worker = 1 } in
  let rec go = function
    | P.Finished o -> o
    | P.Pending (_, k) ->
      incr steps;
      (* every 500 micro-ops, commit a NewOrder "concurrently" *)
      if !steps mod 500 = 0 then ignore (drive (Tpcc.new_order db ~home_w:1) writer_env);
      go (P.resume k)
  in
  (match go (P.start prog env) with
  | P.Committed _ -> ()
  | P.Aborted _ -> Alcotest.fail "read-only Q6 must commit");
  checkb "snapshot-stable revenue" true (Float.equal !before !after_concurrent);
  (* a third, fresh-snapshot run may now see the new undelivered lines —
     but Q6 only counts delivered ones, so compare Q1-style totals via a
     fresh scan count instead *)
  let final = ref nan in
  ignore (drive (Ch.q6_collect db (fun v -> final := v)) env);
  checkb "fresh snapshot also consistent" true (Float.is_finite !final)

let test_ch_q4_commits () =
  let eng, _, db = load_small_tpcc () in
  let env = mk_env eng in
  for _ = 1 to 3 do
    let outcome, ops = drive (Ch.program db Ch.Q4) env in
    checkb "commits" true (committed outcome);
    checkb "substantial scan" true (ops > 500)
  done

let test_ch_yield_hints () =
  let eng, _, db = load_small_tpcc ~warehouses:1 () in
  let env = mk_env eng in
  let hints = ref 0 in
  let rec go = function
    | P.Finished _ -> ()
    | P.Pending (op, k) ->
      if op = P.Yield_hint then incr hints;
      go (P.resume k)
  in
  go (P.start (Ch.program db Ch.Q1) env);
  checkb "hints emitted every block" true (!hints > 5)

(* -- Ledger ---------------------------------------------------------------------------- *)

module Ledger = Workload.Ledger

let small_ledger =
  { Ledger.default with Ledger.accounts = 500; audit_scan = 100; branches = 4 }

let test_ledger_load_and_balance () =
  let eng = Engine.create () in
  let l = Ledger.create eng small_ledger in
  Ledger.load l (Sim.Rng.create 1L);
  checki "initial balance" (500 * 1000) (Ledger.total_balance l);
  checki "branch rows" 4 (Table.size (Engine.table eng "ledger_branch"));
  checki "account rows" 500 (Table.size (Ledger.table l))

let test_ledger_conserves_balance () =
  let eng = Engine.create () in
  let l = Ledger.create eng small_ledger in
  Ledger.load l (Sim.Rng.create 1L);
  let env = mk_env eng in
  let commits = ref 0 in
  for i = 1 to 60 do
    let prog = if i mod 3 = 0 then Ledger.audit l else Ledger.transfer l in
    let outcome, _ = drive prog env in
    if committed outcome then incr commits
  done;
  checkb "most commit (sequential, no contention)" true (!commits >= 55);
  checki "total balance conserved" (500 * 1000) (Ledger.total_balance l)

let test_ledger_config_validation () =
  let eng = Engine.create () in
  checkb "odd settle rejected" true
    (match Ledger.create eng { small_ledger with Ledger.audit_settle = 3 } with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Every sample lies in [0, n) for any valid (theta, n), and the stream is
   a pure function of the rng state. For clearly skewed theta the hottest
   key must be drawn at least as often as the coldest (near-uniform theta
   is exempt: 400 draws over up to 500 keys is too noisy to order them). *)
let prop_zipf_bounds =
  QCheck2.Test.make ~name:"zipf samples in [0,n), deterministic, skew-ordered" ~count:60
    QCheck2.Gen.(triple (int_range 1 500) (int_range 0 99) (int_range 0 10_000))
    (fun (n, theta_pct, seed) ->
      let z = Zipf.create ~theta:(float_of_int theta_pct /. 100.) ~n () in
      let rng = Sim.Rng.create (Int64.of_int seed) in
      let rng' = Sim.Rng.create (Int64.of_int seed) in
      let counts = Array.make n 0 in
      let ok = ref true in
      for _ = 1 to 400 do
        let v = Zipf.next z rng in
        if v < 0 || v >= n then ok := false
        else counts.(v) <- counts.(v) + 1;
        if Zipf.next z rng' <> v then ok := false
      done;
      !ok && (theta_pct < 60 || counts.(0) >= counts.(n - 1)))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* A class writes only what it declares: a write to any other table or
   index fails loudly instead of letting a reader that assumed it
   read-only run ahead of it. *)
let test_undeclared_write_fails () =
  let eng = Engine.create () in
  let declared = Engine.create_table eng "declared" in
  let other = Engine.create_table eng "other" in
  let tree = IT.create () in
  let writes = Storage.Txn.declare ~tables:[ declared ] () in
  checkb "undeclared index stays read-only" false (IT.written tree);
  let env = mk_env eng in
  let fails prog =
    match drive prog env with
    | _ -> false
    | exception Failure msg -> String.length msg > 0
  in
  checkb "undeclared table write fails" true
    (fails (fun env ->
         P.run_txn ~writes env (fun txn ->
             ignore (P.insert env txn other (Value.of_fields [| Value.Int 1 |])))));
  checkb "undeclared index write fails" true
    (fails (fun env ->
         P.run_txn ~writes env (fun txn ->
             let tuple = P.insert env txn declared (Value.of_fields [| Value.Int 1 |]) in
             Idx.insert_int env txn tree ~key:1 ~oid:tuple.Tuple.oid)));
  checkb "declared write commits" true
    (committed
       (fst
          (drive
             (fun env ->
               P.run_txn ~writes env (fun txn ->
                   ignore (P.insert env txn declared (Value.of_fields [| Value.Int 2 |]))))
             env)))

let () =
  Alcotest.run "workload"
    [
      ( "program",
        [
          Alcotest.test_case "runs to completion" `Quick test_program_runs_to_completion;
          Alcotest.test_case "charge outside fails" `Quick test_program_charge_outside_fails;
          Alcotest.test_case "shared state in a commuting step fails" `Quick
            test_program_check_ordered;
          Alcotest.test_case "user abort path" `Quick test_program_user_abort_path;
          Alcotest.test_case "non-preemptible exception safety" `Quick
            test_program_non_preemptible_balanced_on_exception;
          Alcotest.test_case "discard runs finalizers" `Quick test_program_discard;
          Alcotest.test_case "record access classification" `Quick test_program_op_is_record_access;
        ] );
      ( "idx",
        [
          Alcotest.test_case "rollback on abort" `Quick test_idx_rollback_on_abort;
          Alcotest.test_case "undeclared write fails loudly" `Quick test_undeclared_write_fails;
          Alcotest.test_case "scan limit and first" `Quick test_idx_scan_limit_and_first;
        ] );
      ( "generators",
        [
          Alcotest.test_case "zipf" `Slow test_zipf;
          Alcotest.test_case "nurand bounds" `Quick test_nurand_bounds;
          Alcotest.test_case "c_last" `Quick test_c_last;
        ]
        @ qsuite [ prop_zipf_bounds ] );
      ( "keys",
        [
          Alcotest.test_case "distinct" `Quick test_key_encoders_distinct;
          Alcotest.test_case "orders-by-customer descending" `Quick test_order_by_customer_desc;
          Alcotest.test_case "new-order oldest first" `Quick test_new_order_bounds_oldest_first;
          Alcotest.test_case "customer name prefix" `Quick test_customer_name_prefix;
          Alcotest.test_case "config validation" `Quick test_config_validation;
        ] );
      ( "tpcc_load",
        [
          Alcotest.test_case "row counts" `Quick test_tpcc_load_counts;
          Alcotest.test_case "index sizes" `Quick test_tpcc_load_index_sizes;
        ] );
      ( "tpcc_txns",
        [
          Alcotest.test_case "NewOrder updates" `Quick test_new_order_commits_and_updates;
          Alcotest.test_case "NewOrder order-line consistency" `Quick
            test_new_order_order_lines_consistent;
          Alcotest.test_case "Payment balances" `Quick test_payment_updates_balances;
          Alcotest.test_case "OrderStatus read-only" `Quick test_order_status_read_only;
          Alcotest.test_case "Delivery consumes new orders" `Quick
            test_delivery_consumes_new_orders;
          Alcotest.test_case "StockLevel commits" `Quick test_stock_level_commits;
          Alcotest.test_case "standard mix distribution" `Slow test_standard_mix_distribution;
        ] );
      ( "tpch",
        [
          Alcotest.test_case "load counts" `Quick test_tpch_load_counts;
          Alcotest.test_case "Q2 matches brute-force oracle" `Quick test_q2_matches_oracle;
          Alcotest.test_case "Q2 emits nested-block hints" `Quick test_q2_emits_yield_hints;
        ] );
      ( "ch",
        [
          Alcotest.test_case "Q1 matches oracle" `Quick test_ch_q1_matches_oracle;
          Alcotest.test_case "Q6 snapshot stability" `Quick test_ch_q6_snapshot_stable;
          Alcotest.test_case "Q4 commits" `Quick test_ch_q4_commits;
          Alcotest.test_case "yield hints per block" `Quick test_ch_yield_hints;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "load and balance" `Quick test_ledger_load_and_balance;
          Alcotest.test_case "balance conserved" `Quick test_ledger_conserves_balance;
          Alcotest.test_case "config validation" `Quick test_ledger_config_validation;
        ] );
    ]
