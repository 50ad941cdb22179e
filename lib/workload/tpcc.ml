module Sc = Tpcc_schema
module P = Program
module Value = Storage.Value
module Err = Storage.Err
open Storage.Value

type kind = New_order | Payment | Order_status | Delivery | Stock_level

let kind_to_string = function
  | New_order -> "NewOrder"
  | Payment -> "Payment"
  | Order_status -> "OrderStatus"
  | Delivery -> "Delivery"
  | Stock_level -> "StockLevel"

let standard_mix rng =
  let r = Sim.Rng.int rng 100 in
  if r < 45 then New_order
  else if r < 88 then Payment
  else if r < 92 then Order_status
  else if r < 96 then Delivery
  else Stock_level

let not_found what = failwith (Printf.sprintf "Tpcc: %s not found (corrupt database?)" what)

(* Read through a unique index; the row must exist and be visible (TPC-C
   point reads never target uncommitted inserts). *)
let read_via (env : P.env) txn table idx key what =
  match Idx.probe_int idx key with
  | None -> not_found what
  | Some oid -> (
    match P.read env txn table ~oid with
    | Some row -> oid, row
    | None -> not_found what)

(* -- NewOrder (spec 2.4) ------------------------------------------------ *)

let new_order (db : Tpcc_db.t) ~home_w env =
  let cfg = db.Tpcc_db.cfg in
  let rng = env.P.rng in
  let w = home_w in
  let d = Sim.Rng.int_in rng 1 cfg.Sc.districts in
  let c = Tpcc_rand.customer_id_scaled rng ~customers:cfg.Sc.customers in
  let ol_cnt = Sim.Rng.int_in rng 5 15 in
  (* Spec 2.4.1.4: 1 % of NewOrders roll back via an unused item id. *)
  let rollback = Sim.Rng.int rng 100 = 0 in
  let lines =
    List.init ol_cnt (fun idx ->
        let invalid = rollback && idx = ol_cnt - 1 in
        let i = if invalid then -1 else Tpcc_rand.item_id_scaled rng ~items:cfg.Sc.items in
        let remote = cfg.Sc.warehouses > 1 && Sim.Rng.int rng 100 < cfg.Sc.remote_pct in
        let supply_w =
          if not remote then w
          else begin
            let pick = Sim.Rng.int_in rng 1 (cfg.Sc.warehouses - 1) in
            if pick >= w then pick + 1 else pick
          end
        in
        i, supply_w, Sim.Rng.int_in rng 1 10)
  in
  P.run_txn ~writes:db.new_order_writes env (fun txn ->
      let _, wrow = read_via env txn db.warehouse db.warehouse_idx w "warehouse" in
      let w_tax = Value.float_exn wrow Sc.W.tax in
      let doid, drow =
        read_via env txn db.district db.district_idx (Sc.district_key ~w ~d) "district"
      in
      let d_tax = Value.float_exn drow Sc.D.tax in
      let o_id = Value.int_exn drow Sc.D.next_o_id in
      if o_id > Sc.max_order then raise (P.Txn_failed Err.User_abort);
      P.update env txn db.district ~oid:doid (Value.add_int drow Sc.D.next_o_id 1);
      let _, crow =
        read_via env txn db.customer db.customer_idx (Sc.customer_key ~w ~d ~c) "customer"
      in
      let c_discount = Value.float_exn crow Sc.C.discount in
      let all_local = List.for_all (fun (_, sw, _) -> sw = w) lines in
      let otuple =
        P.insert env txn db.orders
          (Value.of_fields
             [|
               Int w;
               Int d;
               Int o_id;
               Int c;
               Int (-1);
               Int ol_cnt;
               Int (if all_local then 1 else 0);
               Int 0;
             |])
      in
      Idx.insert_int env txn db.orders_idx ~key:(Sc.order_key ~w ~d ~o:o_id)
        ~oid:otuple.Storage.Tuple.oid;
      Idx.insert_int env txn db.orders_by_customer_idx
        ~key:(Sc.order_by_customer_key ~w ~d ~c ~o:o_id)
        ~oid:otuple.Storage.Tuple.oid;
      let ntuple = P.insert env txn db.new_order (Value.of_fields [| Int w; Int d; Int o_id |]) in
      Idx.insert_int env txn db.new_order_idx
        ~key:(Sc.new_order_key ~w ~d ~o:o_id)
        ~oid:ntuple.Storage.Tuple.oid;
      List.iteri
        (fun idx (i, supply_w, qty) ->
          if i < 0 then raise (P.Txn_failed Err.User_abort);
          let _, irow = read_via env txn db.item db.item_idx i "item" in
          let price = Value.float_exn irow Sc.I.price in
          let soid, srow =
            read_via env txn db.stock db.stock_idx (Sc.stock_key ~w:supply_w ~i) "stock"
          in
          let s_qty = Value.int_exn srow Sc.S.quantity in
          let new_qty = if s_qty >= qty + 10 then s_qty - qty else s_qty - qty + 91 in
          let srow = Value.set srow Sc.S.quantity (Int new_qty) in
          let srow = Value.add_float srow Sc.S.ytd (float_of_int qty) in
          let srow = Value.add_int srow Sc.S.order_cnt 1 in
          let srow = if supply_w <> w then Value.add_int srow Sc.S.remote_cnt 1 else srow in
          P.update env txn db.stock ~oid:soid srow;
          let amount = float_of_int qty *. price in
          let n = idx + 1 in
          let oltuple =
            P.insert env txn db.order_line
              (Value.of_fields
                 [|
                   Int w;
                   Int d;
                   Int o_id;
                   Int n;
                   Int i;
                   Int supply_w;
                   Int qty;
                   Float (amount *. (1.0 +. w_tax +. d_tax) *. (1.0 -. c_discount));
                   Int (-1);
                   Str "dist-info-dist-info-dist";
                 |])
          in
          Idx.insert_int env txn db.order_line_idx
            ~key:(Sc.order_line_key ~w ~d ~o:o_id ~n)
            ~oid:oltuple.Storage.Tuple.oid)
        lines;
      P.compute 500)

(* -- Payment (spec 2.5) -------------------------------------------------- *)

(* Pick a customer oid: 60 % by last name (middle row, ordered by first
   name), 40 % by id. *)
let select_customer (db : Tpcc_db.t) env txn ~w ~d =
  let cfg = db.Tpcc_db.cfg in
  let rng = env.P.rng in
  if Sim.Rng.int rng 100 < 60 then begin
    let last = Tpcc_rand.random_c_last rng in
    let lo, hi = Sc.customer_name_prefix ~w ~d ~last in
    let matches = Idx.collect_str db.customer_name_idx ~lo ~hi in
    match matches with
    | [] ->
      (* Scaled-down databases may miss a name: fall back to an id pick. *)
      let c = Tpcc_rand.customer_id_scaled rng ~customers:cfg.Sc.customers in
      read_via env txn db.customer db.customer_idx (Sc.customer_key ~w ~d ~c) "customer"
    | _ ->
      let n = List.length matches in
      let _, oid = List.nth matches ((n - 1) / 2) in
      (match P.read env txn db.customer ~oid with
      | Some row -> oid, row
      | None -> not_found "customer")
  end
  else begin
    let c = Tpcc_rand.customer_id_scaled rng ~customers:cfg.Sc.customers in
    read_via env txn db.customer db.customer_idx (Sc.customer_key ~w ~d ~c) "customer"
  end

let payment (db : Tpcc_db.t) ~home_w env =
  let cfg = db.Tpcc_db.cfg in
  let rng = env.P.rng in
  let w = home_w in
  let d = Sim.Rng.int_in rng 1 cfg.Sc.districts in
  let amount = Sim.Rng.float rng 4999.0 +. 1.0 in
  (* 15 % of payments are for a remote customer (spec; also the paper's
     remote probability). *)
  let c_w, c_d =
    if cfg.Sc.warehouses > 1 && Sim.Rng.int rng 100 < cfg.Sc.remote_pct then begin
      let pick = Sim.Rng.int_in rng 1 (cfg.Sc.warehouses - 1) in
      let c_w = if pick >= w then pick + 1 else pick in
      c_w, Sim.Rng.int_in rng 1 cfg.Sc.districts
    end
    else w, d
  in
  P.run_txn ~writes:db.payment_writes env (fun txn ->
      let woid, wrow = read_via env txn db.warehouse db.warehouse_idx w "warehouse" in
      P.update env txn db.warehouse ~oid:woid (Value.add_float wrow Sc.W.ytd amount);
      let doid, drow =
        read_via env txn db.district db.district_idx (Sc.district_key ~w ~d) "district"
      in
      P.update env txn db.district ~oid:doid (Value.add_float drow Sc.D.ytd amount);
      let coid, crow = select_customer db env txn ~w:c_w ~d:c_d in
      let crow = Value.add_float crow Sc.C.balance (-.amount) in
      let crow = Value.add_float crow Sc.C.ytd_payment amount in
      let crow = Value.add_int crow Sc.C.payment_cnt 1 in
      let crow =
        if String.equal (Value.str_exn crow Sc.C.credit) "BC" then
          Value.set crow Sc.C.data (Str "bad-credit-history-gets-rewritten-here")
        else crow
      in
      P.update env txn db.customer ~oid:coid crow;
      let htuple =
        P.insert env txn db.history
          (Value.of_fields [| Int c_w; Int c_d; Int 0; Float amount; Int 0 |])
      in
      ignore htuple;
      P.compute 300)

(* -- OrderStatus (spec 2.6) ---------------------------------------------- *)

let order_status (db : Tpcc_db.t) ~home_w env =
  let cfg = db.Tpcc_db.cfg in
  let rng = env.P.rng in
  let w = home_w in
  let d = Sim.Rng.int_in rng 1 cfg.Sc.districts in
  P.run_txn ~writes:P.read_only env (fun txn ->
      let _, crow = select_customer db env txn ~w ~d in
      let c = Value.int_exn crow Sc.C.id in
      let lo, hi = Sc.order_by_customer_bounds ~w ~d ~c in
      match Idx.first_int db.orders_by_customer_idx ~lo ~hi with
      | None -> () (* customer has never ordered *)
      | Some (_, ooid) ->
        (match P.read env txn db.orders ~oid:ooid with
        | None -> ()
        | Some orow ->
          let o = Value.int_exn orow Sc.O.id in
          let llo, lhi = Sc.order_line_bounds ~w ~d ~o in
          Idx.scan_int db.order_line_idx ~lo:llo ~hi:lhi (fun _ oloid ->
              ignore (P.read env txn db.order_line ~oid:oloid);
              true)))

(* -- Delivery (spec 2.7) ------------------------------------------------- *)

let delivery (db : Tpcc_db.t) ~home_w env =
  let cfg = db.Tpcc_db.cfg in
  let rng = env.P.rng in
  let w = home_w in
  let carrier = Sim.Rng.int_in rng 1 10 in
  P.run_txn ~writes:db.delivery_writes env (fun txn ->
      for d = 1 to cfg.Sc.districts do
        let lo, hi = Sc.new_order_bounds ~w ~d in
        match Idx.first_int db.new_order_idx ~lo ~hi with
        | None -> () (* no undelivered order in this district *)
        | Some (no_key, nooid) ->
          (match P.read env txn db.new_order ~oid:nooid with
          | None -> () (* another delivery got it first *)
          | Some norow ->
            let o = Value.int_exn norow Sc.NO.o_id in
            P.delete env txn db.new_order ~oid:nooid;
            Idx.remove_int env txn db.new_order_idx ~key:no_key;
            let ooid, orow =
              read_via env txn db.orders db.orders_idx (Sc.order_key ~w ~d ~o) "order"
            in
            let c = Value.int_exn orow Sc.O.c_id in
            P.update env txn db.orders ~oid:ooid (Value.set orow Sc.O.carrier_id (Int carrier));
            let total = ref 0.0 in
            let llo, lhi = Sc.order_line_bounds ~w ~d ~o in
            let line_oids = ref [] in
            Idx.scan_int db.order_line_idx ~lo:llo ~hi:lhi (fun _ oloid ->
                line_oids := oloid :: !line_oids;
                true);
            List.iter
              (fun oloid ->
                match P.read env txn db.order_line ~oid:oloid with
                | None -> ()
                | Some olrow ->
                  total := !total +. Value.float_exn olrow Sc.OL.amount;
                  P.update env txn db.order_line ~oid:oloid
                    (Value.set olrow Sc.OL.delivery_d (Int 1)))
              !line_oids;
            let coid, crow =
              read_via env txn db.customer db.customer_idx (Sc.customer_key ~w ~d ~c) "customer"
            in
            let crow = Value.add_float crow Sc.C.balance !total in
            let crow = Value.add_int crow Sc.C.delivery_cnt 1 in
            P.update env txn db.customer ~oid:coid crow)
      done;
      P.compute 400)

(* -- StockLevel (spec 2.8) ----------------------------------------------- *)

let stock_level (db : Tpcc_db.t) ~home_w env =
  let cfg = db.Tpcc_db.cfg in
  let rng = env.P.rng in
  let w = home_w in
  let d = Sim.Rng.int_in rng 1 cfg.Sc.districts in
  let threshold = Sim.Rng.int_in rng 10 20 in
  P.run_txn ~writes:P.read_only env (fun txn ->
      let _, drow =
        read_via env txn db.district db.district_idx (Sc.district_key ~w ~d) "district"
      in
      let next_o = Value.int_exn drow Sc.D.next_o_id in
      let item_ids = Hashtbl.create 64 in
      for o = max 1 (next_o - 20) to next_o - 1 do
        let llo, lhi = Sc.order_line_bounds ~w ~d ~o in
        Idx.scan_int db.order_line_idx ~lo:llo ~hi:lhi (fun _ oloid ->
            (match P.read env txn db.order_line ~oid:oloid with
            | Some olrow -> Hashtbl.replace item_ids (Value.int_exn olrow Sc.OL.i_id) ()
            | None -> ());
            true)
      done;
      let low = ref 0 in
      Hashtbl.iter
        (fun i () ->
          match Idx.probe_int db.stock_idx (Sc.stock_key ~w ~i) with
          | None -> ()
          | Some soid -> (
            match P.read env txn db.stock ~oid:soid with
            | Some srow -> if Value.int_exn srow Sc.S.quantity < threshold then incr low
            | None -> ()))
        item_ids;
      P.compute 200)

(* Minimal read-only lookup: the "urgent" class of the multi-level
   extension. *)
let balance_check (db : Tpcc_db.t) ~home_w env =
  let cfg = db.Tpcc_db.cfg in
  let rng = env.P.rng in
  let w = home_w in
  let d = Sim.Rng.int_in rng 1 cfg.Sc.districts in
  let c = Tpcc_rand.customer_id_scaled rng ~customers:cfg.Sc.customers in
  P.run_txn ~writes:P.read_only env (fun txn ->
      let _, crow =
        read_via env txn db.customer db.customer_idx (Sc.customer_key ~w ~d ~c) "customer"
      in
      ignore (Value.float_exn crow Sc.C.balance))

let program db kind ~home_w =
  match kind with
  | New_order -> new_order db ~home_w
  | Payment -> payment db ~home_w
  | Order_status -> order_status db ~home_w
  | Delivery -> delivery db ~home_w
  | Stock_level -> stock_level db ~home_w
