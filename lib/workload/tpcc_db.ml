module Sc = Tpcc_schema
module Table = Storage.Table
module Tuple = Storage.Tuple
module Version = Storage.Version
module Value = Storage.Value
module Engine = Storage.Engine
open Storage.Value

type t = {
  cfg : Sc.config;
  eng : Engine.t;
  warehouse : Table.t;
  district : Table.t;
  customer : Table.t;
  history : Table.t;
  new_order : Table.t;
  orders : Table.t;
  order_line : Table.t;
  item : Table.t;
  stock : Table.t;
  warehouse_idx : Idx.IT.t;
  district_idx : Idx.IT.t;
  customer_idx : Idx.IT.t;
  customer_name_idx : Idx.ST.t;
  orders_idx : Idx.IT.t;
  orders_by_customer_idx : Idx.IT.t;
  new_order_idx : Idx.IT.t;
  order_line_idx : Idx.IT.t;
  item_idx : Idx.IT.t;
  stock_idx : Idx.IT.t;
  new_order_writes : Storage.Txn.writes;
  payment_writes : Storage.Txn.writes;
  delivery_writes : Storage.Txn.writes;
}

(* Each transaction class's declared write set, filled in once the tables
   and trees exist (the record's fields are built in its own evaluation
   order, which fixes the table ids and so the latch order). *)
let declare t =
  let decl tables indexes = Storage.Txn.declare ~tables ~indexes () in
  {
    t with
    new_order_writes =
      decl
        [ t.district; t.orders; t.new_order; t.stock; t.order_line ]
        [ t.orders_idx; t.orders_by_customer_idx; t.new_order_idx; t.order_line_idx ];
    payment_writes = decl [ t.warehouse; t.district; t.customer; t.history ] [];
    delivery_writes =
      decl [ t.new_order; t.orders; t.order_line; t.customer ] [ t.new_order_idx ];
  }

let create eng cfg =
  Sc.validate cfg;
  declare {
    cfg;
    eng;
    warehouse = Engine.create_table eng "warehouse";
    district = Engine.create_table eng "district";
    customer = Engine.create_table eng "customer";
    history = Engine.create_table eng "history";
    new_order = Engine.create_table eng "new_order";
    orders = Engine.create_table eng "orders";
    order_line = Engine.create_table eng "order_line";
    item = Engine.create_table eng "item";
    stock = Engine.create_table eng "stock";
    warehouse_idx = Idx.IT.create ();
    district_idx = Idx.IT.create ();
    customer_idx = Idx.IT.create ();
    customer_name_idx = Idx.ST.create ();
    orders_idx = Idx.IT.create ();
    orders_by_customer_idx = Idx.IT.create ();
    new_order_idx = Idx.IT.create ();
    order_line_idx = Idx.IT.create ();
    item_idx = Idx.IT.create ();
    stock_idx = Idx.IT.create ();
    new_order_writes = Program.read_only;
    payment_writes = Program.read_only;
    delivery_writes = Program.read_only;
  }

(* Bootstrap rows bypass the transaction layer: install a committed version
   directly, as a recovery-style load would. *)
let load_row table fields =
  let tuple = Table.alloc table in
  Tuple.install tuple (Version.committed (Some (of_fields fields)));
  tuple.Tuple.oid

let load ?(owns = fun _ -> true) t rng =
  let cfg = t.cfg in
  (* items *)
  for i = 1 to cfg.Sc.items do
    let row =
      [|
        Int i;
        Int (Sim.Rng.int_in rng 1 10_000);
        Str (Sim.Rng.alpha_string rng ~min_len:14 ~max_len:24);
        Float (Sim.Rng.float rng 99.0 +. 1.0);
        Str (Sim.Rng.alpha_string rng ~min_len:26 ~max_len:50);
      |]
    in
    let oid = load_row t.item row in
    ignore (Idx.IT.insert t.item_idx i oid)
  done;
  for w = 1 to cfg.Sc.warehouses do
    (* Sharded loads populate only owned warehouses (items above are
       replicated everywhere, read-only).  The RNG is NOT kept in sync
       across the skip — each shard draws its own stream, which is fine:
       population is setup, not measured or replayed work. *)
    if owns w then begin
    let woid =
      load_row t.warehouse
        [|
          Int w;
          Str (Sim.Rng.alpha_string rng ~min_len:6 ~max_len:10);
          Float (Sim.Rng.float rng 0.2);
          Float 300_000.0;
        |]
    in
    ignore (Idx.IT.insert t.warehouse_idx w woid);
    (* stock *)
    for i = 1 to cfg.Sc.items do
      let soid =
        load_row t.stock
          [|
            Int w;
            Int i;
            Int (Sim.Rng.int_in rng 10 100);
            Float 0.0;
            Int 0;
            Int 0;
            Str (Sim.Rng.alpha_string rng ~min_len:26 ~max_len:50);
          |]
      in
      ignore (Idx.IT.insert t.stock_idx (Sc.stock_key ~w ~i) soid)
    done;
    for d = 1 to cfg.Sc.districts do
      let next_o = cfg.Sc.init_orders + 1 in
      let doid =
        load_row t.district
          [|
            Int w;
            Int d;
            Str (Sim.Rng.alpha_string rng ~min_len:6 ~max_len:10);
            Float (Sim.Rng.float rng 0.2);
            Float 30_000.0;
            Int next_o;
          |]
      in
      ignore (Idx.IT.insert t.district_idx (Sc.district_key ~w ~d) doid);
      (* customers *)
      for c = 1 to cfg.Sc.customers do
        let last =
          (* Spec: the first 1000 customers get sequential last names, the
             rest NURand names — scaled here to the configured count. *)
          if c <= 1000 then Tpcc_rand.c_last ((c - 1) mod 1000)
          else Tpcc_rand.random_c_last rng
        in
        let first = Sim.Rng.alpha_string rng ~min_len:8 ~max_len:16 in
        let credit = if Sim.Rng.int rng 10 = 0 then "BC" else "GC" in
        let coid =
          load_row t.customer
            [|
              Int w;
              Int d;
              Int c;
              Str first;
              Str last;
              Str credit;
              Float (Sim.Rng.float rng 0.5);
              Float (-10.0);
              Float 10.0;
              Int 1;
              Int 0;
              Str (Sim.Rng.alpha_string rng ~min_len:30 ~max_len:60);
            |]
        in
        ignore (Idx.IT.insert t.customer_idx (Sc.customer_key ~w ~d ~c) coid);
        ignore
          (Idx.ST.insert t.customer_name_idx
              (Sc.customer_name_key ~w ~d ~last ~first ~c)
              coid);
        (* one history row per customer *)
        ignore (load_row t.history [| Int w; Int d; Int c; Float 10.0; Int 0 |])
      done;
      (* initial orders: customers 1..init_orders in a random permutation *)
      let perm = Array.init cfg.Sc.init_orders (fun i -> (i mod cfg.Sc.customers) + 1) in
      Sim.Rng.shuffle rng perm;
      for o = 1 to cfg.Sc.init_orders do
        let c = perm.(o - 1) in
        let ol_cnt = Sim.Rng.int_in rng 5 15 in
        (* The most recent 30 % of initial orders are undelivered. *)
        let delivered = o <= cfg.Sc.init_orders * 7 / 10 in
        let carrier = if delivered then Sim.Rng.int_in rng 1 10 else -1 in
        let ooid =
          load_row t.orders
            [| Int w; Int d; Int o; Int c; Int carrier; Int ol_cnt; Int 1; Int 0 |]
        in
        ignore (Idx.IT.insert t.orders_idx (Sc.order_key ~w ~d ~o) ooid);
        ignore
          (Idx.IT.insert t.orders_by_customer_idx (Sc.order_by_customer_key ~w ~d ~c ~o) ooid);
        if not delivered then begin
          let nooid = load_row t.new_order [| Int w; Int d; Int o |] in
          ignore (Idx.IT.insert t.new_order_idx (Sc.new_order_key ~w ~d ~o) nooid)
        end;
        for n = 1 to ol_cnt do
          let i = Sim.Rng.int_in rng 1 cfg.Sc.items in
          let amount = if delivered then 0.0 else Sim.Rng.float rng 9_999.99 +. 0.01 in
          let oloid =
            load_row t.order_line
              [|
                Int w;
                Int d;
                Int o;
                Int n;
                Int i;
                Int w;
                Int 5;
                Float amount;
                Int (if delivered then 1 else -1);
                Str (Sim.Rng.alpha_string rng ~min_len:24 ~max_len:24);
              |]
          in
          ignore (Idx.IT.insert t.order_line_idx (Sc.order_line_key ~w ~d ~o ~n) oloid)
        done
      done
    done
    end
  done

let row_counts t =
  List.map
    (fun table -> Table.name table, Table.size table)
    [
      t.warehouse;
      t.district;
      t.customer;
      t.history;
      t.new_order;
      t.orders;
      t.order_line;
      t.item;
      t.stock;
    ]
