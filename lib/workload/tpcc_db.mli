(** TPC-C database container: the nine tables, their indexes, and the
    initial-population loader. *)

type t = {
  cfg : Tpcc_schema.config;
  eng : Storage.Engine.t;
  warehouse : Storage.Table.t;
  district : Storage.Table.t;
  customer : Storage.Table.t;
  history : Storage.Table.t;
  new_order : Storage.Table.t;
  orders : Storage.Table.t;
  order_line : Storage.Table.t;
  item : Storage.Table.t;
  stock : Storage.Table.t;
  warehouse_idx : Idx.IT.t;
  district_idx : Idx.IT.t;
  customer_idx : Idx.IT.t;
  customer_name_idx : Idx.ST.t;  (** (w, d, c_last, c_first, c_id) → oid *)
  orders_idx : Idx.IT.t;
  orders_by_customer_idx : Idx.IT.t;  (** newest order first (descending o) *)
  new_order_idx : Idx.IT.t;
  order_line_idx : Idx.IT.t;
  item_idx : Idx.IT.t;
  stock_idx : Idx.IT.t;
  new_order_writes : Storage.Txn.writes;  (** declared write sets by class *)
  payment_writes : Storage.Txn.writes;
  delivery_writes : Storage.Txn.writes;
}

val create : Storage.Engine.t -> Tpcc_schema.config -> t
(** Create (empty) tables and indexes.  @raise Invalid_argument when the
    config exceeds key bit budgets. *)

val load : ?owns:(int -> bool) -> t -> Sim.Rng.t -> unit
(** Populate per the spec's initial state (scaled by [cfg]): every row is
    installed as a committed bootstrap version, visible to all snapshots.
    Runs outside the simulation — population is setup, not measured work.
    [owns] filters warehouses for sharded loads (default: all); items are
    always loaded (read-only, replicated to every shard). *)

val row_counts : t -> (string * int) list
(** Table name → row count, for sanity checks and reporting. *)
