(** TPC-C schema: field layouts, composite-key encoders, scale config.

    Rows are positional {!Storage.Value} arrays; the [*_F] constants name
    field offsets.  Composite keys pack into an [int] with fixed bit
    budgets: warehouse 12 bits, district 4, customer 17, order 24,
    order-line number 4, item 17 — 61 bits worst case. *)

(** {1 Scale configuration} *)

type config = {
  warehouses : int;
  districts : int;  (** per warehouse (spec: 10) *)
  customers : int;  (** per district (spec: 3000) *)
  items : int;  (** spec: 100_000 *)
  init_orders : int;  (** initial orders per district (spec: 3000) *)
  remote_pct : int;  (** % of NewOrder lines from a remote warehouse (spec: 1; the paper's setup: 15) *)
}

val small : warehouses:int -> config
(** Scaled-down preset for tests and simulation benches:
    10 districts, 300 customers, 2000 items, 30 initial orders. *)

val validate : config -> unit
(** @raise Invalid_argument when a dimension exceeds its key bit budget. *)

(** {1 Key encoders} *)

val district_key : w:int -> d:int -> int
val customer_key : w:int -> d:int -> c:int -> int
val customer_name_key : w:int -> d:int -> last:string -> first:string -> c:int -> string
val customer_name_prefix : w:int -> d:int -> last:string -> string * string
(** [(lo, hi)] bounds covering every name-index key with this last name. *)

val order_key : w:int -> d:int -> o:int -> int
val order_by_customer_key : w:int -> d:int -> c:int -> o:int -> int
(** Orders of one customer, encoded so that the {e newest} order has the
    {e smallest} key (descending [o]) — a cursor's first hit is the latest
    order. *)

val order_by_customer_bounds : w:int -> d:int -> c:int -> int * int
val new_order_key : w:int -> d:int -> o:int -> int
val new_order_bounds : w:int -> d:int -> int * int
(** Bounds covering a district's undelivered orders; first hit = oldest. *)

val order_line_key : w:int -> d:int -> o:int -> n:int -> int
val order_line_bounds : w:int -> d:int -> o:int -> int * int
val stock_key : w:int -> i:int -> int

val max_order : int
(** Largest encodable order id. *)

(** {1 Field offsets} *)

module W : sig
  val id : int
  val name : int
  val tax : int
  val ytd : int
  val width : int
end

module D : sig
  val w_id : int
  val id : int
  val name : int
  val tax : int
  val ytd : int
  val next_o_id : int
  val width : int
end

module C : sig
  val w_id : int
  val d_id : int
  val id : int
  val first : int
  val last : int
  val credit : int
  val discount : int
  val balance : int
  val ytd_payment : int
  val payment_cnt : int
  val delivery_cnt : int
  val data : int
  val width : int
end

module H : sig
  val c_id : int
  val amount : int
  val width : int
end

module NO : sig
  val w_id : int
  val d_id : int
  val o_id : int
  val width : int
end

module O : sig
  val w_id : int
  val d_id : int
  val id : int
  val c_id : int
  (* -1 when not yet delivered *)
  val carrier_id : int
  val ol_cnt : int
  val all_local : int
  val width : int
end

module OL : sig
  val w_id : int
  val d_id : int
  val o_id : int
  val number : int
  val i_id : int
  val quantity : int
  val amount : int
  (* -1 when not yet delivered *)
  val delivery_d : int
  val width : int
end

module I : sig
  val id : int
  val name : int
  val price : int
  val data : int
  val width : int
end

module S : sig
  val w_id : int
  val i_id : int
  val quantity : int
  val ytd : int
  val order_cnt : int
  val remote_cnt : int
  val data : int
  val width : int
end
