type config = {
  warehouses : int;
  districts : int;
  customers : int;
  items : int;
  init_orders : int;
  remote_pct : int;
}

let small ~warehouses =
  { warehouses; districts = 10; customers = 300; items = 2000; init_orders = 30; remote_pct = 15 }

(* Bit budgets *)
let w_bits = 12
let d_bits = 4
let c_bits = 17
let o_bits = 24
let n_bits = 4
let i_bits = 17

let max_order = (1 lsl o_bits) - 1

let validate cfg =
  let check name v bits =
    if v < 1 || v >= 1 lsl bits then
      invalid_arg
        (Printf.sprintf "Tpcc_schema.validate: %s = %d is outside [1, 2^%d)" name v bits)
  in
  check "warehouses" cfg.warehouses w_bits;
  check "districts" cfg.districts d_bits;
  check "customers" cfg.customers c_bits;
  check "items" cfg.items i_bits;
  check "init_orders" cfg.init_orders o_bits;
  if cfg.remote_pct < 0 || cfg.remote_pct > 100 then
    invalid_arg "Tpcc_schema.validate: remote_pct out of [0, 100]"

let district_key ~w ~d = (w lsl d_bits) lor d
let customer_key ~w ~d ~c = (district_key ~w ~d lsl c_bits) lor c

let customer_name_key ~w ~d ~last ~first ~c =
  Printf.sprintf "%04x%01x|%s|%s|%06d" w d last first c

let customer_name_prefix ~w ~d ~last =
  let base = Printf.sprintf "%04x%01x|%s|" w d last in
  base, base ^ "\xff"

let order_key ~w ~d ~o = (district_key ~w ~d lsl o_bits) lor o

let order_by_customer_key ~w ~d ~c ~o = (customer_key ~w ~d ~c lsl o_bits) lor (max_order - o)

let order_by_customer_bounds ~w ~d ~c =
  let base = customer_key ~w ~d ~c lsl o_bits in
  base, base lor max_order

let new_order_key = order_key

let new_order_bounds ~w ~d =
  let base = district_key ~w ~d lsl o_bits in
  base, base lor max_order

let order_line_key ~w ~d ~o ~n = (order_key ~w ~d ~o lsl n_bits) lor n

let order_line_bounds ~w ~d ~o =
  let base = order_key ~w ~d ~o lsl n_bits in
  base, base lor ((1 lsl n_bits) - 1)

let stock_key ~w ~i = (w lsl i_bits) lor i

module W = struct
  let id = 0
  let name = 1
  let tax = 2
  let ytd = 3
  let width = 4
end

module D = struct
  let w_id = 0
  let id = 1
  let name = 2
  let tax = 3
  let ytd = 4
  let next_o_id = 5
  let width = 6
end

module C = struct
  let w_id = 0
  let d_id = 1
  let id = 2
  let first = 3
  let last = 4
  let credit = 5
  let discount = 6
  let balance = 7
  let ytd_payment = 8
  let payment_cnt = 9
  let delivery_cnt = 10
  let data = 11
  let width = 12
end

module H = struct
  let c_id = 2
  let amount = 3
  let width = 5
end

module NO = struct
  let w_id = 0
  let d_id = 1
  let o_id = 2
  let width = 3
end

module O = struct
  let w_id = 0
  let d_id = 1
  let id = 2
  let c_id = 3
  let carrier_id = 4
  let ol_cnt = 5
  let all_local = 6
  let width = 8
end

module OL = struct
  let w_id = 0
  let d_id = 1
  let o_id = 2
  let number = 3
  let i_id = 4
  let quantity = 6
  let amount = 7
  let delivery_d = 8
  let width = 10
end

module I = struct
  let id = 0
  let name = 2
  let price = 3
  let data = 4
  let width = 5
end

module S = struct
  let w_id = 0
  let i_id = 1
  let quantity = 2
  let ytd = 3
  let order_cnt = 4
  let remote_cnt = 5
  let data = 6
  let width = 7
end
