type config = {
  regions : int;
  nations : int;
  suppliers : int;
  parts : int;
  ps_per_part : int;
  sizes : int;
  types : int;
}

let default =
  {
    regions = 5;
    nations = 25;
    suppliers = 1000;
    parts = 14_000;
    ps_per_part = 4;
    sizes = 10;
    types = 20;
  }

let small = { default with suppliers = 100; parts = 400 }

let p_bits = 20
let s_bits = 14

let validate cfg =
  let check name v bound =
    if v < 1 || v > bound then
      invalid_arg (Printf.sprintf "Tpch_schema.validate: %s = %d out of [1, %d]" name v bound)
  in
  check "regions" cfg.regions 1000;
  check "nations" cfg.nations 10_000;
  check "suppliers" cfg.suppliers ((1 lsl s_bits) - 1);
  check "parts" cfg.parts ((1 lsl p_bits) - 1);
  check "ps_per_part" cfg.ps_per_part cfg.suppliers;
  check "sizes" cfg.sizes 1000;
  check "types" cfg.types 1000

let partsupp_key ~p ~s = (p lsl s_bits) lor s
let partsupp_bounds ~p = (p lsl s_bits), ((p lsl s_bits) lor ((1 lsl s_bits) - 1))

module R = struct
  let id = 0
  let name = 1
  let width = 2
end

module N = struct
  let id = 0
  let r_id = 1
  let name = 2
  let width = 3
end

module Su = struct
  let id = 0
  let n_id = 1
  let name = 2
  let acctbal = 3
  let width = 5
end

module Pa = struct
  let id = 0
  let mfgr = 1
  let type_ = 2
  let size = 3
  let width = 4
end

module Ps = struct
  let p_id = 0
  let s_id = 1
  let supplycost = 2
  let width = 4
end
