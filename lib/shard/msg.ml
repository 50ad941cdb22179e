type rop =
  | Stock_deduct of { w : int; i : int; qty : int; remote : bool }
  | Customer_pay of { w : int; d : int; c : int; amount : float }

type t =
  | Prepare of { gid : int; origin : int; ops : rop list }
  | Vote of { gid : int; shard : int; yes : bool }
  | Commit of { gid : int; ts : int64 }
  | Abort of { gid : int }

let header_bytes = 32
let control_bytes = 16
let rop_bytes = 24

let bytes = function
  | Prepare p -> header_bytes + (rop_bytes * List.length p.ops)
  | Vote _ | Commit _ | Abort _ -> control_bytes
