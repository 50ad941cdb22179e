type t = { mutable counter : int64 }

let create () = { counter = 0L }
let bootstrap = 0L

let next t =
  t.counter <- Int64.add t.counter 1L;
  t.counter

let current t = t.counter
let advance_to t ts = if Int64.compare ts t.counter > 0 then t.counter <- ts
