type 'a t = {
  cap : int;
  buf : 'a option array;
  mutable head : int;  (* next pop *)
  mutable len : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Bounded_queue.create: capacity must be >= 1";
  { cap = capacity; buf = Array.make capacity None; head = 0; len = 0 }

let capacity t = t.cap
let length t = t.len
let is_empty t = t.len = 0
let is_full t = t.len = t.cap
let free_slots t = t.cap - t.len

let push t x =
  if is_full t then false
  else begin
    t.buf.((t.head + t.len) mod t.cap) <- Some x;
    t.len <- t.len + 1;
    true
  end

let pop t =
  if t.len = 0 then None
  else begin
    let x = t.buf.(t.head) in
    t.buf.(t.head) <- None;
    t.head <- (t.head + 1) mod t.cap;
    t.len <- t.len - 1;
    x
  end

let clear t =
  Array.fill t.buf 0 t.cap None;
  t.head <- 0;
  t.len <- 0
