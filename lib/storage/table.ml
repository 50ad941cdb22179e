type t = {
  tid : int;
  name_ : string;
  mutable tuples : Tuple.t array;
  mutable n : int;
}

(* Fills the capacity slack past [n]; [get] and [iter] never reach it. *)
let slack = Tuple.create ~oid:(-1)

let create ~id ~name = { tid = id; name_ = name; tuples = Array.make 64 slack; n = 0 }

let id t = t.tid
let name t = t.name_

let alloc t =
  if t.n = Array.length t.tuples then begin
    let bigger = Array.make (2 * t.n) slack in
    Array.blit t.tuples 0 bigger 0 t.n;
    t.tuples <- bigger
  end;
  let tuple = Tuple.create ~oid:t.n in
  t.tuples.(t.n) <- tuple;
  t.n <- t.n + 1;
  tuple

let[@inline never] no_oid t oid =
  invalid_arg (Printf.sprintf "Table.get: %s has no oid %d" t.name_ oid)

let get t oid =
  if oid < 0 || oid >= t.n then no_oid t oid;
  Array.unsafe_get t.tuples oid

let size t = t.n

let iter t f =
  for i = 0 to t.n - 1 do
    f (Array.unsafe_get t.tuples i)
  done
