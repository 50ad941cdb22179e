module Timestamp = Storage.Timestamp
module Engine = Storage.Engine
module Txn = Storage.Txn

type t = {
  ts : Timestamp.t;
  mutable current_ : int;
  boundaries : (int, int64) Hashtbl.t;  (* epoch -> timestamp at its opening *)
  txn_epoch : (int, int) Hashtbl.t;  (* live txn id -> registered epoch *)
  live : (int, int) Hashtbl.t;  (* epoch -> live txn count *)
  mutable pruned_below : int;
  mutable advances_ : int;
  mutable max_lag_ : int;
}

let create ts =
  let boundaries = Hashtbl.create 64 in
  Hashtbl.replace boundaries 0 (Timestamp.current ts);
  {
    ts;
    current_ = 0;
    boundaries;
    txn_epoch = Hashtbl.create 256;
    live = Hashtbl.create 16;
    pruned_below = 0;
    advances_ = 0;
    max_lag_ = 0;
  }

let current t = t.current_
let advances t = t.advances_
let max_lag t = t.max_lag_

let register t ~txn_id =
  let e = t.current_ in
  Hashtbl.replace t.txn_epoch txn_id e;
  Hashtbl.replace t.live e (1 + Option.value ~default:0 (Hashtbl.find_opt t.live e))

let deregister t ~txn_id =
  match Hashtbl.find_opt t.txn_epoch txn_id with
  | None -> ()
  | Some e -> (
    Hashtbl.remove t.txn_epoch txn_id;
    match Hashtbl.find_opt t.live e with
    | Some 1 -> Hashtbl.remove t.live e
    | Some n -> Hashtbl.replace t.live e (n - 1)
    | None -> ())

(* The live table holds at most [lag + 1] entries, so the fold is cheap at
   every call site (the scheduler's epoch tick and each GC chunk). *)
let safe_epoch t = Hashtbl.fold (fun e _ acc -> min e acc) t.live t.current_

let lag t = t.current_ - safe_epoch t

let boundary t e =
  match Hashtbl.find_opt t.boundaries e with
  | Some ts -> ts
  | None -> invalid_arg (Printf.sprintf "Epoch.boundary: epoch %d already pruned" e)

let reclaim_boundary t = boundary t (safe_epoch t)

let advance t =
  t.current_ <- t.current_ + 1;
  Hashtbl.replace t.boundaries t.current_ (Timestamp.current t.ts);
  t.advances_ <- t.advances_ + 1;
  let l = lag t in
  if l > t.max_lag_ then t.max_lag_ <- l;
  (* Boundaries below the safe epoch can never be a reclaim boundary again
     (the safe epoch is monotone: registrations only join the current
     epoch), so drop them. *)
  let safe = t.current_ - l in
  while t.pruned_below < safe do
    Hashtbl.remove t.boundaries t.pruned_below;
    t.pruned_below <- t.pruned_below + 1
  done;
  t.current_

let attach t eng =
  Engine.set_lifecycle eng
    (Some
       {
         Engine.on_begin = (fun txn -> register t ~txn_id:txn.Txn.id);
         on_end = (fun txn -> deregister t ~txn_id:txn.Txn.id);
       })
