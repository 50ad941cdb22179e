(* A registry of one-shot integer-valued gates: the synchronization
   primitive behind preemptible protocol waits (2PC vote collection, the
   participants' decision wait).

   A gate starts unresolved; the first [resolve] wins and latches the
   value forever (later resolves — duplicated deliveries, a timeout racing
   the real decision — are ignored).  Waiters registered with [park] run
   once, at resolve time, in registration order; parking on an
   already-resolved gate fires the waiter immediately.  The registry is
   single-domain like the rest of the DES — no locking. *)

type cell = {
  mutable value : int option;
  mutable waiters : (unit -> unit) list;  (* newest first *)
}

type t = {
  mutable cells : cell array;
  mutable n : int;
}

let dummy = { value = None; waiters = [] }

let create () =
  { cells = Array.make 64 dummy; n = 0 }

let fresh t =
  if t.n >= Array.length t.cells then begin
    let bigger = Array.make (2 * Array.length t.cells) dummy in
    Array.blit t.cells 0 bigger 0 t.n;
    t.cells <- bigger
  end;
  let id = t.n in
  t.cells.(id) <- { value = None; waiters = [] };
  t.n <- t.n + 1;
  id

let cell t id =
  if id < 0 || id >= t.n then invalid_arg "Gate: unknown gate id";
  t.cells.(id)

let ready t id = (cell t id).value <> None

let value t id =
  match (cell t id).value with
  | Some v -> v
  | None -> invalid_arg "Gate.value: gate not resolved"

let resolve t id ~value =
  let c = cell t id in
  match c.value with
  | Some _ -> ()
  | None ->
    c.value <- Some value;
    let ws = List.rev c.waiters in
    c.waiters <- [];
    List.iter (fun f -> f ()) ws

let park t id ~notify =
  let c = cell t id in
  match c.value with
  | Some _ -> notify ()
  | None -> c.waiters <- notify :: c.waiters
