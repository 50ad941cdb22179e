open Effect
open Effect.Deep
module Cls = Uintr.Cls
module Region = Uintr.Region
module Engine = Storage.Engine
module Txn = Storage.Txn
module Err = Storage.Err

type op =
  | Index_probe
  | Index_insert
  | Index_remove
  | Scan_step
  | Record_read
  | Record_write
  | Record_insert
  | Compute of int
  | Spin of int
  | Txn_begin
  | Commit_latch
  | Commit_validate
  | Commit_install of int
  | Txn_abort
  | Yield_hint
  | Gc_scan
  | Gc_unlink of int
  | Commit_wait of int
      (* publish the commit-marker LSN and wait for durability; the worker
         intercepts this op to park the context or spin (blocking mode) *)
  | Gate_wait of int
      (* wait for a one-shot protocol gate (2PC vote collection / decision
         delivery); served by the worker with the same park/unpark or
         blocking-spin machinery as Commit_wait *)

let is_record_access = function
  | Record_read | Record_write | Record_insert | Scan_step -> true
  | Index_probe | Index_insert | Index_remove | Compute _ | Spin _ | Txn_begin
  | Commit_latch | Commit_validate | Commit_install _ | Txn_abort | Yield_hint
  | Gc_scan | Gc_unlink _ | Commit_wait _ | Gate_wait _ ->
    false

type env = {
  eng : Engine.t;
  worker : int;
  ctx : int;
  cls : Cls.area;
  rng : Sim.Rng.t;
}

type outcome = Committed of int64 | Aborted of Err.abort_reason

type t = env -> outcome

type _ Effect.t += Charge : op -> unit Effect.t

type step = Pending of op * resumption | Finished of outcome

and resumption = (unit, step) continuation

exception Abandoned

(* The [Charge] arm of the handler runs once per micro-op, so it must not
   build a fresh closure (and [Some] box) per perform.  The op travels
   through a cell instead: the arm stows it and returns one preallocated
   continuation-consumer.  Safe because the DES is single-domain and the
   cell is dead as soon as [match_with] wraps the effect — nothing can
   perform another [Charge] in between. *)
let charged_op = ref Txn_begin

let make_pending (k : (unit, step) continuation) = Pending (!charged_op, k)
let some_make_pending = Some make_pending

let handler =
  {
    retc = (fun o -> Finished o);
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Charge op ->
          charged_op := op;
          (some_make_pending : ((a, step) continuation -> step) option)
        | _ -> None);
  }

let start prog env = match_with (fun () -> prog env) () handler

let resume (k : resumption) = continue k ()

let discard (k : resumption) =
  match discontinue k Abandoned with
  | _ -> ()
  | exception Abandoned -> ()

let charge op =
  try perform (Charge op)
  with Effect.Unhandled _ ->
    failwith "Program.charge: called outside Program.start/resume"

let compute cycles = charge (Compute cycles)
let yield_hint () = charge Yield_hint

exception Txn_failed of Err.abort_reason

let read env txn table ~oid =
  charge Record_read;
  Engine.read env.eng txn table ~oid

let update env txn table ~oid row =
  charge Record_write;
  match Engine.update env.eng txn table ~oid row with
  | Ok () -> ()
  | Error r -> raise (Txn_failed r)

let delete env txn table ~oid =
  charge Record_write;
  match Engine.delete env.eng txn table ~oid with
  | Ok () -> ()
  | Error r -> raise (Txn_failed r)

let insert env txn table row =
  charge Record_insert;
  Engine.insert env.eng txn table row

let begin_txn ?iso env =
  charge Txn_begin;
  Engine.begin_txn ?iso env.eng ~worker:env.worker ~ctx:env.ctx

let non_preemptible env f =
  Cls.update env.cls Region.lock_counter (fun d -> d + 1);
  Fun.protect
    ~finally:(fun () -> Cls.update env.cls Region.lock_counter (fun d -> d - 1))
    f

let commit env txn =
  non_preemptible env (fun () ->
      Engine.commit_begin env.eng txn;
      let rec latch_loop () =
        charge Commit_latch;
        match Engine.commit_latch_next env.eng txn with
        | `Acquired -> latch_loop ()
        | `Done -> ()
        | `Busy owner -> (
          match Engine.active_txn env.eng owner with
          | Some o when o.Txn.worker = env.worker ->
            (* The holder is a paused context of this same hardware thread:
               it cannot run while we spin, so this wait-for edge is a
               deadlock (§4.4).  Only reachable when non-preemptible
               regions are disabled. *)
            Engine.abort ~reason:Err.Latch_deadlock env.eng txn;
            raise (Txn_failed Err.Latch_deadlock)
          | Some _ | None ->
            (* Cross-thread contention: spin; the holder makes progress in
               virtual time. *)
            charge (Spin 200);
            latch_loop ())
      in
      latch_loop ();
      charge Commit_validate;
      match Engine.commit_validate env.eng txn with
      | Error r ->
        Engine.abort ~reason:r env.eng txn;
        raise (Txn_failed r)
      | Ok () ->
        let n = List.length txn.Txn.writes in
        charge (Commit_install n);
        Engine.commit_install env.eng txn)

let abort env txn =
  charge Txn_abort;
  Engine.abort ~reason:Err.User_abort env.eng txn

let run_txn ?iso env body =
  let txn = begin_txn ?iso env in
  match body txn with
  | () -> (
    try
      let ts = commit env txn in
      (* Durability armed: the commit is not acknowledged until its marker
         LSN is flushed.  Charged OUTSIDE the non-preemptible commit
         region — the context may park here and must be preemptible. *)
      (match txn.Txn.commit_lsn with
      | Some lsn -> charge (Commit_wait lsn)
      | None -> ());
      Committed ts
    with Txn_failed r -> Aborted r)
  | exception Txn_failed r ->
    (match txn.Txn.state with
    | Txn.Active | Txn.Preparing ->
      charge Txn_abort;
      Engine.abort ~reason:r env.eng txn
    | Txn.Committed | Txn.Aborted -> ());
    Aborted r
