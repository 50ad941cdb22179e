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

let[@inline] is_record_access = function
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

(* Inline stepping.  While a program runs under an executor, each charge
   first offers its op to the executor's stepper, which either takes the
   whole step on the spot (the program continues without suspending) or
   declines (the charge performs the effect).  [commutes] travels beside
   the op: the executor reads it for a suspended op through
   [pending_commutes].  While the program's code runs it is the running
   step's flag: [start] clears it (a program begins in its executor's
   step, which does not commute) and [resume] restores the one the
   executor kept, since other programs' charges overwrite the cell while
   this one is suspended. *)
let no_stepper (_ : op) = false
let stepper = ref no_stepper
let commutes = ref false

(* Each run installs its stepper and restores the outer one on the way
   out, so a program started inside another's step cannot reach the outer
   executor.  Written out twice rather than through a closure: [resume]
   runs once per suspension. *)
let start ?stepper:(f = no_stepper) prog env =
  let outer = !stepper in
  stepper := f;
  commutes := false;
  match match_with prog env handler with
  | step ->
    stepper := outer;
    step
  | exception e ->
    stepper := outer;
    raise e

let resume ?stepper:(f = no_stepper) ?commutes:(c = false) (k : resumption) =
  let outer = !stepper in
  stepper := f;
  commutes := c;
  match continue k () with
  | step ->
    stepper := outer;
    step
  | exception e ->
    stepper := outer;
    raise e

let pending_commutes () = !commutes

let[@inline never] commuting what =
  failwith (Printf.sprintf "%s ran in a step that commutes" what)

let check_ordered what = if !commutes then commuting what

let discard (k : resumption) =
  match discontinue k Abandoned with
  | _ -> ()
  | exception Abandoned -> ()

let charge_as ~commutes:c op =
  commutes := c;
  if not (!stepper op) then
    try perform (Charge op)
    with Effect.Unhandled _ ->
      failwith "Program.charge: called outside Program.start/resume"

let charge op = charge_as ~commutes:false op
let compute cycles = charge_as ~commutes:true (Compute cycles)
let yield_hint () = charge_as ~commutes:true Yield_hint

exception Txn_failed of Err.abort_reason

(* A snapshot read commutes with every other transaction's steps: later
   commits are invisible to it and in-flight versions are skipped. *)
let read env txn table ~oid =
  charge_as ~commutes:(txn.Txn.iso <> Txn.Read_committed) Record_read;
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

let read_only = Txn.declare ()

let begin_txn ?iso ~writes env =
  charge Txn_begin;
  Engine.begin_txn ?iso ~writes env.eng ~worker:env.worker ~ctx:env.ctx

let non_preemptible env f = Region.within env.cls f

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

let run_txn ?iso ~writes env body =
  let txn = begin_txn ?iso ~writes env in
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
