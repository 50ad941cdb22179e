type waiter = { w_lsn : int; w_notify : unit -> unit }

type t = {
  des : Sim.Des.t;
  log : Log.t;
  device : Device.t;
  group_bytes : int;
  group_interval : int64;  (* cycles between forced sweeps *)
  mutable inflight : (int * int * int) option;  (* upto LSN, bytes, markers *)
  mutable waiters : waiter list;
  mutable crashed_ : bool;
  mutable early_ack : bool;
  mutable flushes_ : int;
  mutable acked_ : int list;  (* newest first *)
  mutable ack_violations_ : int;
  mutable lost_at_crash_ : int;
  flush_bytes_hist : Sim.Histogram.t;
  group_txns_hist : Sim.Histogram.t;
  mutable emit : (Obs.Event.t -> unit) option;
  (* Semi-sync replication: when an ack gate is installed, local
     durability is necessary but no longer sufficient to ack — the gate
     (replica-ack progress) must pass too.  [on_flush] lets the log
     shipper stream each newly-durable suffix as it lands. *)
  mutable ack_gate : (lsn:int -> bool) option;
  mutable on_flush : (unit -> unit) option;
}

let create ~des ~log ~device ~group_bytes ~group_interval () =
  if group_bytes < 1 then invalid_arg "Daemon.create: group_bytes < 1";
  if Int64.compare group_interval 1L < 0 then
    invalid_arg "Daemon.create: group_interval < 1";
  (* a commit's step kicks [maybe_flush], whose completion event lands no
     sooner than the device's fsync floor *)
  Sim.Des.add_path des ~least_latency:(Device.fsync_floor device);
  {
    des;
    log;
    device;
    group_bytes;
    group_interval;
    inflight = None;
    waiters = [];
    crashed_ = false;
    early_ack = false;
    flushes_ = 0;
    acked_ = [];
    ack_violations_ = 0;
    lost_at_crash_ = 0;
    flush_bytes_hist = Sim.Histogram.create ();
    group_txns_hist = Sim.Histogram.create ();
    emit = None;
    ack_gate = None;
    on_flush = None;
  }

let set_emit t f = t.emit <- f
let set_early_ack t v = t.early_ack <- v
let set_ack_gate t f = t.ack_gate <- f
let set_on_flush t f = t.on_flush <- f

let crashed t = t.crashed_
let flushes t = t.flushes_
let durable_lsn t = Log.durable_lsn t.log
let log t = t.log
let device t = t.device
let waiting t = List.length t.waiters
let acked t = List.rev t.acked_
let acked_count t = List.length t.acked_
let ack_violations t = t.ack_violations_
let lost_at_crash t = t.lost_at_crash_
let flush_bytes_hist t = t.flush_bytes_hist
let group_txns_hist t = t.group_txns_hist

(* Recording an ack is where the durability contract gets checked: an ack
   for an LSN that is not yet durable is a protocol violation (reachable
   only through the early-ack fault, which exists so the crash oracle can
   prove it would catch a buggy daemon). *)
let record_ack t ~parked ~lsn =
  t.acked_ <- lsn :: t.acked_;
  if lsn >= Log.durable_lsn t.log then
    t.ack_violations_ <- t.ack_violations_ + 1;
  match t.emit with
  | Some f -> f (Obs.Event.Commit_ack { lsn; parked })
  | None -> ()

let gate_passes t ~lsn =
  match t.ack_gate with None -> true | Some g -> g ~lsn

let try_ack t ~lsn =
  if t.crashed_ then false
  else if (lsn < Log.durable_lsn t.log && gate_passes t ~lsn) || t.early_ack
  then begin
    record_ack t ~parked:false ~lsn;
    true
  end
  else false

let park t ~lsn ~notify =
  t.waiters <- { w_lsn = lsn; w_notify = notify } :: t.waiters

let notify_durable t =
  let durable = Log.durable_lsn t.log in
  let ready, still =
    List.partition
      (fun w -> w.w_lsn < durable && gate_passes t ~lsn:w.w_lsn)
      t.waiters
  in
  t.waiters <- still;
  (* Oldest first, so unparks happen in commit order. *)
  List.iter
    (fun w ->
      record_ack t ~parked:true ~lsn:w.w_lsn;
      w.w_notify ())
    (List.sort (fun a b -> compare a.w_lsn b.w_lsn) ready)

let rec maybe_flush t ~force =
  if (not t.crashed_) && t.inflight = None && Log.pending_bytes t.log > 0
     && (force || Log.pending_bytes t.log >= t.group_bytes)
  then begin
    let _first, upto, bytes, markers = Log.drain_all t.log in
    t.inflight <- Some (upto, bytes, markers);
    (match t.emit with
    | Some f -> f (Obs.Event.Flush_submit { upto; bytes })
    | None -> ());
    let completion = Device.submit t.device ~now:(Sim.Des.now t.des) ~bytes in
    Sim.Des.schedule_at t.des ~time:completion (fun _ -> complete t)
  end

and complete t =
  if not t.crashed_ then
    match t.inflight with
    | None -> ()
    | Some (upto, bytes, markers) ->
      t.inflight <- None;
      Log.set_durable t.log upto;
      t.flushes_ <- t.flushes_ + 1;
      Sim.Histogram.record t.flush_bytes_hist (Int64.of_int bytes);
      Sim.Histogram.record t.group_txns_hist (Int64.of_int markers);
      (match t.emit with
      | Some f -> f (Obs.Event.Log_flush { lsn = upto; bytes; txns = markers })
      | None -> ());
      (match t.on_flush with Some f -> f () | None -> ());
      notify_durable t;
      (* A batch already past the threshold need not wait for the sweep. *)
      maybe_flush t ~force:false

let kick t = maybe_flush t ~force:false

(* Re-examine parked waiters against the current durable LSN *and* the
   ack gate — the shipper calls this when replica-ack progress advances
   (or when the gate is cleared on semi-sync → async degrade). *)
let notify_external t = if not t.crashed_ then notify_durable t

let start t =
  Log.set_kick t.log (Some (fun () -> kick t));
  let rec sweep _ =
    if not t.crashed_ then begin
      maybe_flush t ~force:true;
      Sim.Des.schedule_after t.des ~delay:t.group_interval sweep
    end
  in
  Sim.Des.schedule_after t.des ~delay:t.group_interval sweep

(* Crash: the in-flight flush tears — a random prefix of it made it to the
   device — and everything still in the buffers is gone.  [durable] only
   ever advances, so acked-implies-durable is unaffected. *)
let crash t ~rng =
  if not t.crashed_ then begin
    t.crashed_ <- true;
    Log.set_kick t.log None;
    let durable = Log.durable_lsn t.log in
    (match t.inflight with
    | Some (upto, _, _) when upto > durable ->
      Log.set_durable t.log (Sim.Rng.int_in rng durable upto)
    | _ -> ());
    t.inflight <- None;
    t.waiters <- [];
    let lost = Log.next_lsn t.log - Log.durable_lsn t.log in
    t.lost_at_crash_ <- lost;
    match t.emit with
    | Some f ->
      f (Obs.Event.Crash { durable_lsn = Log.durable_lsn t.log; lost })
    | None -> ()
  end
