(* Primary-side log shipper.

   Rides the group-commit daemon's flush-completion hook: each time the
   durable LSN advances, the suffix [shipped_upto, durable) goes out as
   one batch — the range and its modeled bytes, not the records.  Shipping is at-least-once over a lossy channel — the
   replica detects LSN gaps (against batch [first] or the durable LSN a
   heartbeat carries) and NAKs, which rewinds [shipped_upto] and re-ships
   from the log; duplicated deliveries are absorbed by the replica's
   idempotent apply.

   In semi-sync mode the shipper owns the daemon's ack gate: a commit may
   be acknowledged only when the replica has persisted past its marker.
   A silent replica (crash, partition) would wedge every commit, so the
   heartbeat loop doubles as a degrade watchdog: no ack progress for
   [degrade_timeout] while shipped data is outstanding clears the gate
   and releases the waiters (semi-sync -> async, counted and emitted). *)

type mode = Async | Semi_sync

type t = {
  des : Sim.Des.t;
  obs : Obs.Sink.t option;
  log : Durability.Log.t;
  daemon : Durability.Daemon.t;
  ship_ch : Msg.to_replica Uintr.Channel.t;
  mode : mode;
  hb_interval : int64;
  degrade_timeout : int64;
  mutable shipped_upto : int;
  mutable replica_persisted_ : int;
  mutable last_progress : int64;
  mutable degraded_ : bool;
  mutable halted_ : bool;
  mutable batches_ : int;
  mutable records_ : int;
  mutable resent_records_ : int;
  mutable naks_ : int;
  mutable acks_ : int;
  mutable heartbeats_ : int;
}

let create ?obs des ~clock ~log ~daemon ~ship_ch ~mode ~hb_interval_us
    ~degrade_timeout_us () =
  if hb_interval_us <= 0. then invalid_arg "Shipper.create: hb_interval_us <= 0";
  if degrade_timeout_us <= 0. then
    invalid_arg "Shipper.create: degrade_timeout_us <= 0";
  {
    des;
    obs;
    log;
    daemon;
    ship_ch;
    mode;
    hb_interval = Sim.Clock.cycles_of_us clock hb_interval_us;
    degrade_timeout = Sim.Clock.cycles_of_us clock degrade_timeout_us;
    shipped_upto = 0;
    replica_persisted_ = 0;
    last_progress = 0L;
    degraded_ = false;
    halted_ = false;
    batches_ = 0;
    records_ = 0;
    resent_records_ = 0;
    naks_ = 0;
    acks_ = 0;
    heartbeats_ = 0;
  }

let emit t ev =
  match t.obs with
  | Some s ->
    Obs.Sink.record s ~time:(Sim.Des.now t.des) ~wid:Obs.Sink.repl_track ~ctx:0 ev
  | None -> ()

let ship t =
  if not t.halted_ then begin
    let durable = Durability.Log.durable_lsn t.log in
    if t.shipped_upto < durable then begin
      let first = t.shipped_upto in
      let msg =
        Msg.Batch
          {
            first;
            upto = durable;
            bytes = Durability.Log.range_bytes t.log ~first ~upto:durable;
            durable;
            sent_at = Sim.Des.now_int t.des;
          }
      in
      let bytes = Msg.to_replica_bytes msg in
      Uintr.Channel.send t.ship_ch ~bytes msg;
      t.shipped_upto <- durable;
      t.batches_ <- t.batches_ + 1;
      t.records_ <- t.records_ + (durable - first);
      emit t (Obs.Event.Repl_ship { first; upto = durable; bytes })
    end
  end

let degrade t =
  if not t.degraded_ then begin
    t.degraded_ <- true;
    emit t (Obs.Event.Repl_degrade { persisted = t.replica_persisted_ });
    (* the gate closure reads [degraded_], so waiters now pass *)
    Durability.Daemon.notify_external t.daemon
  end

let handle t (msg : Msg.to_primary) =
  if not t.halted_ then
    match msg with
    | Msg.Ack { persisted; applied } ->
      t.acks_ <- t.acks_ + 1;
      t.last_progress <- Sim.Des.now t.des;
      if persisted > t.replica_persisted_ then begin
        t.replica_persisted_ <- persisted;
        emit t (Obs.Event.Repl_ack { persisted; applied });
        if t.mode = Semi_sync && not t.degraded_ then
          Durability.Daemon.notify_external t.daemon
      end
    | Msg.Nak { from } ->
      t.naks_ <- t.naks_ + 1;
      if from < t.shipped_upto then begin
        t.resent_records_ <- t.resent_records_ + (t.shipped_upto - from);
        t.shipped_upto <- from
      end;
      ship t

let start t =
  Durability.Daemon.set_on_flush t.daemon (Some (fun () -> ship t));
  (match t.mode with
  | Semi_sync ->
    Durability.Daemon.set_ack_gate t.daemon
      (Some (fun ~lsn -> t.degraded_ || lsn < t.replica_persisted_))
  | Async -> ());
  t.last_progress <- Sim.Des.now t.des;
  let rec loop _ =
    if not t.halted_ then begin
      t.heartbeats_ <- t.heartbeats_ + 1;
      let hb = Msg.Heartbeat { durable = Durability.Log.durable_lsn t.log } in
      Uintr.Channel.send t.ship_ch ~bytes:(Msg.to_replica_bytes hb) hb;
      (* catch anything the flush hook missed (durable before start, or a
         batch lost with no later flush to trigger re-ship) *)
      ship t;
      if t.mode = Semi_sync && not t.degraded_
         && t.replica_persisted_ < t.shipped_upto
         && Int64.compare
              (Int64.sub (Sim.Des.now t.des) t.last_progress)
              t.degrade_timeout
            > 0
      then degrade t;
      Sim.Des.schedule_after t.des ~delay:t.hb_interval loop
    end
  in
  Sim.Des.schedule_after t.des ~delay:t.hb_interval loop

let halt t =
  t.halted_ <- true;
  Durability.Daemon.set_on_flush t.daemon None

let mode t = t.mode
let shipped_upto t = t.shipped_upto
let degraded t = t.degraded_
let batches t = t.batches_
let records_shipped t = t.records_
let resent_records t = t.resent_records_
let naks t = t.naks_
let acks t = t.acks_
let heartbeats t = t.heartbeats_
