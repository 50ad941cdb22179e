(* The standby: persist shipped records on a private log device, apply
   them through the redo Applier, ack progress back to the primary.

   A batch is an LSN range of the primary's log.  Contiguity is the
   invariant: [expected_next] is the only LSN a fresh record may carry.
   A batch starting past it is a gap (lost or reordered delivery) — NAK
   and drop; a batch overlapping below it (duplicate, or NAK re-ship
   overlap) keeps its fresh part [max first expected_next, upto), which
   is read from the primary's log and applied when its device write
   completes (entries below the primary's durable LSN never change).  A heartbeat whose durable LSN is past
   [expected_next] betrays a lost batch that no later flush would re-ship
   — but a heartbeat is smaller than a batch, so under per-byte channel
   latency it routinely overtakes the batch it describes; only the second
   consecutive gap-showing heartbeat with no batch progress in between
   NAKs (an in-flight batch lands within a heartbeat interval, a lost one
   never does).  Records are fed to the applier only once their device
   write completes, so the replica's applied state is exactly its own
   durable prefix; a batch still in flight at promotion is discarded,
   like a torn tail. *)

module Applier = Durability.Recovery.Applier

type t = {
  des : Sim.Des.t;
  clock : Sim.Clock.t;
  obs : Obs.Sink.t option;
  ap : Applier.t;
  device : Durability.Device.t;
  primary_log : Durability.Log.t;
  ack_ch : Msg.to_primary Uintr.Channel.t;
  mutable expected_next : int;
  mutable persisted_ : int;
  mutable applied_ : int;
  mutable promoted_ : bool;
  mutable halted_ : bool;
  mutable batches_ : int;
  mutable dup_records_ : int;
  mutable gaps_ : int;
  mutable hb_gap_streak : int;
  mutable on_alive : (unit -> unit) option;
  lag_lsn_hist : Sim.Histogram.t;
  lag_us_hist : Sim.Histogram.t;
  mutable max_lag_lsn : int;
}

let create ?obs des ~clock ~primary_log ~device ~ack_ch () =
  {
    des;
    clock;
    obs;
    ap = Applier.create ();
    device;
    primary_log;
    ack_ch;
    expected_next = 0;
    persisted_ = 0;
    applied_ = 0;
    promoted_ = false;
    halted_ = false;
    batches_ = 0;
    dup_records_ = 0;
    gaps_ = 0;
    hb_gap_streak = 0;
    on_alive = None;
    lag_lsn_hist = Sim.Histogram.create ();
    lag_us_hist = Sim.Histogram.create ();
    max_lag_lsn = 0;
  }

let emit t ev =
  match t.obs with
  | Some s ->
    Obs.Sink.record s ~time:(Sim.Des.now t.des) ~wid:Obs.Sink.repl_track ~ctx:0 ev
  | None -> ()

(* Seed from the primary's bootstrap image — the stand-in for restoring a
   backup before the standby starts tailing the log.  Runs after the
   primary snapshots its base, before any batch arrives. *)
let start t =
  List.iter (Applier.create_table t.ap) (Durability.Log.catalog t.primary_log);
  ignore (Applier.load_image t.ap (Durability.Log.base t.primary_log))

let set_on_alive t f = t.on_alive <- f

let alive t = match t.on_alive with Some f -> f () | None -> ()

let send_ack t =
  let msg = Msg.Ack { persisted = t.persisted_; applied = t.applied_ } in
  Uintr.Channel.send t.ack_ch ~bytes:(Msg.to_primary_bytes msg) msg

let nak t ~got =
  t.gaps_ <- t.gaps_ + 1;
  emit t (Obs.Event.Repl_gap { expected = t.expected_next; got });
  let msg = Msg.Nak { from = t.expected_next } in
  Uintr.Channel.send t.ack_ch ~bytes:(Msg.to_primary_bytes msg) msg

let handle t (msg : Msg.to_replica) =
  if not (t.halted_ || t.promoted_) then begin
    alive t;
    match msg with
    | Msg.Heartbeat { durable } ->
      if durable > t.expected_next then begin
        t.hb_gap_streak <- t.hb_gap_streak + 1;
        if t.hb_gap_streak >= 2 then begin
          t.hb_gap_streak <- 0;
          nak t ~got:durable
        end
      end
      else begin
        t.hb_gap_streak <- 0;
        send_ack t
      end
    | Msg.Batch { first; upto; bytes; durable; sent_at } ->
      t.batches_ <- t.batches_ + 1;
      t.hb_gap_streak <- 0;
      if first > t.expected_next then nak t ~got:first
      else begin
        (* the fresh part [from, upto); what lies below [expected_next]
           was already received *)
        let from = max first t.expected_next in
        let fresh = max 0 (upto - from) in
        t.dup_records_ <- t.dup_records_ + (upto - first - fresh);
        if fresh = 0 then send_ack t (* pure duplicate; repair a possibly-lost ack *)
        else begin
          t.expected_next <- upto;
          let bytes =
            if from = first then bytes
            else Durability.Log.range_bytes t.primary_log ~first:from ~upto
          in
          let completion =
            Durability.Device.submit t.device ~now:(Sim.Des.now t.des) ~bytes
          in
          Sim.Des.schedule_at t.des ~time:completion (fun des ->
              if not (t.halted_ || t.promoted_) then begin
                Applier.feed t.ap t.primary_log ~first:from ~upto;
                if upto > t.persisted_ then t.persisted_ <- upto;
                if upto > t.applied_ then t.applied_ <- upto;
                let lag_lsn = max 0 (durable - t.applied_) in
                let lag_us =
                  Sim.Clock.us_of_cycles t.clock
                    (Int64.of_int (max 0 (Sim.Des.now_int des - sent_at)))
                in
                Sim.Histogram.record t.lag_lsn_hist (Int64.of_int lag_lsn);
                Sim.Histogram.record t.lag_us_hist
                  (Int64.of_int (int_of_float lag_us));
                if lag_lsn > t.max_lag_lsn then t.max_lag_lsn <- lag_lsn;
                emit t
                  (Obs.Event.Repl_apply
                     { upto; lag_lsn; lag_us = int_of_float lag_us });
                send_ack t
              end)
        end
      end
  end

(* Promotion: the persisted prefix is already applied (feeding happens at
   write completion); what remains is discarding buffered transactions
   whose commit marker never arrived — the shipped image of the primary's
   torn tail — and resuming the timestamp counter so the engine can serve
   new transactions. *)
let promote t =
  t.promoted_ <- true;
  let torn = Applier.discard_pending t.ap in
  Applier.finish t.ap;
  (Applier.engine t.ap, t.applied_, torn)

let halt t = t.halted_ <- true
let engine t = Applier.engine t.ap
let persisted_lsn t = t.persisted_
let applied_lsn t = t.applied_
let promoted t = t.promoted_
let batches t = t.batches_
let gaps t = t.gaps_
let dup_records t = t.dup_records_
let txns_applied t = Applier.applied t.ap
let lag_lsn_hist t = t.lag_lsn_hist
let lag_us_hist t = t.lag_us_hist
let max_lag_lsn t = t.max_lag_lsn
