(* Replica-side failure detector: a deadline on primary traffic plus a
   consecutive-miss budget (hysteresis).

   Any delivery from the primary — batch or heartbeat — feeds
   [note_alive].  The check loop fires every [check_interval]; silence
   longer than [timeout] counts one miss, and only [miss_budget]
   consecutive misses declare the primary dead.  A fault-plan delivery
   storm or straggler stretches gaps between heartbeats but keeps
   resetting the miss counter whenever anything lands, so transient chaos
   does not promote a replica against a live primary; a real crash severs
   the channel, nothing ever lands again, and the misses accumulate. *)

type t = {
  des : Sim.Des.t;
  obs : Obs.Sink.t option;
  timeout : int64;
  check_interval : int64;
  miss_budget : int;
  mutable last_alive : int64;
  mutable misses_ : int;
  mutable total_misses_ : int;
  mutable suspected_ : bool;
  mutable suspected_at_ : int64 option;
  mutable halted_ : bool;
  mutable on_suspect : (unit -> unit) option;
}

let create ?obs des ~clock ~timeout_us ~check_interval_us ~miss_budget () =
  if timeout_us <= 0. then invalid_arg "Failure_detector.create: timeout_us <= 0";
  if check_interval_us <= 0. then
    invalid_arg "Failure_detector.create: check_interval_us <= 0";
  if miss_budget < 1 then invalid_arg "Failure_detector.create: miss_budget < 1";
  {
    des;
    obs;
    timeout = Sim.Clock.cycles_of_us clock timeout_us;
    check_interval = Sim.Clock.cycles_of_us clock check_interval_us;
    miss_budget;
    last_alive = 0L;
    misses_ = 0;
    total_misses_ = 0;
    suspected_ = false;
    suspected_at_ = None;
    halted_ = false;
    on_suspect = None;
  }

let emit t ev =
  match t.obs with
  | Some s ->
    Obs.Sink.record s ~time:(Sim.Des.now t.des) ~wid:Obs.Sink.repl_track ~ctx:0 ev
  | None -> ()

let set_on_suspect t f = t.on_suspect <- f

let note_alive t =
  t.last_alive <- Sim.Des.now t.des;
  if not t.suspected_ then t.misses_ <- 0

let check t =
  if not (t.halted_ || t.suspected_) then
    if Int64.compare (Int64.sub (Sim.Des.now t.des) t.last_alive) t.timeout > 0
    then begin
      t.misses_ <- t.misses_ + 1;
      t.total_misses_ <- t.total_misses_ + 1;
      emit t (Obs.Event.Hb_miss { misses = t.misses_ });
      if t.misses_ >= t.miss_budget then begin
        t.suspected_ <- true;
        t.suspected_at_ <- Some (Sim.Des.now t.des);
        emit t (Obs.Event.Failover_detected { misses = t.misses_ });
        match t.on_suspect with Some f -> f () | None -> ()
      end
    end
    else t.misses_ <- 0

let start t =
  t.last_alive <- Sim.Des.now t.des;
  let rec loop _ =
    if not (t.halted_ || t.suspected_) then begin
      check t;
      if not t.suspected_ then
        Sim.Des.schedule_after t.des ~delay:t.check_interval loop
    end
  in
  Sim.Des.schedule_after t.des ~delay:t.check_interval loop

let halt t = t.halted_ <- true
let suspected t = t.suspected_
let suspected_at t = t.suspected_at_
let total_misses t = t.total_misses_
