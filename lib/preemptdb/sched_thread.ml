(* A background maintenance lane: a chunk-request generator, its cadence
   in cycles and the chunks placed per firing. *)
type lane = {
  gen : submitted_at:int64 -> Request.t;
  interval : int64;
  per_tick : int;
}

(* One dispatch stream per priority level >= 1: generator, batch size and
   undispatched backlog. *)
type stream = {
  level : int;
  gen : submitted_at:int64 -> Request.t;
  batch : int;
  backlog : Request.t Queue.t;
  interval : int64 option;  (* None: generated on the main arrival tick *)
}

(* Watchdog: a dispatch's senduipi must reach the receiver's UPID within
   the deadline, else it is re-sent, the deadline doubling per resend up
   to the cap. *)
let wd_deadline_us = 5.0
let wd_max_resends = 3
let wd_backoff_cap_us = 50.0

(* Degradation scores, -1 per on-time delivery: at least three
   consecutive misses to fall back to cooperative mode, six clean
   deliveries to recover. *)
let dg_enter_score = 6
let dg_exit_score = 0
let dg_fail_weight = 2
let dg_coop_interval = 1000

(* Per-worker delivery-watchdog / graceful-degradation state.  The health
   signal is delivery-level ([Receiver.posted_count] advancing), not
   recognition-level: a worker degraded to cooperative mode never
   recognizes, yet its deliveries still prove the fabric healed. *)
type wd_state = {
  mutable episode : bool;  (* a deadline check is outstanding *)
  mutable resends : int;  (* within the current episode *)
  mutable score : int;  (* failure score with hysteresis band *)
  mutable degraded : bool;
}

type t = {
  des : Sim.Des.t;
  cfg : Config.t;
  fabric : Uintr.Fabric.t;
  metrics : Metrics.t;
  workers : Worker.t array;
  obs : Obs.Sink.t option;
  lp_gen : (worker:int -> submitted_at:int64 -> Request.t) option;
  epoch : (Maint.Epoch.t * int64) option;  (* advanced every interval *)
  lanes : lane list;  (* first scheduled in list order, after the epoch *)
  streams : stream list;  (* highest level first *)
  arrival_interval : int64;
  lp_interval : int64;
  retry_interval : int64;
  empty_interrupt_ticks : int;
  wd : wd_state array;  (* empty when the watchdog is disabled *)
  wd_deadline : int64;  (* cycles *)
  wd_cap : int64;  (* resend-deadline backoff cap, cycles *)
  shed_deadline : int64 option;  (* cycles *)
  mutable rr : int;  (* round-robin cursor *)
  mutable ticks : int;
  mutable gen_hp : int;
  mutable gen_lp : int;
  mutable gen_gc : int;
  mutable skipped : int;
  mutable shed_ : int;
  mutable wd_resends_ : int;
  mutable wd_giveups_ : int;
  mutable degrade_enters_ : int;
  mutable degrade_exits_ : int;
  mutable retry_pending : bool;
  mutable halted : bool;  (* fail-stop under failover: all loops unwind *)
}

let create ~des ~cfg ~fabric ~metrics ~workers ?obs ?lp_gen ?epoch ?(lanes = []) ?hp_gen
    ?hp_batch ?urgent_gen ?urgent_batch ?urgent_interval ?(empty_interrupt_ticks = 1)
    ?lp_interval ~arrival_interval () =
  (* A zero interval would reschedule its loop at the same instant
     forever. *)
  let check_interval name = function
    | Some i when Int64.compare i 1L < 0 ->
      invalid_arg (Printf.sprintf "Sched_thread.create: %s < 1" name)
    | _ -> ()
  in
  check_interval "arrival_interval" (Some arrival_interval);
  check_interval "lp_interval" lp_interval;
  check_interval "urgent_interval" urgent_interval;
  let n = Array.length workers in
  let default_batch = n * cfg.Config.hp_queue_size in
  let mk_stream level gen batch interval =
    { level; gen; batch; backlog = Queue.create (); interval }
  in
  (* With fewer than three levels the urgent stream degrades to the
     high-priority queue (dispatched first) — the "2-level baseline" of the
     multi-level comparison. *)
  let urgent_level = if cfg.Config.n_priority_levels >= 3 then 2 else 1 in
  let streams =
    List.filter_map Fun.id
      [
        Option.map
          (fun gen ->
            mk_stream urgent_level gen
              (match urgent_batch with Some b -> b | None -> default_batch)
              urgent_interval)
          urgent_gen;
        Option.map
          (fun gen ->
            mk_stream 1 gen
              (match hp_batch with Some b -> b | None -> default_batch)
              None)
          hp_gen;
      ]
  in
  let clock = Sim.Des.clock des in
  (* The delivery watchdog only makes sense when senduipi is in use. *)
  let wd_enabled =
    cfg.Config.watchdog
    && match cfg.Config.policy with Config.Preempt _ -> true | _ -> false
  in
  {
    des;
    cfg;
    fabric;
    metrics;
    workers;
    obs;
    lp_gen;
    epoch =
      (match epoch, cfg.Config.reclaim with
      | Some ep, Some rp ->
        let iv = Sim.Clock.cycles_of_us clock rp.Config.rc_epoch_interval_us in
        Some (ep, Int64.max 1L iv)
      | _ -> None);
    lanes;
    streams;
    arrival_interval;
    lp_interval = (match lp_interval with Some i -> i | None -> arrival_interval);
    (* The paper's driver keeps pushing leftovers "until the next arrival
       interval passes"; we approximate the spin with a retry cadence an
       order of magnitude denser than the arrival interval. *)
    retry_interval =
      (let dense = Int64.div arrival_interval 8L in
       let floor_ = Sim.Clock.cycles_of_us (Sim.Des.clock des) 2.0 in
       let cap = Sim.Clock.cycles_of_us (Sim.Des.clock des) 50.0 in
       Int64.max floor_ (Int64.min cap dense));
    empty_interrupt_ticks;
    wd =
      (if wd_enabled then
         Array.init n (fun _ ->
             { episode = false; resends = 0; score = 0; degraded = false })
       else [||]);
    wd_deadline = Sim.Clock.cycles_of_us clock wd_deadline_us;
    wd_cap = Sim.Clock.cycles_of_us clock wd_backoff_cap_us;
    shed_deadline =
      Option.map (Sim.Clock.cycles_of_us clock) cfg.Config.shed_deadline_us;
    rr = 0;
    ticks = 0;
    gen_hp = 0;
    gen_lp = 0;
    gen_gc = 0;
    skipped = 0;
    shed_ = 0;
    wd_resends_ = 0;
    wd_giveups_ = 0;
    degrade_enters_ = 0;
    degrade_exits_ = 0;
    retry_pending = false;
    halted = false;
  }

let halt t = t.halted <- true

let starvation_threshold t =
  match t.cfg.Config.policy with Config.Preempt l -> l | _ -> infinity

let is_preempt t = match t.cfg.Config.policy with Config.Preempt _ -> true | _ -> false

let backlogs_empty t = List.for_all (fun s -> Queue.is_empty s.backlog) t.streams

let emit t ev =
  match t.obs with
  | None -> ()
  | Some s ->
    Obs.Sink.record s ~time:(Sim.Des.now t.des) ~wid:Obs.Sink.sched_track ~ctx:0 ev

let posted_count t i =
  Uintr.Receiver.posted_count (Uintr.Hw_thread.receiver (Worker.hw t.workers.(i)))

(* Graceful degradation (Preempt -> Cooperative per worker, with
   hysteresis): every on-time delivery decays the worker's failure score by
   one, every missed deadline adds [dg_fail_weight].  A worker enters
   cooperative mode at [dg_enter_score] and recovers at [dg_exit_score];
   while degraded, dispatch keeps sending uipis (the global policy is
   unchanged), which the worker ignores but the watchdog uses as health
   probes — so the fabric healing is observed and the worker restored. *)
let wd_success t i =
  let s = t.wd.(i) in
  s.score <- max 0 (s.score - 1);
  if s.degraded && s.score <= dg_exit_score then begin
    s.degraded <- false;
    t.degrade_exits_ <- t.degrade_exits_ + 1;
    Worker.set_mode t.workers.(i) t.cfg.Config.policy;
    emit t (Obs.Event.Degrade_exit { worker = i; score = s.score });
    Worker.wake t.workers.(i)
  end

let wd_failure t i =
  let s = t.wd.(i) in
  (* Saturate at twice the enter threshold: a long outage must not push
     the score so high that a healed fabric can never earn recovery. *)
  s.score <- min (2 * dg_enter_score) (s.score + dg_fail_weight);
  if (not s.degraded) && s.score >= dg_enter_score then begin
    s.degraded <- true;
    t.degrade_enters_ <- t.degrade_enters_ + 1;
    Worker.set_mode t.workers.(i) (Config.Cooperative dg_coop_interval);
    emit t (Obs.Event.Degrade_enter { worker = i; score = s.score });
    Worker.wake t.workers.(i)
  end

(* Delivery watchdog: after a dispatch episode's senduipi, the receiver's
   UPID must see a post within the deadline, else re-send with a doubled
   (capped) deadline up to the resend budget.  A stuck worker (straggler
   parked in a non-preemptible region) also trips this: its deliveries
   arrive but the episode outlives them, so successive episodes keep the
   score honest.  [expect] is the posted count the check must beat. *)
let rec wd_check t i ~expect ~deadline =
  Sim.Des.schedule_after t.des ~delay:deadline (fun _ ->
      if t.halted then ()
      else
      let s = t.wd.(i) in
      let posted = posted_count t i in
      if posted > expect then begin
        s.episode <- false;
        s.resends <- 0;
        wd_success t i
      end
      else begin
        wd_failure t i;
        if s.resends < wd_max_resends then begin
          s.resends <- s.resends + 1;
          t.wd_resends_ <- t.wd_resends_ + 1;
          emit t (Obs.Event.Watchdog_resend { worker = i; attempt = s.resends });
          let w = t.workers.(i) in
          Uintr.Fabric.senduipi t.fabric (Worker.uitt_index w);
          Worker.wake w;
          wd_check t i ~expect:posted
            ~deadline:(Int64.min t.wd_cap (Int64.mul deadline 2L))
        end
        else begin
          t.wd_giveups_ <- t.wd_giveups_ + 1;
          emit t (Obs.Event.Watchdog_giveup { worker = i; resends = s.resends });
          s.episode <- false;
          s.resends <- 0
        end
      end)

(* One outstanding episode per worker: dispatches that overlap an episode
   piggyback on it (their deliveries advance the same posted count). *)
let wd_arm t i =
  if Array.length t.wd > 0 then begin
    let s = t.wd.(i) in
    if not s.episode then begin
      s.episode <- true;
      s.resends <- 0;
      wd_check t i ~expect:(posted_count t i) ~deadline:t.wd_deadline
    end
  end

(* Deadline-based load shedding: drop backlog entries whose sojourn exceeds
   the deadline.  Backlogs are FIFO, so draining stops at the first entry
   still within its deadline. *)
let shed_expired t =
  match t.shed_deadline with
  | None -> ()
  | Some deadline ->
    let now = Sim.Des.now t.des in
    List.iter
      (fun s ->
        let rec drain () =
          match Queue.peek_opt s.backlog with
          | Some req
            when Int64.compare (Int64.sub now req.Request.submitted_at) deadline > 0 ->
            ignore (Queue.pop s.backlog);
            t.shed_ <- t.shed_ + 1;
            Metrics.record_shed t.metrics req.Request.label;
            emit t
              (Obs.Event.Load_shed
                 {
                   req = req.Request.id;
                   level = s.level;
                   sojourn = Int64.to_int (Int64.sub now req.Request.submitted_at);
                 });
            drain ()
          | _ -> ()
        in
        drain ())
      t.streams

(* Push as much backlog as possible, round-robin, highest level first;
   send one user interrupt per worker that received anything. *)
let dispatch t =
  shed_expired t;
  let n = Array.length t.workers in
  let now = Sim.Des.now_int t.des in
  let touched = Array.make n false in
  let threshold = starvation_threshold t in
  List.iter
    (fun s ->
      let exhausted = ref 0 in
      while (not (Queue.is_empty s.backlog)) && !exhausted < n do
        let idx = t.rr in
        let w = t.workers.(idx) in
        t.rr <- (t.rr + 1) mod n;
        if Worker.starvation_level w ~now > threshold then begin
          (* First starvation check (§5): skip this worker entirely. *)
          t.skipped <- t.skipped + 1;
          incr exhausted
        end
        else begin
          let pushed = ref false in
          while
            (not (Queue.is_empty s.backlog)) && Worker.free_slots w ~level:s.level > 0
          do
            let req = Queue.pop s.backlog in
            let ok = Worker.enqueue w ~level:s.level req in
            assert ok;
            pushed := true
          done;
          if !pushed then begin
            touched.(idx) <- true;
            exhausted := 0
          end
          else incr exhausted
        end
      done)
    t.streams;
  Array.iteri
    (fun i got ->
      if got then begin
        let w = t.workers.(i) in
        if is_preempt t then begin
          Uintr.Fabric.senduipi t.fabric (Worker.uitt_index w);
          wd_arm t i
        end;
        Worker.wake w
      end)
    touched

let rec schedule_retry t =
  if (not t.retry_pending) && (not t.halted) && not (backlogs_empty t) then begin
    t.retry_pending <- true;
    Sim.Des.schedule_after t.des ~delay:t.retry_interval (fun _ ->
        t.retry_pending <- false;
        if not t.halted then begin
          dispatch t;
          schedule_retry t
        end)
  end

let lp_tick t =
  let now = Sim.Des.now t.des in
  match t.lp_gen with
  | Some gen ->
    (* with a maintenance lane armed, keep one lp queue slot per worker free
       so background chunks are never crowded out by the lp stream *)
    let reserve = if t.lanes <> [] then 1 else 0 in
    Array.iter
      (fun w ->
        let budget = Worker.lp_free_slots w - reserve in
        for _ = 1 to budget do
          let req = gen ~worker:(Worker.id w) ~submitted_at:now in
          t.gen_lp <- t.gen_lp + 1;
          let ok = Worker.enqueue_lp w req in
          assert ok;
          Worker.wake w
        done)
      t.workers
  | None -> ()

let generate_stream t s =
  let now = Sim.Des.now t.des in
  for _ = 1 to s.batch do
    if Queue.length s.backlog < t.cfg.Config.hp_backlog_cap then begin
      Queue.push (s.gen ~submitted_at:now) s.backlog;
      t.gen_hp <- t.gen_hp + 1
    end
    else Metrics.record_drop t.metrics
  done

let tick t =
  (* Generate each tick-driven level's batch with a common timestamp. *)
  List.iter (fun s -> if s.interval = None then generate_stream t s) t.streams;
  dispatch t;
  schedule_retry t;
  if t.obs <> None then begin
    (* Load gauges, once per tick: Perfetto renders these as counter tracks. *)
    let backlog = List.fold_left (fun acc s -> acc + Queue.length s.backlog) 0 t.streams in
    let run_queue =
      Array.fold_left (fun acc w -> acc + Worker.queued_requests w) 0 t.workers
    in
    emit t (Obs.Event.Counter { name = "backlog"; value = backlog });
    emit t (Obs.Event.Counter { name = "run_queue"; value = run_queue })
  end;
  (* Fig. 8 mode: interrupt every worker although no high-priority work was
     sent (paced every [empty_interrupt_ticks] ticks). *)
  t.ticks <- t.ticks + 1;
  if t.cfg.Config.empty_interrupts && t.ticks mod t.empty_interrupt_ticks = 0 then
    Array.iter
      (fun w ->
        Uintr.Fabric.senduipi t.fabric (Worker.uitt_index w);
        Worker.wake w)
      t.workers

(* Background maintenance: the epoch-advance loop, then one dispatch loop
   per lane.  A lane's chunks go straight into low-priority queue slots (up
   to [per_tick] per firing, one per worker with room) — from there the
   production scheduling machinery owns them: a preemptive worker
   interrupts them for arriving high-priority work like any other
   low-priority transaction. *)
let start_maintenance t =
  (match t.epoch with
  | Some (ep, iv) ->
    let rec epoch_loop _ =
      if not t.halted then begin
        let e = Maint.Epoch.advance ep in
        emit t
          (Obs.Event.Epoch_advance
             { epoch = e; safe = Maint.Epoch.safe_epoch ep; lag = Maint.Epoch.lag ep });
        Sim.Des.schedule_after t.des ~delay:iv epoch_loop
      end
    in
    Sim.Des.schedule_after t.des ~delay:iv epoch_loop
  | None -> ());
  List.iter
    (fun (lane : lane) ->
      let rec lane_loop _ =
        if not t.halted then begin
          let now = Sim.Des.now t.des in
          let budget = ref lane.per_tick in
          Array.iter
            (fun w ->
              if !budget > 0 && Worker.lp_free_slots w > 0 then begin
                let req = lane.gen ~submitted_at:now in
                let ok = Worker.enqueue_lp w { req with Request.maintenance = true } in
                assert ok;
                t.gen_gc <- t.gen_gc + 1;
                decr budget;
                Worker.wake w
              end)
            t.workers;
          Sim.Des.schedule_after t.des ~delay:lane.interval lane_loop
        end
      in
      Sim.Des.schedule_after t.des ~delay:lane.interval lane_loop)
    t.lanes

let start t =
  let rec hp_loop _ =
    if not t.halted then begin
      tick t;
      Sim.Des.schedule_after t.des ~delay:t.arrival_interval hp_loop
    end
  in
  Sim.Des.schedule_after t.des ~delay:0L hp_loop;
  start_maintenance t;
  (* Streams with their own cadence (e.g. a denser urgent stream). *)
  List.iter
    (fun s ->
      match s.interval with
      | Some interval ->
        let rec stream_loop _ =
          if not t.halted then begin
            generate_stream t s;
            dispatch t;
            schedule_retry t;
            Sim.Des.schedule_after t.des ~delay:interval stream_loop
          end
        in
        Sim.Des.schedule_after t.des ~delay:interval stream_loop
      | None -> ())
    t.streams;
  if t.lp_gen <> None then begin
    let rec lp_loop _ =
      if not t.halted then begin
        lp_tick t;
        Sim.Des.schedule_after t.des ~delay:t.lp_interval lp_loop
      end
    in
    Sim.Des.schedule_after t.des ~delay:0L lp_loop
  end

let backlog_length t = List.fold_left (fun acc s -> acc + Queue.length s.backlog) 0 t.streams
let generated_hp t = t.gen_hp
let generated_lp t = t.gen_lp
let generated_gc t = t.gen_gc
let skipped_starved t = t.skipped
let shed t = t.shed_
let watchdog_resends t = t.wd_resends_
let watchdog_giveups t = t.wd_giveups_
let degrade_enters t = t.degrade_enters_
let degrade_exits t = t.degrade_exits_
