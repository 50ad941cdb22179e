(* Deliveries landing on the same receiver at the same tick are coalesced
   into one drain event: a storm of senduipi (e.g. a group-commit flush
   unparking a batch of waiters) schedules one DES event per
   (receiver, tick) instead of one per flow.  The batch keeps its flows in
   send order, so per-flow stage stamps and UPID posts replay exactly as
   the unbatched schedule did. *)
type batch = { b_idx : int; b_flows : int list ref }

type t = {
  des : Sim.Des.t;
  costs_ : Costs.t;
  obs_ : Obs.Sink.t option;
  mutable uitt : Receiver.t array;
  mutable n : int;
  mutable sends_ : int;
  jitter_rng : Sim.Rng.t;
  delivery_hist : Sim.Histogram.t;
  mutable latency_model : (flow:int -> nominal:int -> int) option;
  mutable delivery_model : (flow:int -> latency:int -> int list) option;
  mutable chan_model : (flow:int -> latency:int -> int list) option;
  mutable lost_ : int;
  mutable duplicated_ : int;
  mutable chan_flows_ : int;
  stages_ : Stages.t;
  pending_ : (int, batch) Hashtbl.t; (* key = (tick lsl idx_bits) lor idx *)
}

(* UITT indexes fit 12 bits (one per hardware thread); delivery ticks stay
   below 2^50 cycles, so the packed key cannot collide. *)
let idx_bits = 12

let create ?obs des ~costs =
  {
    des;
    costs_ = costs;
    obs_ = obs;
    uitt = Array.make 8 (Receiver.create ());
    n = 0;
    sends_ = 0;
    jitter_rng = Sim.Rng.split (Sim.Des.rng des);
    delivery_hist = Sim.Histogram.create ();
    latency_model = None;
    delivery_model = None;
    chan_model = None;
    lost_ = 0;
    duplicated_ = 0;
    chan_flows_ = 0;
    stages_ = Stages.create ();
    pending_ = Hashtbl.create 32;
  }

let costs t = t.costs_
let set_latency_model t f = t.latency_model <- f

(* A delivery model may deliver a channel message at any latency, so a
   step's send is a path of latency 0 from then on. *)
let set_delivery_model t f =
  if Option.is_some f then Sim.Des.add_path t.des ~least_latency:0;
  t.delivery_model <- f

let set_channel_delivery_model t f =
  if Option.is_some f then Sim.Des.add_path t.des ~least_latency:0;
  t.chan_model <- f

let register t r =
  if t.n = Array.length t.uitt then begin
    let bigger = Array.make (2 * t.n) r in
    Array.blit t.uitt 0 bigger 0 t.n;
    t.uitt <- bigger
  end;
  t.uitt.(t.n) <- r;
  t.n <- t.n + 1;
  t.n - 1

let receiver t idx =
  if idx < 0 || idx >= t.n then invalid_arg "Fabric.receiver: unknown UITT index";
  t.uitt.(idx)

let senduipi t idx =
  let r = receiver t idx in
  (* flow id: correlates this send with its delivery and (via the
     receiver's UPID) the eventual recognition, for timeline arrows. *)
  let flow = t.sends_ in
  t.sends_ <- t.sends_ + 1;
  Stages.on_send t.stages_ ~flow ~time:(Sim.Des.now t.des);
  (match t.obs_ with
  | Some s ->
    Obs.Sink.record s ~time:(Sim.Des.now t.des) ~wid:Obs.Sink.sched_track ~ctx:0
      (Obs.Event.Uintr_send { flow; uitt = idx })
  | None -> ());
  (* +-20 % jitter around the nominal delivery latency keeps the
     distribution realistic while staying well under 1 us; an installed
     latency model (schedule-exploration harness) replaces the draw. *)
  let nominal = t.costs_.Costs.senduipi + t.costs_.Costs.delivery in
  let latency =
    match t.latency_model with
    | Some f -> max 0 (f ~flow ~nominal)
    | None ->
      let jitter = Sim.Rng.int_in t.jitter_rng (-(nominal / 5)) (nominal / 5) in
      max 0 (nominal + jitter)
  in
  (* The delivery model (fault injection) turns one post into zero (lost),
     one (possibly delayed) or several (duplicated) deliveries. *)
  let deliveries =
    match t.delivery_model with
    | None -> [ latency ]
    | Some f -> List.map (max 0) (f ~flow ~latency)
  in
  match deliveries with
  | [] ->
    t.lost_ <- t.lost_ + 1;
    Stages.on_lost t.stages_ ~flow;
    (match t.obs_ with
    | Some s ->
      Obs.Sink.record s ~time:(Sim.Des.now t.des) ~wid:Obs.Sink.sched_track ~ctx:0
        (Obs.Event.Uintr_drop { flow; uitt = idx })
    | None -> ())
  | ls ->
    t.duplicated_ <- t.duplicated_ + (List.length ls - 1);
    List.iter
      (fun lat ->
        Sim.Histogram.record t.delivery_hist (Int64.of_int lat);
        let tick = Sim.Des.now_int t.des + lat in
        let key = (tick lsl idx_bits) lor idx in
        match Hashtbl.find_opt t.pending_ key with
        | Some b ->
          (* a drain for this (receiver, tick) is already scheduled: ride it *)
          b.b_flows := flow :: !(b.b_flows)
        | None ->
          let b = { b_idx = idx; b_flows = ref [ flow ] } in
          (* pushed before the batch is recorded: a push the DES refuses
             (a step's, under the floor) leaves no batch without a drain *)
          Sim.Des.schedule_at_int t.des ~time:tick (fun des ->
              Hashtbl.remove t.pending_ key;
              List.iter
                (fun flow ->
                  Stages.on_deliver t.stages_ ~flow ~time:(Sim.Des.now des);
                  (match t.obs_ with
                  | Some s ->
                    Obs.Sink.record s ~time:(Sim.Des.now des)
                      ~wid:Obs.Sink.sched_track ~ctx:0
                      (Obs.Event.Uintr_deliver
                         { flow; uitt = b.b_idx; coalesced = Receiver.pending r })
                  | None -> ());
                  Receiver.post ~flow r)
                (List.rev !(b.b_flows)));
          Hashtbl.add t.pending_ key b)
      ls

(* Payload channels (log shipping, heartbeats) ride the same fault-plan
   delivery model as senduipi posts, so a plan that drops or duplicates
   interrupts perturbs replication traffic identically — but they draw
   flow ids from a separate counter so {!sends} and the stage tracer keep
   counting preemption flows only. *)
let channel_deliveries t ~latency =
  let flow = t.chan_flows_ in
  t.chan_flows_ <- t.chan_flows_ + 1;
  let base =
    match t.delivery_model with
    | None -> [ latency ]
    | Some f -> List.map (max 0) (f ~flow ~latency)
  in
  (* The channel-only model (heartbeat-loss fault) composes on top: it
     sees each delivery the shared model produced and may drop, delay or
     split it further.  senduipi posts never pass through it. *)
  match t.chan_model with
  | None -> base
  | Some f ->
    List.concat_map (fun lat -> List.map (max 0) (f ~flow ~latency:lat)) base

let sends t = t.sends_
let stages t = t.stages_
let lost t = t.lost_
let duplicated t = t.duplicated_
let delivery_histogram t = t.delivery_hist
