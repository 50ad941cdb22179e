(** Sender side of the user-interrupt fabric.

    The UITT (user-interrupt target table) maps a sender-local index to a
    receiver's UPID; [senduipi <index>] posts an interrupt which the fabric
    delivers to the receiving core after the modeled delivery latency.
    There is no APIC-style broadcast (§2.3): each senduipi targets exactly
    one receiver. *)

type t

val create : ?obs:Obs.Sink.t -> Sim.Des.t -> costs:Costs.t -> t
(** [obs], when given, receives [Uintr_send]/[Uintr_deliver] events on the
    scheduler track, with flow ids threading send → deliver → recognize. *)

val costs : t -> Costs.t

val set_latency_model : t -> (flow:int -> nominal:int -> int) option -> unit
(** Replace the built-in ±20 % delivery jitter with a caller-supplied
    latency (cycles, clamped to ≥ 0) per send.  [flow] is the send's
    correlation id, [nominal] the unperturbed [senduipi + delivery] cost.
    The schedule-exploration harness uses this to perturb — and record —
    every delivery decision; [None] restores the default model. *)

val set_delivery_model : t -> (flow:int -> latency:int -> int list) option -> unit
(** Fault-injection hook, applied {e after} the latency model (or default
    jitter): the returned list of latencies (cycles, clamped to ≥ 0) is the
    set of UPID posts this send produces.  [[]] loses the delivery (counted
    in {!lost}, emitted as [Uintr_drop]); more than one element duplicates
    it (counted in {!duplicated}); [[latency]] is the identity.  Composes
    with {!set_latency_model}, so the checking harness's recorded jitter
    and a fault plan can be armed simultaneously.  [None] restores
    fault-free delivery. *)

val set_channel_delivery_model : t -> (flow:int -> latency:int -> int list) option -> unit
(** Channel-only fault hook (heartbeat loss): applied on top of the shared
    delivery model inside {!channel_deliveries}, to each delivery that
    model produced, and never to senduipi posts — so a plan can starve the
    replication fabric while interrupts keep flowing.  Same contract as
    {!set_delivery_model}. *)

val register : t -> Receiver.t -> int
(** Add a UITT entry for a receiver; returns its index. *)

val receiver : t -> int -> Receiver.t
(** @raise Invalid_argument on an unknown index. *)

val senduipi : t -> int -> unit
(** Execute [senduipi] against a UITT index: schedules the UPID post on the
    simulation after [costs.senduipi + costs.delivery] cycles.
    @raise Invalid_argument on an unknown index. *)

val channel_deliveries : t -> latency:int -> int list
(** Run one payload-channel send through the installed delivery model (see
    {!set_delivery_model}), drawing a fresh flow id from a counter separate
    from senduipi flows.  Returns the latencies of the posts the send
    produces ([[]] = lost, length > 1 = duplicated); [[latency]] when no
    model is installed.  {!Channel} uses this so fault plans perturb log
    shipping and heartbeats exactly as they perturb interrupts. *)

val register_path : t -> least_latency:int -> unit
(** Declare another path by which one worker's step can reach another
    worker, and the least latency (cycles) it can take: a payload channel
    ({!Channel.create} registers its own) or a log device's flush
    completion.  The floor only ever falls. *)

val lookahead_floor : t -> int
(** The least latency of every path from one worker's step to another
    worker: a senduipi, [0.8 × (senduipi + delivery)] under the built-in
    ±20 % jitter (800 cycles with {!Costs.default}), and each path given
    to {!register_path}.  [0] while a latency, delivery or channel
    delivery model is installed, since those may deliver at any latency.
    Nothing one worker does reaches another sooner: the simulator's
    lookahead floor ({!Sim.Des.may_run_ahead}). *)

val sends : t -> int
(** Total senduipi instructions executed. *)

val stages : t -> Stages.t
(** Always-on per-preemption stage tracer: the fabric stamps send and
    delivery per flow; the worker stamps recognition / switch / resume on
    the same tracer (see {!Stages}). *)

val lost : t -> int
(** Deliveries dropped by the fault-injection delivery model. *)

val duplicated : t -> int
(** Extra deliveries produced by the fault-injection delivery model. *)

val delivery_histogram : t -> Sim.Histogram.t
(** Distribution of modeled post-to-delivery latencies (cycles), for the
    §6.1 microbenchmark. *)
