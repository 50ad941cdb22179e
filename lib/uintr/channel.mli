(** Unidirectional payload channel over the interrupt fabric.

    senduipi moves a doorbell, not data; replication needs to move log
    record batches, acks and heartbeats.  A channel models that data path
    with a per-message cycle cost of [base_latency + per_byte * bytes]
    (±20 % jitter), and routes every send through the fabric's fault-plan
    delivery model ({!Fabric.channel_deliveries}) so plans that lose,
    duplicate or delay interrupt deliveries perturb replication traffic the
    same way.  Delivery invokes the receiver's [on_deliver] callback inside
    a DES event; messages on a severed channel — including those already in
    flight — are dropped. *)

type 'a t

val create :
  ?base_latency:int ->
  ?per_byte:int ->
  Sim.Des.t ->
  fabric:Fabric.t ->
  name:string ->
  'a t
(** [base_latency] and [per_byte] are cycle costs, by default those of a
    cross-NUMA-class interconnect: 1200 cycles (0.5 µs at 2.4 GHz) plus 1
    per byte — the replication ship/ack channels and the inter-shard
    links all use them.  Jitter is drawn from a private split of the DES
    RNG so channel traffic never perturbs the schedule of runs that do not
    use channels.  The channel registers its least latency,
    [base_latency - base_latency / 5] (960 cycles by default), with
    [fabric] ({!Fabric.register_path}): a message is a path from one
    worker's step to another's. *)

val set_on_deliver : 'a t -> ('a -> unit) -> unit
(** Install the receiver.  Messages delivered before a receiver is
    installed are silently dropped. *)

val name : 'a t -> string

val send : 'a t -> bytes:int -> 'a -> unit
(** Post [msg]; it arrives after the modeled latency unless the installed
    delivery model loses it or the channel is severed first.  Duplicated
    deliveries invoke [on_deliver] once per copy — receivers must be
    idempotent, exactly like redo-log replay.  Copies landing at the same
    virtual cycle are delivered in send order (explicit per-channel
    sequence-number tie-break), so equal-timestamp traffic replays
    bit-identically. *)

val sever : 'a t -> unit
(** Crash the channel: refuse subsequent sends and drop in-flight
    messages at their delivery time.  Irreversible. *)

val sends : 'a t -> int
val delivered : 'a t -> int

val lost : 'a t -> int
(** Sends dropped by the fault-plan delivery model (severed drops are not
    counted here). *)

val duplicated : 'a t -> int
val bytes_sent : 'a t -> int
