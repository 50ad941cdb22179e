(** The scheduling thread (§4.1, §6.1).

    A dedicated core that (1) generates transaction requests at a fixed
    arrival interval — the paper's decoupled benchmark driver — and
    (2) dispatches them: low-priority requests refill each worker's
    low-priority queue; high-priority requests are generated in batches
    (batch size = workers × hp-queue-size by default), pushed round-robin
    into workers' high-priority queues, and, under the [Preempt] policy,
    announced with a single [senduipi] per worker per batch (batched
    on-demand preemption, §5).

    Undispatched high-priority requests stay in a backlog retried every
    [retry_interval] until the admission cap drops them.

    Overload resilience (all off by default, armed via {!Config}):
    - a {e delivery watchdog} ([cfg.watchdog]) checks that each dispatch
      episode's [senduipi] reaches the worker's UPID within 5 µs and
      re-sends with exponential backoff capped at 50 µs, giving up after
      3 resends;
    - {e graceful degradation}, armed with the watchdog, tracks a
      per-worker failure score fed by it and flips persistently failing
      workers from [Preempt] to [Cooperative] mode (and back, with
      hysteresis, once deliveries flow again);
    - {e deadline shedding} ([cfg.shed_deadline_us]) drops backlog entries
      whose sojourn exceeds the deadline, counted per class in
      {!Metrics}. *)

type t

(** A background maintenance lane on the low-priority level: every
    [interval] cycles ([>= 1]) it places up to [per_tick] requests minted
    by [gen], one per worker with a free low-priority slot, each marked
    [Request.maintenance] and counted in {!generated_gc}. *)
type lane = {
  gen : submitted_at:int64 -> Request.t;
  interval : int64;
  per_tick : int;
}

val create :
  des:Sim.Des.t ->
  cfg:Config.t ->
  fabric:Uintr.Fabric.t ->
  metrics:Metrics.t ->
  workers:Worker.t array ->
  ?obs:Obs.Sink.t ->
  ?lp_gen:(worker:int -> submitted_at:int64 -> Request.t) ->
  ?epoch:Maint.Epoch.t ->
  ?lanes:lane list ->
  ?hp_gen:(submitted_at:int64 -> Request.t) ->
  ?hp_batch:int ->
  ?urgent_gen:(submitted_at:int64 -> Request.t) ->
  ?urgent_batch:int ->
  ?urgent_interval:int64 ->
  ?empty_interrupt_ticks:int ->
  ?lp_interval:int64 ->
  arrival_interval:int64 ->
  unit ->
  t
(** [urgent_gen] feeds the level-2 queues of the multi-level extension
    (with only two configured levels it degrades to the high-priority
    queue, dispatched first — the 2-level baseline); higher levels are
    dispatched first each tick.  [empty_interrupt_ticks] paces Fig-8-mode
    empty interrupts: one per worker every that many ticks (default 1).
    Every [lp_interval] each worker's low-priority queue is refilled to
    capacity, less one slot while a maintenance lane is armed;
    [lp_interval] decouples that cadence from the high-priority arrival
    interval (default: equal) — the Fig-13 sweep varies only the latter.

    Background maintenance runs as [lanes] (default none; see
    {!Runner.lanes} for version reclamation and fuzzy checkpointing), first
    scheduled in list order, each after its own interval.  Their requests
    are preempted by arriving high-priority work like any other
    low-priority transaction.  [epoch], when [cfg.reclaim] is also set, is
    advanced every [rc_epoch_interval_us] on this thread, first scheduled
    ahead of the lanes.
    @raise Invalid_argument when [arrival_interval], [lp_interval] or
    [urgent_interval] is below one cycle. *)

val start : t -> unit
(** Schedule the first tick at the current virtual time. *)

val halt : t -> unit
(** Fail-stop the scheduling thread (primary crash under failover): every
    self-rescheduling loop — arrival ticks, lp refills, extra streams,
    retries, the epoch advance, maintenance lanes, watchdog rechecks —
    unwinds at its next firing instead of rescheduling.  Irreversible. *)

val backlog_length : t -> int
val generated_hp : t -> int
val generated_lp : t -> int

val generated_gc : t -> int
(** Maintenance requests (GC and checkpoint chunks) dispatched by this
    thread's lanes — a request-conservation ledger term alongside
    {!generated_hp} and {!generated_lp}. *)

val skipped_starved : t -> int
(** Dispatch attempts skipped because a worker's starvation level exceeded
    the threshold (§5, first check). *)

val shed : t -> int
(** Backlog entries dropped by deadline shedding. *)

val watchdog_resends : t -> int
val watchdog_giveups : t -> int
(** Delivery-watchdog re-sends and abandoned episodes. *)

val degrade_enters : t -> int
val degrade_exits : t -> int
(** Preempt→Cooperative fallbacks and recoveries across all workers. *)
