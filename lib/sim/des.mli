(** Discrete-event simulation driver.

    Virtual time is an absolute cycle count.  Events are callbacks scheduled
    at absolute times; the driver pops them in [(time, insertion)] order, so
    runs are fully deterministic.

    {b Run-ahead protocol.}  Long-running actors (worker threads executing
    transactions) do not schedule one event per micro-operation — that would
    put the entire workload on the heap.  Instead an actor activation may
    execute many micro-ops, advancing its private local time, as long as it
    does not run past {!next_event_time}: no other actor can observe or
    produce state changes inside that window because the event queue is
    frozen while the activation runs.  When the actor reaches the window
    edge (or blocks), it re-schedules its continuation at its local time. *)

type t

val create : ?clock:Clock.t -> ?seed:int64 -> unit -> t

val clock : t -> Clock.t
val rng : t -> Rng.t
(** Root RNG for the run; actors should [Rng.split] their own streams. *)

val now : t -> int64
(** Time of the event being processed (or last processed). *)

val now_int : t -> int
(** [now] as an unboxed native int (cycle counts fit comfortably). *)

val next_event_time : t -> int64
(** Time of the earliest pending event, or [Int64.max_int] if none.  The
    run-ahead bound for actor activations.  Served from a cache maintained
    on push/pop, so polling it never allocates. *)

val next_event_time_int : t -> int
(** [next_event_time] as an unboxed native int ([max_int] if none) — the
    form actor hot loops poll once per micro-op. *)

val schedule_at : t -> time:int64 -> (t -> unit) -> unit
(** Schedule a callback at an absolute time.  Times in the past are clamped
    to [now] (the callback runs later in the current instant). *)

val schedule_at_int : t -> time:int -> (t -> unit) -> unit
(** [schedule_at] taking the time as an unboxed native int — the
    allocation-free path for actor reschedules. *)

val schedule_after : t -> delay:int64 -> (t -> unit) -> unit
(** Schedule relative to [now].  Negative delays are clamped to zero. *)

val stop : t -> unit
(** Make {!run} return after the current event. *)

val set_probe : t -> (time:int64 -> seq:int -> unit) option -> unit
(** Install (or clear) an observation hook called before each event is
    dispatched with its time and 1-based sequence number.  Deterministic
    replay checkers fold the [(seq, time)] stream into a schedule hash;
    the probe must not mutate simulation state. *)

val set_queue_tracer : t -> (Event_queue.trace_op -> unit) option -> unit
(** Install (or clear) an operation tracer on the underlying event queue.
    The differential test harness uses this to capture a workload-shaped
    push/pop trace and replay it against the reference heap; the hook must
    not mutate simulation state. *)

val run : ?until:int64 -> t -> unit
(** Process events until the queue is empty, {!stop} is called, or the next
    event lies strictly beyond [until] (events at [until] still run).
    After a bounded run, [now] is [min until (last event time)]. *)

val events_processed : t -> int

val max_queue_depth : t -> int
(** High-water mark of the pending-event queue, sampled before each pop —
    a load gauge for the event loop itself. *)
