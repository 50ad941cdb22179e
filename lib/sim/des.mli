(** Discrete-event simulation driver.

    Virtual time is an absolute cycle count.  Two kinds of work run on it:
    {e events}, callbacks scheduled at absolute times, and {e actors}
    (worker threads), which advance a private clock one {e step} (one
    micro-op and the program code up to the next) at a time.  Runs are
    fully deterministic.

    {b The tie rule.}  The virtual schedule is the sequence of events and
    actor steps in this order, whatever the host does:
    - by time; at one virtual instant, every pending event runs before any
      actor step, events in push order, and actors then step in actor-id
      order (registration order; a runner registers workers in worker-id
      order).  An actor whose step costs nothing steps again at the same
      instant before any higher id;
    - no step starts past the run's horizon;
    - every virtual-time read inside an actor's step ({!now},
      {!schedule_at}'s clamp, anything built on them) reads the step's own
      clock, which the actor publishes with {!set_actor_clock}.

    {b Run-ahead protocol.}  An actor does not return to the loop after
    every step.  An activation keeps stepping while its next step is the
    schedule's next item ({!may_step}): nothing else can then observe or
    change state before it.  When the bound fails it re-arms itself at
    its clock ({!wake_actor}) and returns, and the item in front of it
    runs.  Where an activation is cut is therefore invisible: the
    schedule is the rule's order.

    The bound lives in the DES, as two exclusive limits on the running
    actor's clock, so a check is one compare: the tie rule's (the
    horizon + 1, the next event, and the earliest other pending
    activation, + 1 when the running actor has the lower id) and the
    commuting one ({!may_run_ahead}).  They are computed when {!run}
    dispatches the activation, and recomputed only by what inside a step
    can move them: a push ({!schedule_at}, {!schedule_at_int},
    {!schedule_after}), the actor re-arming itself ({!wake_actor}, when
    that arms it) and {!add_path}.  Nothing else changes the pending
    events, the pending activations, the horizon or the floor while a
    step runs, so a step stops before the events it pushes.

    {b Lookahead.}  A step that commutes with every other actor's steps
    (it reads only its own state, a snapshot, or data no actor writes)
    may also run ahead of other actors' pending activations, by less than
    the {e floor}: the least latency of the paths by which any actor's
    step can reach another actor.  Each component declares the paths its
    steps can start where it builds them ({!add_path}: a channel, a log
    device, a 2PC timeout), and state that steps of different actors
    share declares a path of latency 0, which is lock-step.  With no path
    declared there is no floor ([max_int]) and such a step stops only at
    the next event or the horizon.  Every pending event still bounds it,
    so a delivery, tick or wake aimed at the actor is never passed, and
    nothing another actor does before the floor can reach it.
    Non-commuting steps of all actors therefore still run in the rule's
    order, and the commuting ones in between cannot tell: the virtual
    schedule is the same with fewer activations.

    {b Enforced.}  One rule, checked where a step can reach another actor:
    an event pushed inside an actor's step ({!schedule_at},
    {!schedule_at_int}, {!schedule_after}) lands at least the floor after
    the step's clock, and no step wakes another actor ({!wake_actor}).
    Either raises [Failure].  A step may re-arm its own actor, and an
    event may push at any latency and wake any actor. *)

type t

val create : ?clock:Clock.t -> ?seed:int64 -> unit -> t

val clock : t -> Clock.t
val rng : t -> Rng.t
(** Root RNG for the run; actors should [Rng.split] their own streams. *)

val now : t -> int64
(** Time of the event being processed (or last processed); inside an
    actor's step, the step's clock. *)

val now_int : t -> int
(** [now] as an unboxed native int (cycle counts fit comfortably). *)

val next_event_time : t -> int64
(** Time of the earliest pending event (actors excluded), or
    [Int64.max_int] if none, read from the queue's root in O(1). *)

val schedule_at : t -> time:int64 -> (t -> unit) -> unit
(** Schedule a callback at an absolute time.  Times in the past are clamped
    to [now] (the callback runs later in the current instant).
    @raise Failure inside an actor's step when the (clamped) time is less
    than the floor after the step's clock (see {!add_path}). *)

val schedule_at_int : t -> time:int -> (t -> unit) -> unit
(** [schedule_at] taking the time as an unboxed native int — the
    allocation-free path for actor reschedules.
    @raise Failure as {!schedule_at}. *)

val schedule_after : t -> delay:int64 -> (t -> unit) -> unit
(** Schedule relative to [now].  Negative delays are clamped to zero.
    @raise Failure as {!schedule_at}. *)

(** {1 Actors} *)

val add_actor : t -> (t -> unit) -> int
(** Register an actor with its activation callback; returns its id, which
    orders it against other actors at equal times (ids count up from 0 in
    registration order). *)

val wake_actor : t -> int -> time:int -> unit
(** Arm the actor's activation at [time] (clamped to [now]).  No-op when an
    activation is already pending.
    @raise Failure inside another actor's step. *)

val set_actor_clock : t -> int -> unit
(** Publish the running actor's clock: until the next dispatch, {!now} and
    the scheduling clamps read it. *)

val may_step : t -> local:int -> bool
(** Whether the running actor's next step, at clock [local], comes before
    every pending event and every other pending actor under the tie rule
    and does not start past the horizon.  Holds only inside an actor's
    step (it reads the running actor's limit, see the run-ahead
    protocol). *)

val add_path : t -> least_latency:int -> unit
(** Declare a path by which an actor's step can reach another actor, and
    the least latency (cycles) it can take: the floor falls to it if it
    is lower, clamped at 0, and never rises.  Latency 0 stands for state
    that steps of different actors share, and makes every step keep the
    lock-step bound; the lookahead differential declares it to compare a
    run with and without lookahead. *)

val lookahead_floor : t -> int
(** The least latency declared to {!add_path}; [max_int] while none is. *)

val may_run_ahead : t -> local:int -> bool
(** The bound for a step that commutes with every other actor: before
    every pending event and the horizon, and less than the floor past the
    earliest pending actor (no actor bound with no path declared).
    {!may_step} when the floor is 0.  Holds only inside an actor's
    step, like {!may_step}. *)

(** {1 Running} *)

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
(** Process events and actor activations until none is pending, {!stop}
    is called, or the next lies strictly beyond [until] (those at [until]
    still run).  After a bounded run, [now] is [min until (last time)]. *)

val events_processed : t -> int
(** Events and actor activations dispatched. *)

val activations : t -> int
(** Actor activations dispatched: the part of {!events_processed} that
    does not pass through the event queue. *)

val max_queue_depth : t -> int
(** High-water mark of pending events plus pending actor activations,
    sampled before each dispatch — a load gauge for the event loop
    itself. *)
