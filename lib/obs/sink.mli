(** Event sink: one bounded ring buffer per track.

    A {e track} is the unit of timeline ordering — one per worker hardware
    thread, plus one for the scheduler/fabric ({!sched_track}).  Each track
    keeps the most recent [capacity] entries; older ones are overwritten
    (counted in {!dropped}).  Recording is O(1) and allocation-light; a
    worker that was handed no sink pays only an option check per call
    site. *)

type entry = {
  seq : int;  (** global record order, for stable sorting at equal times *)
  time : int64;  (** virtual cycles *)
  wid : int;  (** worker id, or {!sched_track} *)
  ctx : int;  (** context index on that worker (0 for the scheduler) *)
  ev : Event.t;
}

type t

val sched_track : int
(** The [wid] used for scheduler/fabric events ([-1]). *)

val dur_track : int
(** The [wid] used for durability-daemon events — flush submit/complete,
    group-commit acks, crashes ([-2]). *)

val maint_track : int
(** The [wid] used for background-maintenance events — GC and checkpoint
    chunks ([-3]). *)

val repl_track : int
(** The [wid] used for replication events — log shipping, replica
    apply/ack, heartbeats, failover ([-4]). *)

val create : ?capacity:int -> unit -> t
(** [capacity] (default 65536) is per track.
    @raise Invalid_argument if not positive. *)

val record : t -> time:int64 -> wid:int -> ctx:int -> Event.t -> unit

val recorded : t -> int
(** Total records accepted (including since-overwritten ones). *)

val dropped : t -> int
(** Records lost to ring overwrite across all tracks. *)

val dump : t -> entry list
(** Every retained entry, sorted by [(time, seq)]. *)

val clear : t -> unit

val pp : Sim.Clock.t -> Format.formatter -> t -> unit
(** Log-style rendering of {!dump}: one line per entry with µs timestamps —
    the human view the Perfetto exporter replaces for quick looks. *)
