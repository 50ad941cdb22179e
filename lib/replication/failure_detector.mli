(** Heartbeat failure detector with timeout-plus-hysteresis.

    Every delivery from the primary feeds {!note_alive}.  A periodic
    check counts a miss when silence exceeds [timeout_us]; only
    [miss_budget] {e consecutive} misses declare the primary dead (one
    late heartbeat resets the count), so fault-plan delivery storms and
    stragglers do not trigger spurious failover.  Declaring is
    edge-triggered and permanent: [on_suspect] runs exactly once. *)

type t

val create :
  ?obs:Obs.Sink.t ->
  Sim.Des.t ->
  clock:Sim.Clock.t ->
  timeout_us:float ->
  check_interval_us:float ->
  miss_budget:int ->
  unit ->
  t
(** @raise Invalid_argument on a non-positive interval or budget. *)

val start : t -> unit
val set_on_suspect : t -> (unit -> unit) option -> unit

val note_alive : t -> unit
(** Primary traffic observed: stamp the deadline, clear the miss count. *)

val halt : t -> unit
val suspected : t -> bool
val suspected_at : t -> int64 option
val total_misses : t -> int
