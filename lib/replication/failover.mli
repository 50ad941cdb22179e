(** Failover controller: promotes the replica when the failure detector
    declares the primary dead, measures RTO, and proves the promoted
    engine serves new transactions via probe commits into
    {!probe_table}. *)

val probe_table : string
(** Name of the table probe transactions commit into after promotion —
    excluded from primary-vs-replica state comparisons. *)

type outcome = {
  fo_detected_us : float;  (** detector suspect edge, virtual µs *)
  fo_promoted_us : float;  (** promotion complete, virtual µs *)
  fo_rto_us : float;
      (** crash → promotion-complete when the crash time was reported via
          {!note_primary_crash}, else detection → promotion *)
  fo_applied_lsn : int;  (** promoted prefix (replica durable = applied) *)
  fo_torn : int;  (** markerless transactions discarded at promotion *)
  fo_probe_commits : int;  (** successful post-promotion probe commits *)
}

type t

val create :
  ?obs:Obs.Sink.t ->
  Sim.Des.t ->
  clock:Sim.Clock.t ->
  replica:Replica.t ->
  detector:Failure_detector.t ->
  unit ->
  t
(** Wires the detector's suspect edge to promotion, which runs 8 probe
    commits on the promoted engine. *)

val note_primary_crash : t -> unit
(** Stamp the crash time (the injector calls this at [crash_at_us]) so
    RTO measures from the actual failure, not its detection. *)

val promote : t -> outcome
(** Promote now (idempotent; normally driven by the detector). *)

val outcome : t -> outcome option
val promoted : t -> bool
