(** A perturbed-schedule specification.

    A schedule is everything the check grid varies between runs of the same
    workload: the master seed, the uintr delivery-latency jitter, and a set
    of {e forced preemption points} — global micro-op boundary indices at
    which an interrupt is posted directly to the executing worker's
    receiver, so the very next boundary's recognition check fires it
    through the production path.  Runs are otherwise fully deterministic,
    so a schedule value {e is} the reproducer: replaying it yields a
    bit-identical decision trace (see {!Recorder}). *)

type forced =
  | Every of { period : int; phase : int }
      (** force at every boundary [n] with [n mod period = phase] *)
  | At of int list  (** force at exactly these boundary indices *)

type t = {
  seed : int64;  (** master seed: DES, workload generators, request streams *)
  workers : int;
  horizon_us : float;  (** virtual run length *)
  arrival_us : float;  (** scheduling-thread tick interval *)
  jitter_pct : int;
      (** delivery-latency jitter as a percentage spread around the
          nominal cost; [0] pins every delivery to the nominal latency *)
  forced : forced option;
}

val default : t
(** 2 workers, 3 ms virtual horizon, 25 µs arrivals, 20% jitter, no forced
    points — a small TPC-C mix exercising real preemption traffic. *)

val describe : t -> string
(** One-line summary for logs and progress output. *)

val to_json : t -> Obs.Json.t
val of_json : Obs.Json.t -> (t, string) result
