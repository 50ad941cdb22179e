(** One transaction request flowing through the scheduler. *)

type priority =
  | Low
  | High
  | Urgent
      (** third level for the multi-level extension (§5 "Discussions"):
          urgent transactions may preempt in-progress [High] ones *)

val priority_to_string : priority -> string

val rank : priority -> int
(** [Low] = 0, [High] = 1, [Urgent] = 2; a worker runs a level-[r] request
    on context [r]. *)

type t = {
  id : int;
  label : string;  (** metrics class, e.g. "NewOrder", "Q2" *)
  priority : priority;
  maintenance : bool;
      (** background maintenance work (GC chunks): preemptions landing on
          it are counted separately, and it is generated by the scheduler
          itself rather than a workload stream.  {!make} defaults it to
          [false]; maintenance generators flip it with a record update. *)
  prog : Workload.Program.t;
  rng : Sim.Rng.t;  (** private random stream for the program's inputs *)
  submitted_at : int64;  (** generation time (virtual) *)
  mutable started_at : int64 option;  (** first micro-op *)
  mutable finished_at : int64 option;
  mutable outcome : Workload.Program.outcome option;
  mutable preemptions : int;  (** passive switches that paused it *)
}

val make :
  id:int ->
  label:string ->
  priority:priority ->
  prog:Workload.Program.t ->
  rng:Sim.Rng.t ->
  submitted_at:int64 ->
  t

val scheduling_latency : t -> int64 option
(** started − submitted. *)

val end_to_end_latency : t -> int64 option
(** finished − submitted. *)

val committed : t -> bool
