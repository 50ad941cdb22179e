(** One oracle violation: which oracle fired and a human-readable account
    of the evidence.  Violations are data — the check grid reports them,
    the shrinker minimizes schedules that produce them, and the repro JSON
    embeds them. *)

type t = {
  oracle : string;  (** e.g. ["serializability"], ["tcb"], ["tpcc"] *)
  detail : string;
}

val make : string -> ('a, Format.formatter, unit, t) format4 -> 'a
(** [make oracle fmt ...] formats the detail eagerly. *)

val to_string : t -> string
val to_json : t -> Obs.Json.t
