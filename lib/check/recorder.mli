(** Decision-trace recorder: a 64-bit FNV-1a hash over every scheduling
    decision the simulation makes, plus counters and a bounded verbatim
    sample for the repro JSON.

    The hash folds, in order: every DES event dispatch (sequence number and
    virtual time), every uintr delivery latency, every context switch, and
    every commit (txn id and timestamp).  Two runs of the same
    {!Schedule.t} are byte-for-byte deterministic, so equal hashes mean the
    replay reproduced the schedule exactly — and a hash mismatch localizes
    nondeterminism to the first diverging decision. *)

type t

val create : unit -> t

val on_des_event : t -> time:int64 -> seq:int -> unit
val on_delivery : t -> flow:int -> latency:int -> unit
val on_switch : t -> Uintr.Hw_thread.switch_record -> unit
val on_commit : t -> id:int -> commit_ts:int64 -> unit
val on_forced : t -> int -> unit
(** A forced preemption point fired at this global op index. *)

val hash : t -> int64
val hash_hex : t -> string

val des_events : t -> int
val switches : t -> int
val commits : t -> int
val forced : t -> int list
(** Fired forced points, in firing order. *)

val sample : t -> string list
(** First decisions, verbatim, for human inspection of a reproducer. *)
