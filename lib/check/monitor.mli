(** Online context-switch oracle: TCB/stack-model integrity and
    non-preemptible-region discipline, checked on every switch.

    The monitor hooks every worker's {!Uintr.Hw_thread.set_switch_monitor}
    and verifies, per switch:
    - {e region discipline}: no switch departs a context whose CLS lock
      counter is nonzero (when regions are enabled);
    - {e TCB integrity}: a context suspended at instruction pointer [rip]
      resumes at exactly that [rip] with a restored uintr frame; a fresh
      context never restores a frame; a retiring context leaves no
      suspended frame behind;
    - {e CLS consistency}: the fs/gs mapping matches the current context
      after the switch. *)

type t

val create : unit -> t
(** At most 200 violations are recorded; excess ones still count but only
    increment {!dropped}. *)

val install :
  t ->
  regions_enabled:bool ->
  ?tee:(Uintr.Hw_thread.switch_record -> unit) ->
  Preemptdb.Worker.t array ->
  unit
(** Install the oracle on every worker.  [tee] additionally receives every
    raw switch record (the harness feeds the trace recorder with it). *)

val uninstall : Preemptdb.Worker.t array -> unit

val violations : t -> Violation.t list
val dropped : t -> int
val switches : t -> int
val passive : t -> int
