(** One check grid: the crash-survival, failover and 2PC-atomicity oracles
    as presets of a single runner.

    A preset is a list of cells plus the armed bug its oracle must catch.
    A cell runs one {!Crash.run}, {!Failover.run} or {!Atomic.run} and
    reduces it to a label, a figures string and its violations.  {!run}
    prints every cell, the self-test line and one verdict line per preset,
    and returns one status for the whole grid, so the presets combine in
    one invocation. *)

type cell = {
  label : string;  (** e.g. ["crash@2000us seed=42"] *)
  figures : string;  (** printed after the label, e.g. ["durable=303 ... violations=0"] *)
  violations : Violation.t list;  (** empty = the cell passed *)
}

type preset = {
  name : string;  (** verdict-line tag, e.g. ["durability"] *)
  cells : (unit -> cell) list;  (** run in order, one line each *)
  bug : string;  (** the armed bug, e.g. ["early-ack"] *)
  armed : (unit -> Violation.t list) list;
      (** runs with the bug armed, tried in order until one reports a
          violation; the preset fails when none does *)
}

val durability : budget:int -> seed:int -> workers:int -> preset
(** [budget] crash points from 2 to 8 ms over a slow group-commit device
    ({!Crash.run}); the armed bug is the daemon's early ack. *)

val failover : budget:int -> seed:int -> workers:int -> preset
(** [max 10 (budget / 2)] primary-crash points × {async, semi-sync}
    ({!Failover.run}); a semi-sync cell that lost an acked commit fails
    with an [RPO VIOLATION] marker.  The armed bug is the early ack under
    semi-sync. *)

val shards : budget:int -> seed:int -> workers:int -> preset
(** A clean run, then [max 2 (budget / 4)] crash instants × {coordinator,
    participant} ({!Atomic.run}); the armed bug is the early vote, tried
    at up to eight instants under all-cross traffic. *)

val run : preset list -> bool
(** Run every preset in order.  Per preset: each cell's
    [label: figures] line (and the first five violations of a failing
    cell), [<bug> self-test: caught (oracle works)] or
    [NOT CAUGHT (oracle bug)], and [<name>: PASS|FAIL — <n> cells, <m>
    failing].  True iff every cell passed and every armed bug was
    caught. *)
