(** One check grid: schedule exploration and the crash-survival, failover
    and 2PC-atomicity oracles as presets of a single runner.

    A preset is a sequence of cells plus the armed bug its oracle must
    catch.  A cell runs one {!Harness.run}, {!Crash.run}, {!Failover.run}
    or {!Atomic.run} and reduces it to a label, a figures string and its
    violations.  {!run} returns one status for any list of presets.

    [budget] (positive) is the number of points on a preset's varying
    axis: schedules ({!fuzz}), single-point placements ({!exhaustive}),
    crash instants ({!durability}; {!failover} × 2 modes; {!shards} × 2
    roles, after a clean run). *)

type cell = {
  label : string;  (** e.g. ["crash@2000us seed=42"] *)
  figures : string;  (** printed after the label, e.g. ["durable=303 ... violations=0"] *)
  violations : Violation.t list;  (** empty = the cell passed *)
  schedule_run : Harness.run option;
      (** a schedule cell's run, shrunk into the reproducer if it is its
          preset's first failing cell; [None] for crash cells *)
}

type preset = {
  name : string;  (** verdict-line tag, e.g. ["durability"] *)
  cells : (unit -> cell) Seq.t;  (** run in order, one line each *)
  bug : string;  (** the armed bug, e.g. ["early-ack"] *)
  armed : (unit -> Violation.t list) list;
      (** runs with the bug armed, tried in order until one reports a
          violation (one that raises reports an [exception] violation);
          the preset fails when none does *)
}

val fuzz :
  ?fault:Storage.Engine.fault ->
  ?plan:Faults.Plan.t ->
  ?reclaim:bool ->
  budget:int ->
  base:Schedule.t ->
  unit ->
  preset
(** [budget] schedules of the TPC-C mix under [fault], [plan] and
    [reclaim]: [base], then perturbations derived from it by an RNG
    seeded from its seed (fresh seeds, jitter from 0 to 150 %, periodic
    forced-preemption trains).  A cell is labelled by its schedule, with
    its commits, forced points fired and trace hash as figures.  The
    first cell runs twice and fails unless both reports are
    byte-identical; the last is the contended-counter [Harness.Selftest]
    workload on [base], clean.  The armed bug ([lost-update]) is
    [Skip_write_lock] on that workload under [plan], tried on the same
    schedules. *)

val exhaustive :
  ?fault:Storage.Engine.fault ->
  ?plan:Faults.Plan.t ->
  ?reclaim:bool ->
  budget:int ->
  base:Schedule.t ->
  unit ->
  preset
(** A pilot run of [base] without forced points (the cell that runs
    twice) counts the micro-op boundaries; unless it failed, one cell
    per point, up to [budget] points strided evenly over them, forces a
    single preemption there.  Cells, self-test and armed bug as in
    {!fuzz}. *)

val durability : budget:int -> seed:int -> workers:int -> preset
(** [budget] crash points from 2 to 8 ms over a slow group-commit device
    ({!Crash.run}); the armed bug is the daemon's early ack. *)

val failover : budget:int -> seed:int -> workers:int -> preset
(** [budget] primary-crash points × {async, semi-sync}
    ({!Failover.run}); a semi-sync cell that lost an acked commit fails
    with an [RPO VIOLATION] marker.  The armed bug is the early ack under
    semi-sync. *)

val shards : budget:int -> seed:int -> workers:int -> preset
(** A clean run, then [budget] crash instants × {coordinator,
    participant} ({!Atomic.run}); the armed bug is the early vote, tried
    at up to eight instants under all-cross traffic. *)

val run : ?out:string -> preset list -> bool
(** Run every preset in order.  Per preset: each cell's
    [label: figures] line (and the first five violations of a failing
    cell); with [out], the first failing schedule cell shrunk
    ({!Shrink.minimize}), replayed ({!Harness.replay}) and its report
    written to [out]; [<bug> self-test: caught (oracle works)] or
    [NOT CAUGHT (oracle bug)]; and [<name>: PASS|FAIL — <n> cells, <m>
    failing].  A schedule whose run raises is a failing schedule cell
    ({!Harness.run}); any other cell that raises fails with an
    [exception] violation and no run, and the grid goes on.  True iff
    every cell passed and every armed bug was caught. *)
