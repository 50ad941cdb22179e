(** Simulated persistent log device with an explicit cycle-cost model.

    One flush costs [setup + bytes * per_byte], floored at the fsync
    latency — the floor dominates for small group-commit batches (an
    NVMe-class sync write is a few µs no matter how little is written),
    the bandwidth term for large ones.  The device serializes flushes:
    a submission while busy queues behind the flush in progress, which is
    how the group-commit daemon pipelines (at most one flush in flight,
    the next batch accumulating meanwhile). *)

type t

val create :
  ?setup_cycles:int ->
  ?per_byte_cycles_x100:int ->
  ?fsync_floor_cycles:int64 ->
  unit ->
  t
(** Defaults: 1200-cycle setup (0.5 µs at 2.4 GHz), 0.60 cycles/byte
    (≈ 4 GB/s), 9600-cycle fsync floor (4 µs).
    @raise Invalid_argument on negative parameters. *)

val submit : t -> now:int64 -> bytes:int -> int64
(** Start a flush at [max now busy_until], where [busy_until] is the
    previous flush's completion time; returns this flush's completion time.
    A flush of [bytes] takes [max fsync_floor (setup + bytes * per_byte)]
    cycles. *)

val fsync_floor : t -> int
(** The fsync floor in cycles: no flush completes sooner after its
    submission, so it bounds how soon a commit's step can reach a worker
    parked on the log ({!Uintr.Fabric.register_path}). *)

val flushes : t -> int
val bytes_written : t -> int64
val busy_cycles : t -> int64
(** Total cycles the device spent writing. *)
