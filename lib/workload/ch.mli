(** CH-benCHmark-style analytical queries over the live TPC-C schema.

    Unlike Q2 (which reads the separate TPC-H tables), these reporting
    queries scan the very tables NewOrder/Payment/Delivery mutate —
    the paper's HTAP motivation in its sharpest form: a preempted
    analytical scan is paused {e over data being written}, and snapshot
    isolation is what makes that pause safe (§1.2, observation 1).

    Queries emit a {!Program.yield_hint} every 256 scanned rows, so the
    handcrafted cooperative baseline can be tuned for them too. *)

type kind =
  | Q1
      (** Pricing summary: full order-line scan, grouped by line number,
          delivered lines only. *)
  | Q4
      (** Order-priority count: for orders in an id window, count those
          with at least one late line (semi-join orders ⋉ order_line). *)
  | Q6  (** Revenue-change forecast: filtered sum over the full order-line scan. *)

val kind_to_string : kind -> string

val random_kind : Sim.Rng.t -> kind

(** Results, exposed for oracle tests. *)

type q1_row = {
  ol_number : int;
  sum_qty : int;
  sum_amount : float;
  count_lines : int;
}

val q1_collect : Tpcc_db.t -> (q1_row list -> unit) -> Program.t

val q6_collect : Tpcc_db.t -> (float -> unit) -> Program.t

val program : Tpcc_db.t -> kind -> Program.t
