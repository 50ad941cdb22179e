(** The five TPC-C transactions as resumable {!Program}s.

    The paper uses NewOrder and Payment as the short, high-priority
    transactions of the mixed workload (§6.1) and the full five-transaction
    mix for the overhead experiment (Fig. 8).  Programs draw their inputs
    from the request's RNG stream ([env.rng]); the home warehouse is fixed
    at dispatch time (one warehouse per worker, as in the paper). *)

type kind = New_order | Payment | Order_status | Delivery | Stock_level

val kind_to_string : kind -> string

val standard_mix : Sim.Rng.t -> kind
(** Spec §5.2.3 weights: 45 % NewOrder, 43 % Payment, 4 % each of the
    rest. *)

val program : Tpcc_db.t -> kind -> home_w:int -> Program.t
(** Build one transaction instance.  [home_w] in [\[1, warehouses\]]. *)

val new_order : Tpcc_db.t -> home_w:int -> Program.t
val payment : Tpcc_db.t -> home_w:int -> Program.t
val stock_level : Tpcc_db.t -> home_w:int -> Program.t

val balance_check : Tpcc_db.t -> home_w:int -> Program.t
(** Minimal read-only lookup (one customer's balance) — the µs-scale
    "urgent" transaction used by the multi-level-priority extension. *)
