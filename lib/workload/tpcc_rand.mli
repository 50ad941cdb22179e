(** TPC-C random-input helpers (TPC-C spec §2.1.5–2.1.6, §4.3.2).

    [NURand(A, x, y) = (((random(0,A) | random(x,y)) + C) % (y - x + 1)) + x]
    is the non-uniform distribution used to pick customer ids, item ids
    and last names, with a run constant [C] per use; [c_last] builds the
    syllable-based last names. *)

val customer_id_scaled : Sim.Rng.t -> customers:int -> int
(** NURand(1023, 1, customers): the spec's customer-id rule, over
    [customers] per district. *)

val item_id_scaled : Sim.Rng.t -> items:int -> int
(** NURand(8191, 1, items). *)

val c_last : int -> string
(** [c_last n] for [n] in [\[0, 999\]]: the spec's syllable concatenation. *)

val random_c_last : Sim.Rng.t -> string
(** A last name per the spec's NURand(255, 0, 999) run-time rule. *)
