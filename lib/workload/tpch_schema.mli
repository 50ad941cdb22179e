(** TPC-H subset schema for Q2: region, nation, supplier, part, partsupp.

    Scaled so that one Q2 execution costs a few million cycles (≈ 1–2 ms at
    2.4 GHz), matching the paper's Q2 latency (§6: ~1.7 ms service time,
    3.6 ms p99 under Wait at 16 workers). *)

type config = {
  regions : int;  (** 5 *)
  nations : int;  (** 25 *)
  suppliers : int;
  parts : int;
  ps_per_part : int;  (** partsupp entries per part (spec: 4) *)
  sizes : int;  (** distinct p_size values *)
  types : int;  (** distinct p_type values *)
}

val default : config
(** 5 regions, 25 nations, 1000 suppliers, 14 000 parts, 4 partsupp each,
    10 sizes, 20 types — one Q2 ≈ 1.8 ms at 2.4 GHz, matching the paper's
    Q2-longer-than-arrival-interval regime. *)

val small : config
(** Test preset: 400 parts, 100 suppliers. *)

val validate : config -> unit

val partsupp_key : p:int -> s:int -> int
val partsupp_bounds : p:int -> int * int

module R : sig
  val id : int
  val name : int
  val width : int
end

module N : sig
  val id : int
  val r_id : int
  val name : int
  val width : int
end

module Su : sig
  val id : int
  val n_id : int
  val name : int
  val acctbal : int
  val width : int
end

module Pa : sig
  val id : int
  val mfgr : int
  val type_ : int  (* stored as the type's integer code *)
  val size : int
  val width : int
end

module Ps : sig
  val p_id : int
  val s_id : int
  val supplycost : int
  val width : int
end
