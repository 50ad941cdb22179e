(** Row values.

    A record version's payload is a fixed row of typed fields.  The engine
    never interprets fields; workloads build and read them positionally
    (benchmark code calls the storage interfaces directly, as in the paper's
    setup — no SQL layer).

    A row is flat, like ERMIA's byte tuples: one block holding one word per
    field — the immediate int of an [Int], one boxed double for a [Float],
    the string itself for a [Str].  The words' runtime tags tell the kinds
    apart, so a row of [n] fields costs [n + 1] words plus its doubles and
    strings.  {!field} is only a view for building rows and for the few
    readers that walk fields generically (the log's JSON form). *)

type field =
  | Int of int
  | Float of float
  | Str of string

type t

val of_fields : field array -> t
(** A row holding [fields] in order.  Shares the strings and doubles. *)

val length : t -> int
(** Number of fields. *)

val get : t -> int -> field
(** [get row i] views field [i]; allocates the [field].
    @raise Invalid_argument when [i] is out of bounds. *)

val int_exn : t -> int -> int
(** [int_exn row i] reads field [i] as an [Int], without allocating.
    @raise Invalid_argument on a kind or bounds mismatch; a kind mismatch
    names the field's kind. *)

val float_exn : t -> int -> float
val str_exn : t -> int -> string

val set : t -> int -> field -> t
(** Functional update: a copy of the row with field [i] replaced. *)

val add_int : t -> int -> int -> t
(** [add_int row i delta]: functional increment of an [Int] field. *)

val add_float : t -> int -> float -> t

val equal : t -> t -> bool
(** Same length and, field by field, same kind and value ([Float]s by
    [Float.equal]).  Allocates nothing. *)

val size_bytes : t -> int
(** Approximate in-memory payload size, used for log-record sizing: 8 for
    the row, 8 per field, plus each string's length.  Allocates nothing. *)
