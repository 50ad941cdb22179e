(** Minimal JSON tree, printer and parser.

    The toolchain has no JSON library baked in, so the observability layer
    carries its own: enough of RFC 8259 to serialize traces/metrics and to
    parse them back in tests (golden-file validation).  Not a streaming
    parser; inputs are whole documents held in memory. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?minify:bool -> t -> string
(** Serialize.  [minify] (default [true]) drops all whitespace; otherwise
    objects and arrays are broken over indented lines.  Floats are printed
    with enough digits to round-trip; NaN/infinity become [null] (JSON has
    no encoding for them). *)

val to_channel : ?minify:bool -> out_channel -> t -> unit

val parse : string -> (t, string) result
(** Parse a complete document.  Numbers without [.]/[e] that fit an OCaml
    [int] become [Int], everything else [Float].  On error, returns a
    message with the byte offset. *)

(** {1 Accessors} — total, for walking parsed documents in tests. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] for missing fields or non-objects. *)

val to_list_opt : t -> t list option
val to_int_opt : t -> int option
(** Also accepts integral [Float]s. *)

val to_float_opt : t -> float option
val to_string_opt : t -> string option

val equal : t -> t -> bool
(** Structural; object field order is significant. *)
