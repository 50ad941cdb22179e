(** Transaction control block (§4.2).

    A TCB owns one transaction context: its private stack, its CLS area, and
    the register state saved when the context is suspended.  It is the
    userspace analogue of an OS process control block. *)

type state =
  | Free  (** no transaction bound; may be recycled *)
  | Ready  (** a transaction is bound but has not started *)
  | Running  (** currently executing on the hardware thread *)
  | Paused  (** suspended with its state saved on its own stack *)

type t = {
  id : int;
  stack : Stack_model.t;
  cls : Cls.area;
  mutable state : state;
  mutable rip : int;  (** abstract program counter: next micro-op index *)
  mutable rflags : int;
  mutable gprs : int;
  mutable xstate : int;
}

val create : ?stack_size:int -> id:int -> unit -> t

val snapshot : t -> Frame.t
(** Capture the current register state as a frame (rsp from the stack). *)

val restore : t -> Frame.t -> unit
(** Load register state from a frame (rsp back into the stack). *)

val recycle : t -> unit
(** Return the TCB to [Free]: registers reset; the stack must hold no
    frames.  The CLS area survives (it models the stolen pthread's TLS
    block, which lives as long as the thread).
    @raise Invalid_argument if frames remain. *)

val pp : Format.formatter -> t -> unit
