(** Model of the user-interrupt stack frame (§2.3, Figure 4).

    On delivery the CPU pushes RIP, RFLAGS and RSP of the paused code; the
    handler additionally saves caller- and callee-saved GPRs and the extended
    (FP/SIMD) state via [xsave].  We carry the paused context's abstract
    program counter and an opaque register snapshot so tests can verify that
    switches restore state bit-for-bit. *)

type t = {
  rip : int;  (** abstract program counter: index of the next micro-op *)
  rsp : int;  (** stack-pointer offset at interruption *)
  rflags : int;
  gprs : int;  (** opaque digest standing in for the 16 general registers *)
  xstate : int;  (** opaque digest standing in for xsave'd extended state *)
}

val bytes : int
(** On-stack footprint of a full frame (uintr frame + GPR spill + xsave
    area), used by the stack model to check for overflow. *)

val make : rip:int -> rsp:int -> rflags:int -> gprs:int -> xstate:int -> t

val pp : Format.formatter -> t -> unit
