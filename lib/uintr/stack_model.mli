(** Per-context stack model.

    Tracks the stack pointer of a transaction context and the frames pushed
    onto it, enforcing the System V AMD64 red zone: a user-interrupt frame
    must land {e below} the 128 bytes under RSP (Figure 4), and the active
    switch's saved-RIP scratch word also lives at [-128(%rsp)]
    (Algorithm 2, line 8). *)

type t

exception Overflow of string

val red_zone_bytes : int
(** 128, per the ABI. *)

val create : ?size:int -> id:int -> unit -> t
(** Fresh descending stack of [size] bytes (default 64 KiB). *)

val id : t -> int
val sp : t -> int
(** Current stack-pointer offset (bytes from the top; grows downward, so a
    larger consumed amount means a smaller remaining offset). *)

val set_sp : t -> int -> unit

val push_frame : t -> Frame.t -> unit
(** Push a uintr frame, skipping the red zone.
    @raise Overflow when the frame does not fit. *)

val pop_frame : t -> Frame.t
(** Pop the most recent frame and restore the pre-interrupt stack pointer.
    @raise Invalid_argument when no frame is on this stack. *)

val top_frame : t -> Frame.t option

val frame_depth : t -> int

val scratch_write : t -> int -> unit
(** Model Algorithm 2's red-zone-bypassing scratch store of the saved RIP at
    a fixed offset below RSP.  @raise Overflow when out of space. *)

val scratch_read : t -> int
(** @raise Invalid_argument when nothing was written. *)
