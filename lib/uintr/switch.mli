(** Context switching between transaction contexts of one hardware thread
    (§4.2, Figures 4 and 6, Algorithms 1 and 2).

    Two directions:
    - {e passive}: a user interrupt was recognized; the handler saves the
      interrupted context, swaps the CLS mapping, moves the stack pointer to
      the preemptive context and [uiret]s into it;
    - {e active}: a context voluntarily swaps back ([swap_context]), made
      atomic by [clui]/[stui] plus the instruction-pointer window check.

    Every operation returns the cycles it consumed so the executor can
    charge them to virtual time. *)

type outcome =
  | Switched of int
      (** the switch happened; the given number of cycles was consumed *)
  | Rejected_region of int
      (** the current context is inside a non-preemptible region: the
          handler returned to it without switching (the interrupt is
          dropped; §4.4) *)
  | Rejected_window of int
      (** the interrupted RIP was inside the
          [.swap_context_start .. .swap_context_end] window: the handler
          [uiret]s immediately without touching the stack (Algorithm 1,
          lines 2–6) *)

val passive_switch : ?honor_regions:bool -> ?now:int64 -> Hw_thread.t -> target:int -> outcome
(** Run the user-interrupt handler on [t], attempting to preempt the current
    context in favor of context [target].  Must be called only after
    [Receiver.recognize] returned [true] (UIF is clear).  On [Switched] the
    interrupted context is [Paused] with its frame on its own stack, the
    target is [Running], the CLS mapping follows, and UIF is set again by
    [uiret].  On rejection the current context keeps running (UIF also
    restored by [uiret]).  [~honor_regions:false] (default [true]) makes
    the handler ignore the non-preemptible lock counter — the §4.4
    deadlock-ablation mode.  [now] (virtual cycles) stamps the emitted
    observability event, if the thread carries a sink.
    @raise Invalid_argument if [target] is the current context. *)

val active_switch : ?retire:bool -> ?now:int64 -> Hw_thread.t -> target:int -> int
(** Voluntary [swap_context] to [target]; returns cycles consumed.  With
    [~retire:true] (default [false]) the departing context is recycled to
    [Free] instead of being saved — used when its transaction batch is done.
    A paused target resumes from its saved frame; a fresh target starts at
    its current [rip].
    @raise Invalid_argument if [target] is the current context. *)
