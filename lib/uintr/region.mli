(** Nested non-preemptible regions (§4.4).

    Latched code (index operations, allocator calls, OCC validation,
    commit/abort) must not be preempted or two contexts of one thread could
    deadlock on a latch.  The mechanism is a {e context-local} lock counter:
    {!within} bumps it with no synchronization, and the interrupt handler
    returns without switching while it is non-zero. *)

val lock_counter : int Cls.slot
(** The CLS variable holding the nesting depth.  Exposed so tests can
    inspect it through the generic CLS interface. *)

val within : Cls.area -> (unit -> 'a) -> 'a
(** [within cls f] runs [f] inside a region opened on the context whose
    CLS area is [cls], exiting on any exception: the one way to open a
    region.  A transaction program opens it on its own context's area; a
    test on a hardware thread's mapped one ({!Hw_thread.current_cls}).
    @raise Invalid_argument if [f] leaves the region unbalanced. *)

val depth : Hw_thread.t -> int
(** Nesting depth of the {e currently mapped} context. *)

val in_region : Hw_thread.t -> bool
