let lock_counter = Cls.slot ~name:"nonpreemptible_lock_counter" ~init:(fun () -> 0)

(* The one implementation of the counter: every region, whether a
   program opens it on its own context's area or a test on a hardware
   thread's mapped context, goes through these two. *)
let enter_area cls = Cls.set cls lock_counter (Cls.get cls lock_counter + 1)

let exit_area cls =
  let d = Cls.get cls lock_counter in
  if d <= 0 then invalid_arg "Region.exit: not inside a non-preemptible region";
  Cls.set cls lock_counter (d - 1)

let within cls f =
  enter_area cls;
  match f () with
  | v ->
    exit_area cls;
    v
  | exception e ->
    exit_area cls;
    raise e

let depth t = Cls.get (Hw_thread.current_cls t) lock_counter
let enter t = enter_area (Hw_thread.current_cls t)
let exit t = exit_area (Hw_thread.current_cls t)
let in_region t = depth t > 0
let with_region t f = within (Hw_thread.current_cls t) f
