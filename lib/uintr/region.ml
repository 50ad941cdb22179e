let lock_counter = Cls.slot ~name:"nonpreemptible_lock_counter" ~init:(fun () -> 0)

let exit_area cls =
  let d = Cls.get cls lock_counter in
  if d <= 0 then invalid_arg "Region.within: the body left the region unbalanced";
  Cls.set cls lock_counter (d - 1)

let within cls f =
  Cls.set cls lock_counter (Cls.get cls lock_counter + 1);
  match f () with
  | v ->
    exit_area cls;
    v
  | exception e ->
    exit_area cls;
    raise e

let depth t = Cls.get (Hw_thread.current_cls t) lock_counter
let in_region t = depth t > 0
