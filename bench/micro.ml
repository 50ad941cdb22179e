(* Host-side event-queue steady state: the real OCaml cost of the DES's
   hottest structure, production flat heap vs boxed reference heap, timed
   by hand.  The DES's rhythm at a fixed backlog: each step pops the
   minimum and pushes a replacement a little ahead of the cursor, so the
   queue holds [depth] events throughout.  The depths are the simulator's
   high-water marks (18 on [mixed], 44 on [shard] and 266 in the 32-shard
   cluster) and two deep backlogs; the perf experiment prints these and
   records them as [info_] fields in its JSON report. *)

let queue_depths = [ 16; 44; 266; 1_000; 100_000 ]

let steady_rate_ns ~depth ~iters ~push ~pop =
  let tick = ref 0 in
  let step = 17 in
  for _ = 1 to depth do
    tick := !tick + step;
    push !tick
  done;
  for _ = 1 to 10_000 do
    (* warm-up: reach steady state before the timed window *)
    tick := !tick + step;
    push !tick;
    pop ()
  done;
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    tick := !tick + step;
    push !tick;
    pop ()
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters

let heap_rate ~depth ~iters =
  let q = Sim.Event_queue.create () in
  steady_rate_ns ~depth ~iters
    ~push:(fun t -> Sim.Event_queue.push_int q ~time:t ())
    ~pop:(fun () -> ignore (Sim.Event_queue.pop_exn_int q))

let ref_rate ~depth ~iters =
  let q = Sim.Event_queue_ref.create () in
  steady_rate_ns ~depth ~iters
    ~push:(fun t -> Sim.Event_queue_ref.push q ~time:(Int64.of_int t) ())
    ~pop:(fun () -> ignore (Sim.Event_queue_ref.pop_exn q))

(* [(depth, heap ns, reference ns)] for each of [queue_depths]. *)
let queue_rates () =
  let iters = 1_000_000 in
  List.map
    (fun depth -> (depth, heap_rate ~depth ~iters, ref_rate ~depth ~iters))
    queue_depths
