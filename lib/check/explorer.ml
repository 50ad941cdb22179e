type outcome = {
  explored : int;
  total_commits : int;
  total_forced : int;
  failing : int;
  first_failure : Harness.run option;
}

let jitters = [| 0; 5; 10; 20; 50; 150 |]
let periods = [| 13; 47; 101; 397 |]

let derive (base : Schedule.t) rng =
  let seed = Sim.Rng.next_int64 rng in
  let jitter_pct = jitters.(Sim.Rng.int rng (Array.length jitters)) in
  let forced =
    match Sim.Rng.int rng 3 with
    | 0 -> None
    | 1 ->
      Some
        (Schedule.Every
           { period = periods.(Sim.Rng.int rng (Array.length periods)); phase = Sim.Rng.int rng 13 })
    | _ -> Some (Schedule.Every { period = 1 + Sim.Rng.int rng 1000; phase = 0 })
  in
  { base with Schedule.seed; jitter_pct; forced }

let explore ?fault ?plan ?reclaim ?workload schedules =
  let explored = ref 0 in
  let total_commits = ref 0 in
  let total_forced = ref 0 in
  let failing = ref 0 in
  let first_failure = ref None in
  (try
     List.iter
       (fun s ->
         let r = Harness.run ?fault ?plan ?reclaim ?workload s in
         incr explored;
         total_commits := !total_commits + r.Harness.commits;
         total_forced := !total_forced + List.length r.Harness.forced_fired;
         if Harness.failed r then begin
           incr failing;
           first_failure := Some r;
           raise Exit
         end)
       schedules
   with Exit -> ());
  {
    explored = !explored;
    total_commits = !total_commits;
    total_forced = !total_forced;
    failing = !failing;
    first_failure = !first_failure;
  }

let fuzz ?fault ?plan ?reclaim ?workload ~budget ~base () =
  let rng = Sim.Rng.create (Int64.logxor base.Schedule.seed 0xbb67ae8584caa73bL) in
  let schedules =
    List.init (max 1 budget) (fun i -> if i = 0 then base else derive base rng)
  in
  explore ?fault ?plan ?reclaim ?workload schedules

let exhaustive ?fault ?plan ?reclaim ?workload ~budget ~base () =
  let pilot =
    Harness.run ?fault ?plan ?reclaim ?workload { base with Schedule.forced = None }
  in
  if Harness.failed pilot then
    {
      explored = 1;
      total_commits = pilot.Harness.commits;
      total_forced = 0;
      failing = 1;
      first_failure = Some pilot;
    }
  else begin
    let ops = max 1 pilot.Harness.ops in
    let budget = max 1 budget in
    let stride = max 1 ((ops + budget - 1) / budget) in
    let n_points = (ops + stride - 1) / stride in
    let schedules =
      List.init n_points (fun i ->
          { base with Schedule.forced = Some (Schedule.At [ i * stride ]) })
    in
    let o = explore ?fault ?plan ?reclaim ?workload schedules in
    {
      o with
      explored = o.explored + 1;
      total_commits = o.total_commits + pilot.Harness.commits;
    }
  end

let replay (r : Harness.run) =
  let again =
    Harness.run ?fault:r.Harness.fault ?plan:r.Harness.plan ~reclaim:r.Harness.reclaim
      ~workload:r.Harness.workload r.Harness.schedule
  in
  if Int64.equal again.Harness.trace_hash r.Harness.trace_hash then Ok ()
  else
    Error
      (Printf.sprintf "trace hash diverged: recorded %s, replayed %s (%d vs %d DES events)"
         r.Harness.hash_hex again.Harness.hash_hex r.Harness.des_events
         again.Harness.des_events)
