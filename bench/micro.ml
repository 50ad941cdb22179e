(* Host-side microbenchmarks (Bechamel): the real OCaml cost of the hot
   paths — version-chain reads, B+tree probes, context-switch bookkeeping,
   histogram recording.  These measure the simulator itself, not virtual
   time; they guard against the simulator becoming the bottleneck. *)

open Bechamel
open Toolkit

let make_btree n =
  let t = Storage.Btree.Int_tree.create () in
  for i = 0 to n - 1 do
    ignore (Storage.Btree.Int_tree.insert t i i)
  done;
  t

let make_chain n =
  let rec build i next =
    if i = 0 then next
    else
      let v = Storage.Version.committed ~ts:(Int64.of_int (i * 10)) (Some (Storage.Value.of_fields [| Storage.Value.Int i |])) in
      v.Storage.Version.next <- next;
      build (i - 1) v
  in
  build n Storage.Version.nil

(* -- event-queue steady state: production heap vs reference heap -----------
   The DES's rhythm at a fixed backlog: each step pops the minimum and
   pushes a replacement a little ahead of the cursor, so the queue holds
   [depth] events throughout.  Measured for the production flat heap and
   the boxed reference heap at the depths the simulator runs (its
   high-water marks are 18 on [mixed], 44 on [shard] and 266 in the
   32-shard cluster) and at two deep backlogs; the perf experiment prints these and records them as
   [info_] fields in its JSON report. *)

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

let tests () =
  let tree = make_btree 100_000 in
  let chain = make_chain 16 in
  let hist = Sim.Histogram.create () in
  let rng = Sim.Rng.create 1L in
  let hw = Uintr.Hw_thread.create ~id:0 ~costs:Uintr.Costs.default () in
  (Uintr.Hw_thread.context hw 0).Uintr.Tcb.state <- Uintr.Tcb.Running;
  let recv = Uintr.Hw_thread.receiver hw in
  let eq = Sim.Event_queue.create () in
  (* prefilled steady-state queues: each closure pops one and pushes one *)
  let steady name depth ~push ~pop =
    let t = ref 0 in
    for _ = 1 to depth do
      t := !t + 17;
      push !t
    done;
    Test.make ~name:(Printf.sprintf "%s-steady-%d" name depth) (Staged.stage (fun () ->
        t := !t + 17;
        push !t;
        pop ()))
  in
  let steady_queues =
    List.concat_map
      (fun depth ->
        let q = Sim.Event_queue.create () and r = Sim.Event_queue_ref.create () in
        [
          steady "eq-heap" depth
            ~push:(fun t -> Sim.Event_queue.push_int q ~time:t ())
            ~pop:(fun () -> ignore (Sim.Event_queue.pop_exn_int q));
          steady "eq-ref" depth
            ~push:(fun t -> Sim.Event_queue_ref.push r ~time:(Int64.of_int t) ())
            ~pop:(fun () -> ignore (Sim.Event_queue_ref.pop_exn r));
        ])
      queue_depths
  in
  [
    Test.make ~name:"btree-probe-100k" (Staged.stage (fun () -> Storage.Btree.Int_tree.find tree 55_555));
    Test.make ~name:"version-chain-read-16" (Staged.stage (fun () ->
        Storage.Version.snapshot_read chain ~snapshot:80L ~reader:0));
    Test.make ~name:"histogram-record" (Staged.stage (fun () -> Sim.Histogram.record hist 12345L));
    Test.make ~name:"rng-next" (Staged.stage (fun () -> Sim.Rng.next_int64 rng));
    Test.make ~name:"passive+active-switch-pair" (Staged.stage (fun () ->
        Uintr.Receiver.post recv;
        if Uintr.Receiver.recognize recv then begin
          ignore (Uintr.Switch.passive_switch hw ~target:1);
          ignore (Uintr.Switch.active_switch ~retire:true hw ~target:0)
        end));
    Test.make ~name:"event-queue-push-pop" (Staged.stage (fun () ->
        Sim.Event_queue.push eq ~time:42L ();
        ignore (Sim.Event_queue.pop eq)));
  ]
  @ steady_queues

let run () =
  Format.printf "@.==================================================================@.";
  Format.printf "Host-side microbenchmarks (Bechamel, ns per call)@.";
  Format.printf "==================================================================@.";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
  let grouped = Test.make_grouped ~name:"micro" ~fmt:"%s %s" (tests ()) in
  let raw = Benchmark.all cfg instances grouped in
  let results =
    Analyze.merge ols instances (List.map (fun i -> Analyze.all ols i raw) instances)
  in
  Hashtbl.iter
    (fun measure by_test ->
      if String.equal measure (Measure.label Instance.monotonic_clock) then
        Hashtbl.fold (fun name ols_result acc -> (name, ols_result) :: acc) by_test []
        |> List.sort compare
        |> List.iter (fun (name, ols_result) ->
                match Analyze.OLS.estimates ols_result with
                | Some [ est ] -> Format.printf "  %-32s %10.1f ns/call@." name est
                | Some _ | None -> Format.printf "  %-32s (no estimate)@." name))
    results
