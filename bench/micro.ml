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

(* -- event-queue steady state: wheel vs reference heap ----------------------
   The DES's rhythm at a fixed backlog: each step pops the minimum and
   pushes a replacement a little ahead of the cursor, so the queue holds
   [depth] events throughout.  Measured for the production timing wheel
   and the reference binary heap it replaced, at a shallow and a deep
   backlog; the perf experiment prints these and records them as [info_]
   fields in its JSON report. *)

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

let wheel_rate ~depth ~iters =
  let q = Sim.Event_queue.create () in
  steady_rate_ns ~depth ~iters
    ~push:(fun t -> Sim.Event_queue.push_int q ~time:t ())
    ~pop:(fun () -> ignore (Sim.Event_queue.pop_exn_int q))

let heap_rate ~depth ~iters =
  let q = Sim.Event_queue_ref.create () in
  steady_rate_ns ~depth ~iters
    ~push:(fun t -> Sim.Event_queue_ref.push q ~time:(Int64.of_int t) ())
    ~pop:(fun () -> ignore (Sim.Event_queue_ref.pop_exn q))

let queue_rates () =
  let iters = 1_000_000 in
  [
    ("eq_wheel_d1k_ns", wheel_rate ~depth:1_000 ~iters);
    ("eq_heap_d1k_ns", heap_rate ~depth:1_000 ~iters);
    ("eq_wheel_d100k_ns", wheel_rate ~depth:100_000 ~iters);
    ("eq_heap_d100k_ns", heap_rate ~depth:100_000 ~iters);
  ]

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
  let fill_wheel depth =
    let q = Sim.Event_queue.create () and t = ref 0 in
    for _ = 1 to depth do t := !t + 17; Sim.Event_queue.push_int q ~time:!t () done;
    (q, t)
  in
  let fill_heap depth =
    let q = Sim.Event_queue_ref.create () and t = ref 0 in
    for _ = 1 to depth do t := !t + 17; Sim.Event_queue_ref.push q ~time:(Int64.of_int !t) () done;
    (q, t)
  in
  let w1k, w1t = fill_wheel 1_000 in
  let w100k, w100t = fill_wheel 100_000 in
  let h1k, h1t = fill_heap 1_000 in
  let h100k, h100t = fill_heap 100_000 in
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
    Test.make ~name:"eq-wheel-steady-1k" (Staged.stage (fun () ->
        w1t := !w1t + 17;
        Sim.Event_queue.push_int w1k ~time:!w1t ();
        ignore (Sim.Event_queue.pop_exn_int w1k)));
    Test.make ~name:"eq-wheel-steady-100k" (Staged.stage (fun () ->
        w100t := !w100t + 17;
        Sim.Event_queue.push_int w100k ~time:!w100t ();
        ignore (Sim.Event_queue.pop_exn_int w100k)));
    Test.make ~name:"eq-heap-steady-1k" (Staged.stage (fun () ->
        h1t := !h1t + 17;
        Sim.Event_queue_ref.push h1k ~time:(Int64.of_int !h1t) ();
        ignore (Sim.Event_queue_ref.pop_exn h1k)));
    Test.make ~name:"eq-heap-steady-100k" (Staged.stage (fun () ->
        h100t := !h100t + 17;
        Sim.Event_queue_ref.push h100k ~time:(Int64.of_int !h100t) ();
        ignore (Sim.Event_queue_ref.pop_exn h100k)));
  ]

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
