(* Differential proof harness for the production event queue.

   The production queue ([Sim.Event_queue], a flat (time, seq) heap that
   sifts unboxed ints) sits on the simulator's hottest path.  Its contract
   is not "a correct priority queue" but something stronger: *bit-identical
   pop order* to the boxed binary min-heap the simulator started with,
   because every schedule the simulator has ever produced — baselines,
   regression traces, the 27 gated perf metrics — is defined by that
   order.  This suite drives the production queue and the reference heap
   ([Sim.Event_queue_ref], kept verbatim as the oracle) through:

   - 10,000+ randomized operation scripts covering duplicate timestamps,
     same-tick bursts, far-future times, pushes behind the last popped
     time, byte-boundary times and mid-script clears (the regimes the
     timing wheel that preceded the flat heap treated specially);
   - growth from a one-entry queue, regrowth after [clear], and long runs
     of equal times interleaved with pops; and
   - a real bench-tpcc-shaped operation trace captured from a live
     [Runner.run_tpcc] via [Sim.Des.set_queue_tracer] and replayed against
     both implementations,

   asserting identical [(time, payload)] streams pop for pop.  The oracle
   is referenced statically below, so deleting [Event_queue_ref] breaks
   this file at compile time — deliberately. *)

module Event_queue = Sim.Event_queue
module Ref_heap = Sim.Event_queue_ref
module Des = Sim.Des
module Config = Preemptdb.Config
module Runner = Preemptdb.Runner

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* -- lockstep mirror ----------------------------------------------------- *)

(* Both queues driven through identical ops; payloads are push-order ids,
   so equal [(time, id)] streams prove the FIFO tie-break agrees too. *)
type mirror = {
  w : int Event_queue.t;
  r : int Ref_heap.t;
  mutable next_id : int;
}

let mirror ?capacity () =
  { w = Event_queue.create ?capacity (); r = Ref_heap.create ?capacity (); next_id = 0 }

let push m time =
  Event_queue.push m.w ~time m.next_id;
  Ref_heap.push m.r ~time m.next_id;
  m.next_id <- m.next_id + 1

let pop_both ~ctx m =
  match (Event_queue.pop m.w, Ref_heap.pop m.r) with
  | None, None -> None
  | Some (tw, vw), Some (tr, vr) ->
    if not (Int64.equal tw tr && vw = vr) then
      Alcotest.failf "%s: queue popped (%Ld, #%d) but reference popped (%Ld, #%d)"
        ctx tw vw tr vr;
    Some (tw, vw)
  | Some (tw, vw), None ->
    Alcotest.failf "%s: queue popped (%Ld, #%d) but reference is empty" ctx tw vw
  | None, Some (tr, vr) ->
    Alcotest.failf "%s: queue empty but reference popped (%Ld, #%d)" ctx tr vr

let check_agree ~ctx m =
  if Event_queue.length m.w <> Ref_heap.length m.r then
    Alcotest.failf "%s: length %d (queue) vs %d (reference)" ctx
      (Event_queue.length m.w) (Ref_heap.length m.r);
  match (Event_queue.peek_time m.w, Ref_heap.peek_time m.r) with
  | None, None -> ()
  | Some a, Some b when Int64.equal a b -> ()
  | a, b ->
    let s = function None -> "empty" | Some t -> Int64.to_string t in
    Alcotest.failf "%s: peek %s (queue) vs %s (reference)" ctx (s a) (s b)

let drain_both ~ctx m =
  let rec loop n =
    match pop_both ~ctx m with None -> n | Some _ -> loop (n + 1)
  in
  let n = loop 0 in
  check_agree ~ctx m;
  n

(* -- randomized scripts --------------------------------------------------- *)

(* Times are generated relative to an advancing [base] (mirroring the DES,
   where the clock follows popped event times): exact ties and near
   clusters, mid-range and far-future times (beyond 2^40, the horizon of
   the timing wheel the flat heap replaced), and times behind the last
   pop. *)
let gen_time st base =
  match Random.State.int st 100 with
  | n when n < 30 -> Int64.add base (Int64.of_int (Random.State.int st 8))
  | n when n < 50 -> base (* exact duplicate: FIFO tie-break territory *)
  | n when n < 65 -> Int64.add base (Int64.of_int (Random.State.int st 65536))
  | n when n < 78 -> Int64.add base (Int64.of_int (Random.State.full_int st (1 lsl 30)))
  | n when n < 88 ->
    (* far future: beyond 2^40 cycles ahead *)
    Int64.add base (Int64.of_int ((1 lsl 41) + Random.State.full_int st (1 lsl 42)))
  | _ ->
    (* behind the last popped time *)
    let back = Int64.sub base (Int64.of_int (1 + Random.State.int st 4096)) in
    if Int64.compare back 0L < 0 then 0L else back

let run_script seed =
  let st = Random.State.make [| 0xd1f; seed |] in
  let m = mirror () in
  let n_ops = 40 + Random.State.int st 160 in
  let base = ref 0L in
  for op = 1 to n_ops do
    let ctx = Printf.sprintf "script %d op %d" seed op in
    match Random.State.int st 100 with
    | n when n < 55 -> push m (gen_time st !base)
    | n when n < 90 -> (
      match pop_both ~ctx m with
      | Some (t, _) -> base := t (* the DES cursor follows popped times *)
      | None -> ())
    | n when n < 92 ->
      (* rare wholesale reset: also covers clear-resets-seq in lockstep *)
      Event_queue.clear m.w;
      Ref_heap.clear m.r;
      base := 0L
    | _ -> check_agree ~ctx m
  done;
  ignore (drain_both ~ctx:(Printf.sprintf "script %d drain" seed) m)

let test_random_scripts () =
  let n_scripts = 10_000 in
  for seed = 1 to n_scripts do
    run_script seed
  done

(* -- targeted edge cases -------------------------------------------------- *)

let test_duplicate_timestamps () =
  let m = mirror () in
  (* one big same-tick burst: pop order must be exactly insertion order *)
  for _ = 1 to 1_000 do
    push m 77L
  done;
  let rec loop expect =
    match pop_both ~ctx:"dup burst" m with
    | None -> checki "all popped" 1_000 expect
    | Some (t, v) ->
      checkb "time is the tick" true (Int64.equal t 77L);
      checki "FIFO among ties" expect v;
      loop (expect + 1)
  in
  loop 0

let test_horizon_rollover () =
  (* times straddling every byte boundary up to 2^40, pushed in a shuffled
     order, must still drain identically *)
  let boundaries =
    [
      0L; 1L; 254L; 255L; 256L; 257L; 511L; 512L;
      65_535L; 65_536L; 65_537L;
      16_777_215L; 16_777_216L; 16_777_217L;
      4_294_967_295L; 4_294_967_296L; 4_294_967_297L;
      1_099_511_627_775L (* 2^40 - 1 *);
      1_099_511_627_776L (* 2^40 *);
      1_099_511_627_777L;
    ]
  in
  let st = Random.State.make [| 0xb0b |] in
  let arr = Array.of_list (boundaries @ boundaries) in
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  let m = mirror () in
  Array.iter (fun t -> push m t) arr;
  checki "drained all" (Array.length arr) (drain_both ~ctx:"rollover" m)

let test_overflow_promotion () =
  (* events pushed 2^40 cycles ahead, with more pushed as the near batch
     drains, must interleave with near events in exactly the order the
     reference heap reports *)
  let m = mirror () in
  let far k = Int64.of_int ((1 lsl 40) + (k * (1 lsl 20))) in
  for k = 9 downto 0 do
    push m (far k)
  done;
  for k = 0 to 9 do
    push m (Int64.of_int (k * 100))
  done;
  (* pop the near batch, pushing new events past the horizon as we go *)
  for k = 0 to 9 do
    (match pop_both ~ctx:"promotion near" m with
    | Some (t, _) -> checkb "near first" true (Int64.equal t (Int64.of_int (k * 100)))
    | None -> Alcotest.fail "queue empty during near batch");
    push m (far (20 + k))
  done;
  checki "far batch drains in step" 20 (drain_both ~ctx:"promotion far" m)

let test_backfill_behind_cursor () =
  (* the DES clamps past schedules, but the queue itself must handle raw
     pushes below the last popped time identically to the ref *)
  let m = mirror () in
  List.iter (fun t -> push m t) [ 100L; 200L; 300L ];
  ignore (pop_both ~ctx:"backfill warm" m);
  ignore (pop_both ~ctx:"backfill warm" m);
  (* cursor now at 200; push below, at, and above it *)
  List.iter (fun t -> push m t) [ 50L; 150L; 199L; 200L; 250L ];
  let popped = ref [] in
  let rec loop () =
    match pop_both ~ctx:"backfill drain" m with
    | Some (t, _) ->
      popped := t :: !popped;
      loop ()
    | None -> ()
  in
  loop ();
  Alcotest.(check (list int64))
    "backfill interleaves in time order"
    [ 50L; 150L; 199L; 200L; 250L; 300L ]
    (List.rev !popped)

(* A cleared queue replays a script with the exact pop order of a fresh
   queue, in both implementations.  [clear] keeps the tie-break counter
   counting: pops depend only on the relative order of seqs, so a reset
   would not be observable here. *)
let test_clear_replays_like_fresh () =
  let script q push_fn pop_fn =
    List.iter (fun t -> push_fn q t) [ 5L; 5L; 3L; 5L; 3L ];
    let rec drain acc =
      match pop_fn q with None -> List.rev acc | Some e -> drain (e :: acc)
    in
    drain []
  in
  (* production queue *)
  let fresh_w = Event_queue.create () in
  let ids = ref 0 in
  let wpush q t = incr ids; Event_queue.push q ~time:t !ids in
  let expect = script fresh_w wpush Event_queue.pop in
  let used_w = Event_queue.create () in
  Event_queue.push used_w ~time:9L 999;
  Event_queue.push used_w ~time:1L 998;
  ignore (Event_queue.pop used_w);
  Event_queue.clear used_w;
  ids := 0;
  let got = script used_w wpush Event_queue.pop in
  Alcotest.(check (list (pair int64 int))) "queue: cleared == fresh" expect got;
  (* reference heap: same contract *)
  let fresh_r = Ref_heap.create () in
  ids := 0;
  let rpush q t = incr ids; Ref_heap.push q ~time:t !ids in
  let expect_r = script fresh_r rpush Ref_heap.pop in
  let used_r = Ref_heap.create () in
  Ref_heap.push used_r ~time:9L 999;
  ignore (Ref_heap.pop used_r);
  Ref_heap.clear used_r;
  ids := 0;
  let got_r = script used_r rpush Ref_heap.pop in
  Alcotest.(check (list (pair int64 int))) "ref: cleared == fresh" expect_r got_r;
  Alcotest.(check (list (pair int64 int))) "queue == ref after clear" expect got_r

(* Growth: a one-entry queue doubles its arrays (and the reference its
   heap) many times over while runs of equal times pile up, with pops
   between the runs so the free region is reused mid-growth. *)
let test_growth_from_one () =
  let m = mirror ~capacity:1 () in
  let st = Random.State.make [| 0x9a0 |] in
  for run = 1 to 40 do
    let time = Int64.of_int (Random.State.int st 50) in
    for _ = 1 to run do
      push m time
    done;
    for _ = 1 to run / 3 do
      ignore (pop_both ~ctx:(Printf.sprintf "growth run %d" run) m)
    done;
    check_agree ~ctx:(Printf.sprintf "growth run %d" run) m
  done;
  checkb "grew past 512 entries" true (Event_queue.length m.w > 512);
  ignore (drain_both ~ctx:"growth drain" m)

(* [clear] on a grown queue, then growth again past the old size: the
   cleared cells must come back into use with the pop order still the
   reference's. *)
let test_clear_then_regrow () =
  let m = mirror ~capacity:2 () in
  for i = 1 to 300 do
    push m (Int64.of_int (i mod 7))
  done;
  for _ = 1 to 100 do
    ignore (pop_both ~ctx:"before clear" m)
  done;
  Event_queue.clear m.w;
  Ref_heap.clear m.r;
  check_agree ~ctx:"after clear" m;
  for i = 1 to 700 do
    push m (Int64.of_int (i mod 5));
    if i mod 4 = 0 then ignore (pop_both ~ctx:(Printf.sprintf "regrow %d" i) m)
  done;
  check_agree ~ctx:"regrown" m;
  checki "regrown past the cleared size" 525 (drain_both ~ctx:"regrow drain" m)

(* 1 000 pushes at one time with pops in between: every key compares on
   seq alone, so this is the FIFO tie-break under sifting. *)
let test_equal_times_interleaved () =
  let m = mirror () in
  let st = Random.State.make [| 0xe9 |] in
  let pushed = ref 0 and popped = ref 0 in
  while !pushed < 1_000 do
    if Random.State.int st 3 = 0 then begin
      match pop_both ~ctx:(Printf.sprintf "equal times pop %d" !popped) m with
      | Some (t, _) ->
        checkb "popped the one time" true (Int64.equal t 500L);
        incr popped
      | None -> ()
    end
    else begin
      push m 500L;
      incr pushed
    end
  done;
  checki "everything popped" 1_000 (!popped + drain_both ~ctx:"equal times drain" m)

(* -- workload-shaped trace ------------------------------------------------ *)

(* Capture every queue operation of a real (small) TPC-C run through
   [Des.set_queue_tracer], then replay the trace against a fresh production
   queue AND the reference heap in lockstep.  Each recorded pop must match what both
   replicas produce — proving the production run's schedule is exactly the
   schedule the old heap would have computed. *)
let test_tpcc_trace_replay () =
  let trace = ref [] in
  let des = ref None in
  let prepare (a : Runner.assembly) =
    (* the replay below assumes every live event was traced from birth *)
    Alcotest.(check int64) "queue empty at tracer install" Int64.max_int
      (Des.next_event_time a.Runner.des);
    Des.set_queue_tracer a.Runner.des (Some (fun op -> trace := op :: !trace));
    des := Some a.Runner.des
  in
  let cfg =
    { (Config.default ~policy:(Config.Preempt 1.0) ~n_workers:4 ()) with
      Config.seed = 7L }
  in
  (* 20 ms: worker activations do not pass through the queue, so the run
     needs this long to push a workload-sized trace *)
  let r = Runner.run_tpcc ~cfg ~horizon_sec:0.02 ~prepare () in
  let des = match !des with Some d -> d | None -> Alcotest.fail "tracer not installed" in
  checkb "run did work" true (r.Runner.events > 1_000);
  let ops = List.rev !trace in
  let m = mirror () in
  let pushes = ref 0 and pops = ref 0 in
  List.iter
    (fun op ->
      match op with
      | Event_queue.Op_push t ->
        incr pushes;
        push m t
      | Event_queue.Op_pop t -> (
        incr pops;
        match pop_both ~ctx:(Printf.sprintf "trace pop %d" !pops) m with
        | Some (tr, _) ->
          if not (Int64.equal tr t) then
            Alcotest.failf "trace pop %d: live run popped %Ld, replicas popped %Ld"
              !pops t tr
        | None ->
          Alcotest.failf "trace pop %d: live run popped %Ld on empty replicas"
            !pops t)
      | Event_queue.Op_clear ->
        Event_queue.clear m.w;
        Ref_heap.clear m.r)
    ops;
  (* every event the live run processed went through the traced queue,
     except worker activations, which [Des] dispatches beside it *)
  checki "replay saw every processed event" r.Runner.events (!pops + Des.activations des);
  checkb "trace is workload-sized" true (!pushes > 1_000);
  ignore (drain_both ~ctx:"trace leftover" m)

let () =
  Alcotest.run "queue_diff"
    [
      ( "differential",
        [
          Alcotest.test_case "10k randomized scripts" `Quick test_random_scripts;
          Alcotest.test_case "duplicate timestamps" `Quick test_duplicate_timestamps;
          Alcotest.test_case "horizon rollover" `Quick test_horizon_rollover;
          Alcotest.test_case "overflow promotion" `Quick test_overflow_promotion;
          Alcotest.test_case "backfill behind cursor" `Quick test_backfill_behind_cursor;
          Alcotest.test_case "cleared queue replays like fresh" `Quick test_clear_replays_like_fresh;
          Alcotest.test_case "growth from capacity 1" `Quick test_growth_from_one;
          Alcotest.test_case "clear then regrowth" `Quick test_clear_then_regrow;
          Alcotest.test_case "1000 equal times with pops" `Quick test_equal_times_interleaved;
        ] );
      ( "workload-trace",
        [ Alcotest.test_case "tpcc trace replay" `Quick test_tpcc_trace_replay ] );
    ]
