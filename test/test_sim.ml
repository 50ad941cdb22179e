(* Tests for the discrete-event simulation substrate. *)

module Clock = Sim.Clock
module Event_queue = Sim.Event_queue
module Event_queue_ref = Sim.Event_queue_ref
module Rng = Sim.Rng
module Histogram = Sim.Histogram
module Stats = Sim.Stats
module Des = Sim.Des

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check64 = Alcotest.(check int64)

(* -- Clock --------------------------------------------------------------- *)

let test_clock_roundtrip () =
  let c = Clock.default in
  check64 "1us at 2.4GHz" 2400L (Clock.cycles_of_us c 1.0);
  check64 "1ms" 2_400_000L (Clock.cycles_of_ms c 1.0);
  check64 "1s" 2_400_000_000L (Clock.cycles_of_sec c 1.0);
  check (Alcotest.float 1e-9) "us of cycles" 1.0 (Clock.us_of_cycles c 2400L);
  check (Alcotest.float 1e-9) "ns of cycles" 2500.0 (Clock.ns_of_cycles c 6000L)

let test_clock_custom () =
  let c = Clock.create ~ghz:1.0 () in
  check64 "1us at 1GHz" 1000L (Clock.cycles_of_us c 1.0);
  Alcotest.check_raises "non-positive frequency" (Invalid_argument "Clock.create: frequency must be positive")
    (fun () -> ignore (Clock.create ~ghz:0. ()))

let test_clock_pp () =
  let c = Clock.default in
  let s v = Format.asprintf "%a" (Clock.pp_cycles c) v in
  checkb "ns range" true (String.length (s 100L) > 0);
  checkb "us unit" true (String.length (s 24_000L) > 0 && String.sub (s 24_000L) (String.length (s 24_000L) - 2) 2 = "us")

(* -- Event queue ---------------------------------------------------------- *)

let test_eq_ordering () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:30L "c";
  Event_queue.push q ~time:10L "a";
  Event_queue.push q ~time:20L "b";
  let order = List.map snd (Event_queue.drain q) in
  check Alcotest.(list string) "time order" [ "a"; "b"; "c" ] order

let test_eq_fifo_ties () =
  let q = Event_queue.create () in
  List.iter (fun s -> Event_queue.push q ~time:5L s) [ "first"; "second"; "third" ];
  let order = List.map snd (Event_queue.drain q) in
  check Alcotest.(list string) "insertion order at equal times" [ "first"; "second"; "third" ] order

let test_eq_basics () =
  let q = Event_queue.create ~capacity:1 () in
  checkb "empty" true (Event_queue.is_empty q);
  check Alcotest.(option int64) "no peek" None (Event_queue.peek_time q);
  Event_queue.push q ~time:7L 1;
  Event_queue.push q ~time:3L 2;
  (* grows past initial capacity *)
  checki "length" 2 (Event_queue.length q);
  check Alcotest.(option int64) "peek" (Some 3L) (Event_queue.peek_time q);
  (match Event_queue.pop q with
  | Some (t, v) ->
    check64 "pop time" 3L t;
    checki "pop value" 2 v
  | None -> Alcotest.fail "expected event");
  Event_queue.clear q;
  checkb "cleared" true (Event_queue.is_empty q);
  Alcotest.check_raises "pop_exn empty" (Invalid_argument "Event_queue.pop_exn: empty queue")
    (fun () -> ignore (Event_queue.pop_exn q))

let prop_eq_sorted =
  QCheck2.Test.make ~name:"event queue pops in nondecreasing time order" ~count:200
    QCheck2.Gen.(list (int_bound 1000))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.push q ~time:(Int64.of_int t) t) times;
      let popped = Event_queue.drain q in
      let rec sorted = function
        | (a, _) :: ((b, _) :: _ as rest) -> Int64.compare a b <= 0 && sorted rest
        | _ -> true
      in
      sorted popped && List.length popped = List.length times)

(* -- Rng ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 7L and b = Rng.create 7L in
  for _ = 1 to 100 do
    check64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_bounds () =
  let r = Rng.create 1L in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    checkb "in [0,17)" true (v >= 0 && v < 17);
    let w = Rng.int_in r 5 9 in
    checkb "in [5,9]" true (w >= 5 && w <= 9);
    let f = Rng.float r 2.5 in
    checkb "float in [0,2.5)" true (f >= 0. && f < 2.5)
  done

let test_rng_split_independent () =
  let parent = Rng.create 3L in
  let child = Rng.split parent in
  let a = List.init 32 (fun _ -> Rng.next_int64 parent) in
  let b = List.init 32 (fun _ -> Rng.next_int64 child) in
  checkb "streams differ" true (a <> b)

let test_rng_copy () =
  let a = Rng.create 11L in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  check64 "copy continues identically" (Rng.next_int64 a) (Rng.next_int64 b)

let test_rng_shuffle_permutation () =
  let r = Rng.create 5L in
  let arr = Array.init 100 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check Alcotest.(array int) "permutation" (Array.init 100 Fun.id) sorted

let test_rng_exponential_mean () =
  let r = Rng.create 9L in
  let n = 50_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    let v = Rng.exponential r ~mean:10. in
    checkb "positive" true (v >= 0.);
    acc := !acc +. v
  done;
  let mean = !acc /. float_of_int n in
  checkb "mean near 10" true (mean > 9. && mean < 11.)

let test_rng_errors () =
  let r = Rng.create 0L in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int r 0));
  Alcotest.check_raises "empty range" (Invalid_argument "Rng.int_in: empty range") (fun () ->
      ignore (Rng.int_in r 5 4));
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick r [||]))

let test_rng_alpha_string () =
  let r = Rng.create 2L in
  for _ = 1 to 100 do
    let s = Rng.alpha_string r ~min_len:3 ~max_len:8 in
    checkb "length" true (String.length s >= 3 && String.length s <= 8);
    String.iter (fun ch -> checkb "letter" true (ch >= 'a' && ch <= 'z')) s
  done

(* The generator as it was with four mutable [int64] fields (one boxed
   value per store), kept as the reference the byte-buffer state must
   reproduce draw for draw. *)
module Boxed_rng = struct
  type t = {
    mutable s0 : int64;
    mutable s1 : int64;
    mutable s2 : int64;
    mutable s3 : int64;
    mutable draws_ : int;
  }

  let splitmix64 state =
    let open Int64 in
    state := add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let create seed =
    let state = ref seed in
    let s0 = splitmix64 state in
    let s1 = splitmix64 state in
    let s2 = splitmix64 state in
    let s3 = splitmix64 state in
    { s0; s1; s2; s3; draws_ = 0 }

  let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

  let next_int64 t =
    t.draws_ <- t.draws_ + 1;
    let open Int64 in
    let result = mul (rotl (mul t.s1 5L) 7) 9L in
    let tmp = shift_left t.s1 17 in
    t.s2 <- logxor t.s2 t.s0;
    t.s3 <- logxor t.s3 t.s1;
    t.s1 <- logxor t.s1 t.s2;
    t.s0 <- logxor t.s0 t.s3;
    t.s2 <- logxor t.s2 tmp;
    t.s3 <- rotl t.s3 45;
    result

  let split t = create (next_int64 t)
  let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3; draws_ = t.draws_ }
  let int t bound = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) mod bound
  let int_in t lo hi = lo + int t (hi - lo + 1)

  let float t bound =
    Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) /. 9007199254740992.0 *. bound

  let bool t = Int64.logand (next_int64 t) 1L = 1L
end

let test_rng_known_answers () =
  let r = Rng.create 42L in
  List.iter
    (fun want -> check64 "seed 42" want (Rng.next_int64 r))
    [
      1546998764402558742L;
      6990951692964543102L;
      -5902157311460992607L;
      -1389169964527427423L;
      -151191095644234140L;
      -4247557243643801032L;
      -5178765164775350862L;
      -2766855848391737209L;
    ]

let test_rng_matches_boxed_reference () =
  List.iter
    (fun seed ->
      let r = ref (Rng.create seed) and b = ref (Boxed_rng.create seed) in
      for i = 0 to 99_999 do
        let bound = 1 + (i * 7919 mod 1_000_003) in
        (match i mod 7 with
         | 0 -> checki "int" (Boxed_rng.int !b bound) (Rng.int !r bound)
         | 1 -> checki "int_in" (Boxed_rng.int_in !b (-bound) bound) (Rng.int_in !r (-bound) bound)
         | 2 ->
           Alcotest.(check (float 0.)) "float" (Boxed_rng.float !b 2.5) (Rng.float !r 2.5)
         | 3 -> checkb "bool" (Boxed_rng.bool !b) (Rng.bool !r)
         | 4 -> check64 "next_int64" (Boxed_rng.next_int64 !b) (Rng.next_int64 !r)
         | 5 when i mod 3 = 0 ->
           (* continue on the child, leaving the parent advanced *)
           b := Boxed_rng.split !b;
           r := Rng.split !r
         | 5 -> checki "int max_int" (Boxed_rng.int !b max_int) (Rng.int !r max_int)
         | _ ->
           b := Boxed_rng.copy !b;
           r := Rng.copy !r);
        checki "draws" !b.Boxed_rng.draws_ (Rng.draws !r)
      done)
    [ 0L; 1L; 42L; -1L ]

let test_rng_draws_allocate_nothing () =
  let r = Rng.create 42L in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    acc := !acc + Rng.int r i
  done;
  let words = Gc.minor_words () -. before in
  checkb "draws happened" true (!acc > 0);
  Alcotest.(check (float 0.)) "minor words over 10k draws" 0. words

(* -- Histogram ------------------------------------------------------------ *)

let test_hist_basics () =
  let h = Histogram.create () in
  checkb "empty" true (Histogram.is_empty h);
  Histogram.record h 100L;
  Histogram.record h 200L;
  Histogram.record h 300L;
  Histogram.record h 300L;
  checki "count" 4 (Histogram.count h);
  check64 "min" 100L (Histogram.min_value h);
  check64 "max" 300L (Histogram.max_value h);
  check (Alcotest.float 1e-9) "mean" 225.0 (Histogram.mean h);
  check (Alcotest.float 1e-9) "total" 900.0 (Histogram.total h)

let test_hist_small_values_exact () =
  (* Values below sub_buckets land in exact unit bins. *)
  let h = Histogram.create ~sub_buckets:64 () in
  for v = 0 to 63 do
    Histogram.record h (Int64.of_int v)
  done;
  check64 "p50 exact" 31L (Histogram.percentile h 50.);
  check64 "p100 exact" 63L (Histogram.percentile h 100.)

let test_hist_negative_clamped () =
  let h = Histogram.create () in
  Histogram.record h (-5L);
  check64 "clamped to 0" 0L (Histogram.min_value h)

let test_hist_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.record a 10L;
  Histogram.record b 1000L;
  Histogram.merge_into ~src:b ~dst:a;
  checki "merged count" 2 (Histogram.count a);
  check64 "merged max" 1000L (Histogram.max_value a)

let test_hist_reset () =
  let h = Histogram.create () in
  Histogram.record h 42L;
  Histogram.reset h;
  checkb "empty after reset" true (Histogram.is_empty h)

let test_hist_errors () =
  let h = Histogram.create () in
  Alcotest.check_raises "empty percentile" (Invalid_argument "Histogram.percentile: empty histogram")
    (fun () -> ignore (Histogram.percentile h 50.));
  Histogram.record h 1L;
  Alcotest.check_raises "p out of range" (Invalid_argument "Histogram.percentile: p out of [0,100]")
    (fun () -> ignore (Histogram.percentile h 101.))

(* Quantile accuracy: the histogram's reported percentile must be within
   the bucket's relative-error bound of the exact nearest-rank value. *)
let prop_hist_percentile_accuracy =
  QCheck2.Test.make ~name:"histogram percentile within relative error bound" ~count:100
    QCheck2.Gen.(list_size (int_range 1 500) (int_range 0 2_000_000))
    (fun samples ->
      let h = Histogram.create ~sub_buckets:64 () in
      List.iter (fun v -> Histogram.record h (Int64.of_int v)) samples;
      let exact =
        Stats.percentile (Array.of_list (List.map float_of_int samples))
      in
      List.for_all
        (fun p ->
          let approx = Int64.to_float (Histogram.percentile h p) in
          let ex = exact p in
          (* upper bound within one bucket width: 1/32 relative (half of
             sub_buckets slices per power of two) plus one unit slack *)
          approx >= ex -. 1. && approx <= (ex *. (1. +. (1. /. 32.))) +. 1.)
        [ 0.1; 25.; 50.; 90.; 99.; 99.9; 100. ])

(* Merging two histograms is equivalent to recording their union. *)
let prop_hist_merge_is_union =
  QCheck2.Test.make ~name:"histogram merge equals union recording" ~count:100
    QCheck2.Gen.(pair (list (int_range 0 100_000)) (list (int_range 0 100_000)))
    (fun (xs, ys) ->
      let a = Histogram.create () and b = Histogram.create () and u = Histogram.create () in
      List.iter (fun v -> Histogram.record a (Int64.of_int v)) xs;
      List.iter (fun v -> Histogram.record b (Int64.of_int v)) ys;
      List.iter (fun v -> Histogram.record u (Int64.of_int v)) (xs @ ys);
      Histogram.merge_into ~src:b ~dst:a;
      Histogram.count a = Histogram.count u
      && (Histogram.is_empty u
          || List.for_all
               (fun p -> Histogram.percentile a p = Histogram.percentile u p)
               [ 1.; 50.; 99.; 100. ]))

(* -- Stats ----------------------------------------------------------------- *)

let test_stats () =
  let xs = [| 4.; 1.; 3.; 2. |] in
  check (Alcotest.float 1e-9) "p50" 2.0 (Stats.percentile xs 50.);
  check (Alcotest.float 1e-9) "p100" 4.0 (Stats.percentile xs 100.);
  Alcotest.check_raises "empty percentile" (Invalid_argument "Stats.percentile: empty input")
    (fun () -> ignore (Stats.percentile [||] 50.))

(* -- Des -------------------------------------------------------------------- *)

let test_des_ordering () =
  let des = Des.create () in
  let log = ref [] in
  Des.schedule_at des ~time:20L (fun _ -> log := "b" :: !log);
  Des.schedule_at des ~time:10L (fun _ -> log := "a" :: !log);
  Des.schedule_at des ~time:20L (fun _ -> log := "c" :: !log);
  Des.run des;
  check Alcotest.(list string) "order" [ "a"; "b"; "c" ] (List.rev !log);
  check64 "now is last event time" 20L (Des.now des)

let test_des_until () =
  let des = Des.create () in
  let fired = ref [] in
  List.iter
    (fun t -> Des.schedule_at des ~time:t (fun _ -> fired := t :: !fired))
    [ 5L; 10L; 15L ];
  Des.run ~until:10L des;
  check Alcotest.(list int64) "events at or before horizon" [ 5L; 10L ] (List.rev !fired);
  check64 "clamped to horizon" 10L (Des.now des);
  Des.run des;
  check Alcotest.(list int64) "remaining event runs" [ 5L; 10L; 15L ] (List.rev !fired)

let test_des_schedule_past_clamped () =
  let des = Des.create () in
  let order = ref [] in
  Des.schedule_at des ~time:10L (fun des ->
      (* scheduling in the past runs later within the same instant *)
      Des.schedule_at des ~time:0L (fun _ -> order := "late" :: !order);
      order := "first" :: !order);
  Des.run des;
  check Alcotest.(list string) "clamped ordering" [ "first"; "late" ] (List.rev !order);
  check64 "time did not go backwards" 10L (Des.now des)

let test_des_stop () =
  let des = Des.create () in
  let count = ref 0 in
  let rec tick _ =
    incr count;
    if !count = 3 then Des.stop des else Des.schedule_after des ~delay:1L tick
  in
  Des.schedule_after des ~delay:1L tick;
  Des.run des;
  checki "stopped after 3" 3 !count

let test_des_stop_inside_handler () =
  let des = Des.create () in
  let fired = ref [] in
  List.iter
    (fun t ->
      Des.schedule_at des ~time:t (fun des ->
          fired := t :: !fired;
          if Int64.equal t 2L then Des.stop des))
    [ 1L; 2L; 3L ];
  Des.run des;
  check Alcotest.(list int64) "halted mid-stream" [ 1L; 2L ] (List.rev !fired);
  check64 "clock froze at the stopping event" 2L (Des.now des);
  Des.run des;
  check Alcotest.(list int64) "pending event survives the stop" [ 1L; 2L; 3L ]
    (List.rev !fired)

let test_des_until_exact_tie () =
  (* ~until falling exactly on an event time: every event AT the horizon
     fires (including ties), later ones stay queued *)
  let des = Des.create () in
  let fired = ref 0 in
  Des.schedule_at des ~time:10L (fun _ -> incr fired);
  Des.schedule_at des ~time:10L (fun _ -> incr fired);
  Des.schedule_at des ~time:11L (fun _ -> incr fired);
  Des.run ~until:10L des;
  checki "both horizon-tied events fired" 2 !fired;
  check64 "now is the horizon" 10L (Des.now des);
  Des.run des;
  checki "the later event fires on resume" 3 !fired

let test_des_max_depth_across_runs () =
  let des = Des.create () in
  for i = 1 to 5 do
    Des.schedule_at des ~time:(Int64.of_int i) (fun _ -> ())
  done;
  Des.run des;
  checki "high-water after burst" 5 (Des.max_queue_depth des);
  (* the queue fully drained; a smaller second wave must not lower it *)
  Des.schedule_at des ~time:10L (fun _ -> ());
  Des.schedule_at des ~time:11L (fun _ -> ());
  Des.run des;
  checki "high-water survives the queue emptying" 5 (Des.max_queue_depth des)

let test_des_next_event_time () =
  let des = Des.create () in
  check64 "no events" Int64.max_int (Des.next_event_time des);
  Des.schedule_at des ~time:42L (fun _ -> ());
  check64 "peek" 42L (Des.next_event_time des)

let test_des_relative_scheduling () =
  let des = Des.create () in
  let seen = ref [] in
  Des.schedule_at des ~time:100L (fun des ->
      Des.schedule_after des ~delay:50L (fun des -> seen := Des.now des :: !seen));
  Des.run des;
  check Alcotest.(list int64) "relative delay" [ 150L ] !seen

(* Interleaved pushes and pops against a sorted-list oracle: every pop must
   return the earliest pending time, FIFO among ties, regardless of how the
   operations interleave (the drain-only property above never exercises
   pops from a partially filled, wrapped heap). *)
(* -- the tie rule --------------------------------------------------------- *)

(* A stand-in worker: an actor whose steps cost [costs] in turn, stepping
   while [Des.may_step] allows and re-arming at its clock otherwise, like
   [Worker.step_loop].  Every step appends [(id, clock)] to [log]. *)
let stepping_actor des log costs =
  let id = ref (-1) and local = ref 0 and rest = ref costs in
  let rec loop des =
    match !rest with
    | [] -> ()
    | c :: tl ->
      if Des.may_step des ~actor:!id ~local:!local then begin
        log := (!id, !local) :: !log;
        rest := tl;
        local := !local + c;
        Des.set_actor_clock des !local;
        loop des
      end
      else Des.wake_actor des !id ~time:!local
  in
  id :=
    Des.add_actor des (fun des ->
        local := Des.now_int des;
        loop des);
  !id

let test_des_events_before_actors () =
  let des = Des.create () in
  let log = ref [] in
  let a = stepping_actor des log [ 0 ] in
  (* armed before the events are pushed: push order cannot explain it *)
  Des.wake_actor des a ~time:10;
  Des.schedule_at des ~time:10L (fun _ -> log := (-1, 10) :: !log);
  Des.schedule_at des ~time:10L (fun _ -> log := (-2, 10) :: !log);
  Des.run des;
  check Alcotest.(list (pair int int)) "events first, in push order, then the actor"
    [ (-1, 10); (-2, 10); (a, 10) ] (List.rev !log)

let test_des_actors_in_id_order () =
  let des = Des.create () in
  let log = ref [] in
  (* actor 0 takes a zero-cost step (a Yield_hint) before a costed one *)
  let a0 = stepping_actor des log [ 0; 5; 1 ] in
  let a1 = stepping_actor des log [ 1 ] in
  Des.wake_actor des a1 ~time:10;
  Des.wake_actor des a0 ~time:10;
  Des.run des;
  check Alcotest.(list (pair int int)) "lower id first, zero-cost step included"
    [ (a0, 10); (a0, 10); (a1, 10); (a0, 15) ] (List.rev !log)

let test_des_no_step_past_horizon () =
  let des = Des.create () in
  let log = ref [] in
  let a = stepping_actor des log [ 4; 4; 4; 4 ] in
  Des.wake_actor des a ~time:0;
  Des.run ~until:8L des;
  check Alcotest.(list (pair int int)) "the step at the horizon runs, none after"
    [ (a, 0); (a, 4); (a, 8) ] (List.rev !log);
  check64 "now is the horizon" 8L (Des.now des);
  Des.run ~until:100L des;
  checki "the rest run in a later run" 4 (List.length !log)

let test_des_step_reads_its_clock () =
  let des = Des.create () in
  (* a push from a step to the step's own instant is a path of latency 0 *)
  Des.add_path des ~least_latency:0;
  let seen = ref [] in
  let id = ref (-1) in
  id :=
    Des.add_actor des (fun des ->
        (* a step that ends at 250, activated at 100 *)
        Des.set_actor_clock des 250;
        seen := Des.now des :: !seen;
        Des.schedule_at des ~time:0L (fun des -> seen := Des.now des :: !seen));
  Des.wake_actor des !id ~time:100;
  Des.run des;
  check Alcotest.(list int64) "reads and clamps use the step's clock" [ 250L; 250L ]
    (List.rev !seen)

(* -- the lookahead floor -------------------------------------------------- *)

let raises what f =
  match f () with
  | () -> Alcotest.failf "%s did not raise" what
  | exception Failure _ -> ()

(* Run [f] inside one step of a fresh actor, activated at 100. *)
let in_step des f =
  let id = Des.add_actor des (fun des -> f des) in
  Des.wake_actor des id ~time:100;
  Des.run des

let test_des_add_path () =
  let des = Des.create () in
  checki "a fresh DES has no floor" max_int (Des.lookahead_floor des);
  Des.add_path des ~least_latency:960;
  checki "one path" 960 (Des.lookahead_floor des);
  Des.add_path des ~least_latency:9_600;
  checki "a slower path leaves it" 960 (Des.lookahead_floor des);
  Des.add_path des ~least_latency:240;
  checki "a faster path lowers it" 240 (Des.lookahead_floor des);
  Des.add_path des ~least_latency:(-5);
  checki "a negative latency clamps to 0" 0 (Des.lookahead_floor des);
  Des.add_path des ~least_latency:100;
  checki "it never rises" 0 (Des.lookahead_floor des)

(* Through each of the three pushes: one cycle under the floor raises, at
   the floor it is queued. *)
let test_des_push_under_floor () =
  let des = Des.create () in
  Des.add_path des ~least_latency:500;
  let ran = ref [] in
  let note des = ran := Des.now_int des :: !ran in
  in_step des (fun des ->
      raises "schedule_at under the floor" (fun () -> Des.schedule_at des ~time:599L note);
      raises "schedule_at_int under the floor" (fun () ->
          Des.schedule_at_int des ~time:599 note);
      raises "schedule_after under the floor" (fun () ->
          Des.schedule_after des ~delay:499L note);
      raises "a push to the past" (fun () -> Des.schedule_at_int des ~time:0 note);
      Des.schedule_at des ~time:600L note;
      Des.schedule_at_int des ~time:601 note;
      Des.schedule_after des ~delay:502L note);
  check Alcotest.(list int) "the pushes at the floor ran" [ 600; 601; 602 ] (List.rev !ran)

let test_des_push_without_path () =
  let des = Des.create () in
  in_step des (fun des ->
      raises "a push from a step with no path" (fun () ->
          Des.schedule_after des ~delay:1_000_000L ignore));
  Des.add_path des ~least_latency:9_600;
  let ran = ref 0 in
  (* an event pushes at any latency under any floor *)
  Des.schedule_at_int des ~time:1_000 (fun des ->
      Des.schedule_after des ~delay:0L (fun _ -> incr ran));
  Des.run des;
  checki "an event's push at latency 0 ran" 1 !ran

let test_des_wake_from_step () =
  let des = Des.create () in
  let b_steps = ref 0 and a_steps = ref 0 in
  let b = Des.add_actor des (fun _ -> incr b_steps) in
  let a = ref (-1) in
  a :=
    Des.add_actor des (fun des ->
        incr a_steps;
        if !a_steps = 1 then begin
          raises "a wake of another actor" (fun () -> Des.wake_actor des b ~time:0);
          Des.wake_actor des !a ~time:500
        end);
  Des.wake_actor des !a ~time:100;
  Des.run des;
  checki "the own re-arm ran" 2 !a_steps;
  checki "the other actor never ran" 0 !b_steps

(* A step that raises ends the run; the DES then runs no actor, so pushes
   and wakes from outside a step and from events are legal again. *)
let test_des_push_after_raising_step () =
  let des = Des.create () in
  Des.add_path des ~least_latency:960;
  (match in_step des (fun _ -> raise Exit) with
  | () -> Alcotest.fail "the step did not raise"
  | exception Exit -> ());
  let ran = ref 0 in
  Des.schedule_at_int des ~time:200 (fun des ->
      Des.schedule_after des ~delay:0L (fun _ -> incr ran));
  Des.run des;
  checki "the event's push ran" 1 !ran

let prop_eq_interleaved =
  QCheck2.Test.make ~name:"event queue min-pop under random interleaved insert/pop" ~count:200
    QCheck2.Gen.(list (pair bool (int_bound 100)))
    (fun ops ->
      let q = Event_queue.create () in
      let reference = ref [] in
      let seq = ref 0 in
      (* stable insert: after all entries with time <= t *)
      let rec ins t v = function
        | (rt, rv) :: rest when Int64.compare rt t <= 0 -> (rt, rv) :: ins t v rest
        | rest -> (t, v) :: rest
      in
      List.for_all
        (fun (is_pop, t) ->
          if is_pop then (
            match (Event_queue.pop q, !reference) with
            | None, [] -> true
            | Some (time, v), (rt, rv) :: rest ->
              reference := rest;
              Int64.equal time rt && v = rv
            | _ -> false)
          else begin
            incr seq;
            Event_queue.push q ~time:(Int64.of_int t) !seq;
            reference := ins (Int64.of_int t) !seq !reference;
            true
          end)
        ops
      && Event_queue.length q = List.length !reference)

(* The production queue against the reference heap: identical pop streams
   under random interleavings mixing duplicate timestamps, times that
   straddle byte boundaries, and times beyond 2^40.  The test keeps the
   name it had when the production queue was a timing wheel.  The
   exhaustive version lives in test/test_queue_diff.ml; this keeps a
   sentinel in the tier-1 sim suite. *)
let prop_eq_vs_ref =
  QCheck2.Test.make ~name:"timing wheel matches reference heap pop for pop" ~count:500
    QCheck2.Gen.(list (pair (int_bound 9) (int_bound 1000)))
    (fun ops ->
      let w = Event_queue.create () in
      let r = Event_queue_ref.create () in
      let id = ref 0 in
      let time_of k t =
        match k mod 3 with
        | 0 -> Int64.of_int t (* clustered: many exact ties *)
        | 1 -> Int64.of_int (t * 65_521) (* straddles slot-byte boundaries *)
        | _ -> Int64.of_int ((1 lsl 40) + (t * 997)) (* beyond the horizon *)
      in
      List.for_all
        (fun (k, t) ->
          if k < 6 then begin
            incr id;
            let time = time_of k t in
            Event_queue.push w ~time !id;
            Event_queue_ref.push r ~time !id;
            true
          end
          else
            match (Event_queue.pop w, Event_queue_ref.pop r) with
            | None, None -> true
            | Some (tw, vw), Some (tr, vr) -> Int64.equal tw tr && vw = vr
            | _ -> false)
        ops
      && Event_queue.length w = Event_queue_ref.length r
      && Event_queue.drain w = Event_queue_ref.drain r)

(* A cleared queue replays a script exactly like a fresh one: [clear]
   keeps the FIFO tie-break counter counting, and equal times still pop in
   push order. *)
let test_eq_clear_reuse () =
  let script q =
    List.iter (fun (t, v) -> Event_queue.push q ~time:t v)
      [ (5L, 1); (5L, 2); (3L, 3); (5L, 4) ];
    Event_queue.drain q
  in
  let expect = script (Event_queue.create ()) in
  let used = Event_queue.create () in
  List.iter (fun i -> Event_queue.push used ~time:(Int64.of_int i) i) [ 1; 2; 3 ];
  ignore (Event_queue.pop used);
  Event_queue.clear used;
  check Alcotest.(list (pair int64 int)) "cleared replays like fresh" expect (script used)

(* The DES pushes once per event: past its high-water mark, a push stores
   unboxed ints and one payload and allocates nothing. *)
let test_eq_push_allocates_nothing () =
  let q = Event_queue.create ~capacity:16_384 () in
  (* the first push makes the payload store *)
  Event_queue.push_int q ~time:0 ();
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Event_queue.push_int q ~time:(i * 7_919 mod 1_000) ()
  done;
  let words = Gc.minor_words () -. before in
  checki "pushed" 10_001 (Event_queue.length q);
  Alcotest.(check (float 0.)) "minor words over 10k push_int" 0. words

(* Quantiles are nondecreasing in p — the guarantee the latency tables in
   the bench reports rely on when printing p50 <= p90 <= p99. *)
let prop_hist_percentile_monotone =
  QCheck2.Test.make ~name:"histogram percentiles nondecreasing in p" ~count:200
    QCheck2.Gen.(list_size (int_range 1 300) (int_range 0 3_000_000))
    (fun samples ->
      let h = Histogram.create () in
      List.iter (fun v -> Histogram.record h (Int64.of_int v)) samples;
      let qs =
        List.map (Histogram.percentile h) [ 0.; 10.; 25.; 50.; 75.; 90.; 99.; 99.9; 100. ]
      in
      let rec mono = function
        | a :: (b :: _ as rest) -> Int64.compare a b <= 0 && mono rest
        | _ -> true
      in
      mono qs)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "sim"
    [
      ( "clock",
        [
          Alcotest.test_case "roundtrip" `Quick test_clock_roundtrip;
          Alcotest.test_case "custom frequency" `Quick test_clock_custom;
          Alcotest.test_case "pretty printing" `Quick test_clock_pp;
        ] );
      ( "event_queue",
        [
          Alcotest.test_case "time ordering" `Quick test_eq_ordering;
          Alcotest.test_case "FIFO on ties" `Quick test_eq_fifo_ties;
          Alcotest.test_case "basics and growth" `Quick test_eq_basics;
          Alcotest.test_case "cleared queue replays like fresh" `Quick test_eq_clear_reuse;
        ]
        @ qsuite [ prop_eq_sorted; prop_eq_interleaved; prop_eq_vs_ref ]
        @ [ Alcotest.test_case "push_int allocates nothing" `Quick test_eq_push_allocates_nothing ]
      );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "exponential mean" `Slow test_rng_exponential_mean;
          Alcotest.test_case "errors" `Quick test_rng_errors;
          Alcotest.test_case "alpha strings" `Quick test_rng_alpha_string;
          Alcotest.test_case "known answers at seed 42" `Quick test_rng_known_answers;
          Alcotest.test_case "matches the boxed reference" `Quick test_rng_matches_boxed_reference;
          Alcotest.test_case "draws allocate nothing" `Quick test_rng_draws_allocate_nothing;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "basics" `Quick test_hist_basics;
          Alcotest.test_case "small values exact" `Quick test_hist_small_values_exact;
          Alcotest.test_case "negatives clamp" `Quick test_hist_negative_clamped;
          Alcotest.test_case "merge" `Quick test_hist_merge;
          Alcotest.test_case "reset" `Quick test_hist_reset;
          Alcotest.test_case "errors" `Quick test_hist_errors;
        ]
        @ qsuite
            [ prop_hist_percentile_accuracy; prop_hist_merge_is_union; prop_hist_percentile_monotone ] );
      ("stats", [ Alcotest.test_case "oracles" `Quick test_stats ]);
      ( "des",
        [
          Alcotest.test_case "ordering" `Quick test_des_ordering;
          Alcotest.test_case "bounded run" `Quick test_des_until;
          Alcotest.test_case "past schedule clamps" `Quick test_des_schedule_past_clamped;
          Alcotest.test_case "stop" `Quick test_des_stop;
          Alcotest.test_case "stop inside handler" `Quick test_des_stop_inside_handler;
          Alcotest.test_case "until exactly on event time" `Quick test_des_until_exact_tie;
          Alcotest.test_case "max depth across runs" `Quick test_des_max_depth_across_runs;
          Alcotest.test_case "next event time" `Quick test_des_next_event_time;
          Alcotest.test_case "relative scheduling" `Quick test_des_relative_scheduling;
          Alcotest.test_case "events run before actors at a tie" `Quick
            test_des_events_before_actors;
          Alcotest.test_case "actors step in id order at a tie" `Quick test_des_actors_in_id_order;
          Alcotest.test_case "no step starts past the horizon" `Quick test_des_no_step_past_horizon;
          Alcotest.test_case "a step reads its own clock" `Quick test_des_step_reads_its_clock;
          Alcotest.test_case "add_path keeps the least latency" `Quick test_des_add_path;
          Alcotest.test_case "a step's push under the floor raises" `Quick
            test_des_push_under_floor;
          Alcotest.test_case "no path: a step's push raises" `Quick
            test_des_push_without_path;
          Alcotest.test_case "a step wakes no other actor" `Quick test_des_wake_from_step;
          Alcotest.test_case "after a step raises, events push again" `Quick
            test_des_push_after_raising_step;
        ] );
    ]
