(* Tests for the observability layer: JSON printer/parser, event sinks,
   the metrics registry, interval time-series, and — the golden test — a
   real two-worker preemptive run exported to Perfetto and parsed back. *)

module J = Obs.Json
module Event = Obs.Event
module Sink = Obs.Sink
module Registry = Obs.Registry
module Timeline = Obs.Timeline

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* -- Json ----------------------------------------------------------------- *)

let test_json_print () =
  checks "minified" {|{"a":[1,2.5,true,null],"b":"x\"y"}|}
    (J.to_string
        (J.Obj
          [
            ("a", J.List [ J.Int 1; J.Float 2.5; J.Bool true; J.Null ]);
            ("b", J.String "x\"y");
          ]));
  checks "integral float keeps a decimal point" "[1.0]" (J.to_string (J.List [ J.Float 1. ]));
  checks "nan is null" "null" (J.to_string (J.Float Float.nan));
  checks "infinity is null" "null" (J.to_string (J.Float Float.infinity));
  checks "control chars escaped" {|"\u0001\n"|} (J.to_string (J.String "\x01\n"))

let test_json_parse () =
  let ok s v = checkb (Printf.sprintf "parse %s" s) true (J.equal (Result.get_ok (J.parse s)) v) in
  ok "42" (J.Int 42);
  ok "-0.5e1" (J.Float (-5.));
  ok {|"a\u0041\n"|} (J.String "aA\n");
  ok {| [ 1 , {"k" : null} ] |} (J.List [ J.Int 1; J.Obj [ ("k", J.Null) ] ]);
  ok {|"\ud83d\ude00"|} (J.String "\xf0\x9f\x98\x80");
  List.iter
    (fun s ->
      match J.parse s with
      | Ok _ -> Alcotest.failf "expected parse failure on %s" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "truex"; "1 2"; "\"\\x\""; "\"unterminated" ]

let test_json_roundtrip () =
  let doc =
    J.Obj
      [
        ("ints", J.List (List.init 5 (fun i -> J.Int ((i * 7919) - 12345))));
        ("floats", J.List [ J.Float 0.1; J.Float 1e-9; J.Float 1.7e300; J.Float (-0.) ]);
        ("strings", J.List [ J.String ""; J.String "\t\"\\"; J.String "héllo" ]);
        ("nested", J.Obj [ ("deep", J.List [ J.Obj [ ("x", J.Bool false) ] ]) ]);
      ]
  in
  List.iter
    (fun minify ->
      checkb "roundtrips" true (J.equal doc (Result.get_ok (J.parse (J.to_string ~minify doc)))))
    [ true; false ]

let prop_json_string_roundtrip =
  QCheck2.Test.make ~name:"json string escape/parse roundtrip" ~count:500
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\127') (int_bound 50))
    (fun s ->
      match J.parse (J.to_string (J.String s)) with
      | Ok (J.String s') -> s = s'
      | _ -> false)

(* -- Event ----------------------------------------------------------------- *)

let test_event_schema () =
  let ev = Event.Txn_begin { id = 7; label = "Q2"; prio = "low"; attempt = 2 } in
  checks "stable name" "txn_begin" (Event.name ev);
  let j = Event.to_json ev in
  checkb "type field" true
    (J.member "type" j |> Option.map (J.equal (J.String "txn_begin"))
    |> Option.value ~default:false);
  checki "payload field" 7 (Option.get (Option.bind (J.member "id" j) J.to_int_opt));
  checks "switch names" "passive_switch"
    (Event.name (Event.Passive_switch { from_ctx = 0; to_ctx = 1; cycles = 3 }))

(* -- Sink ------------------------------------------------------------------ *)

let ev_enq i = Event.Enqueue { level = 0; req = i }

let test_sink_ring_overflow () =
  let s = Sink.create ~capacity:4 () in
  for i = 1 to 10 do
    Sink.record s ~time:(Int64.of_int i) ~wid:0 ~ctx:0 (ev_enq i)
  done;
  checki "recorded counts everything" 10 (Sink.recorded s);
  checki "overflow counted" 6 (Sink.dropped s);
  let kept =
    List.map
      (fun (e : Sink.entry) -> match e.Sink.ev with Event.Enqueue { req; _ } -> req | _ -> -1)
      (Sink.dump s)
  in
  check Alcotest.(list int) "keeps the most recent, in order" [ 7; 8; 9; 10 ] kept

let test_sink_tracks_independent () =
  let s = Sink.create ~capacity:2 () in
  Sink.record s ~time:5L ~wid:1 ~ctx:0 (ev_enq 1);
  Sink.record s ~time:3L ~wid:0 ~ctx:0 (ev_enq 2);
  Sink.record s ~time:3L ~wid:Sink.sched_track ~ctx:0 (ev_enq 3);
  (* same time: global record order breaks the tie *)
  let order = List.map (fun (e : Sink.entry) -> e.Sink.wid) (Sink.dump s) in
  check Alcotest.(list int) "sorted by (time, seq)" [ 0; Sink.sched_track; 1 ] order;
  checki "per-track entries" 1
    (List.length (List.filter (fun (e : Sink.entry) -> e.Sink.wid = 1) (Sink.dump s)));
  Sink.clear s;
  checki "cleared" 0 (List.length (Sink.dump s))

(* -- Registry --------------------------------------------------------------- *)

let test_registry_snapshot () =
  let reg = Registry.create () in
  Registry.add (Registry.counter reg "commits" ~labels:[ ("class", "Q2") ]) 1;
  (* the same (name, labels) is the same instrument *)
  Registry.add (Registry.counter reg "commits" ~labels:[ ("class", "Q2") ]) 4;
  let h = Sim.Histogram.create () in
  List.iter (fun v -> Sim.Histogram.record h (Int64.of_int v)) [ 100; 200; 300 ];
  Registry.attach_histogram reg "lat" h;
  let j = Registry.to_json reg in
  let section name =
    Option.get (Option.bind (J.member name j) J.to_list_opt)
  in
  (match section "counters" with
  | [ cj ] ->
    checki "counter accumulates" 5 (Option.get (Option.bind (J.member "value" cj) J.to_int_opt))
  | _ -> Alcotest.fail "expected one counter");
  checki "no gauges" 0 (List.length (section "gauges"));
  checki "one histogram" 1 (List.length (section "histograms"));
  (match section "histograms" with
  | [ hj ] ->
    checki "histogram count" 3 (Option.get (Option.bind (J.member "count" hj) J.to_int_opt));
    checkb "has p99" true (J.member "p99" hj <> None)
  | _ -> Alcotest.fail "expected one histogram");
  let csv_lines = String.split_on_char '\n' (Registry.to_csv reg) in
  checks "csv header" "kind,name,labels,value,count,p50,p90,p99,p999,max"
    (List.hd csv_lines);
  checkb "counter row labelled" true
    (List.exists
        (fun l -> String.length l > 8 && String.sub l 0 8 = "counter," && l <> "")
        csv_lines)

(* -- Timeline ---------------------------------------------------------------- *)

let test_timeline_windows () =
  let tl = Timeline.create ~width:100L () in
  List.iter
    (fun (t, v) -> Timeline.record tl ~time:(Int64.of_int t) ~value:(Int64.of_int v))
    [ (0, 10); (99, 20); (100, 30); (350, 40); (-5, 50) ];
  match Timeline.windows tl with
  | [ w0; w1; w3 ] ->
    checki "window 0" 0 w0.Timeline.index;
    checki "window 0 holds t=0,99 and the clamped negative" 3 w0.Timeline.count;
    checki "window 1" 1 w1.Timeline.index;
    checki "window 1 count" 1 w1.Timeline.count;
    checki "window 3 (2 is empty and absent)" 3 w3.Timeline.index;
    checki "window 3 count" 1 w3.Timeline.count
  | ws -> Alcotest.failf "expected 3 non-empty windows, got %d" (List.length ws)

let test_timeline_json () =
  let tl = Timeline.create ~width:(Sim.Clock.cycles_of_ms Sim.Clock.default 10.) () in
  for i = 0 to 99 do
    Timeline.record tl
      ~time:(Sim.Clock.cycles_of_ms Sim.Clock.default (float_of_int i))
      ~value:(Sim.Clock.cycles_of_us Sim.Clock.default 50.)
  done;
  match Timeline.to_json ~clock:Sim.Clock.default tl with
  | J.List (first :: _ as windows) ->
    checki "ten 10ms windows" 10 (List.length windows);
    let f name = Option.get (Option.bind (J.member name first) J.to_float_opt) in
    checkb "t_ms at window start" true (f "t_ms" = 0.);
    checkb "throughput ~1 ktps" true (Float.abs (f "throughput_ktps" -. 1.0) < 0.2);
    checkb "p50 ~50us" true (Float.abs (f "p50_us" -. 50.) < 3.)
  | _ -> Alcotest.fail "expected a json array"

(* -- Perfetto golden: a real 2-worker preemptive run ------------------------- *)

let golden_json () =
  let cfg =
    {
      (Preemptdb.Config.default ~policy:(Preemptdb.Config.Preempt 1.0) ~n_workers:2 ()) with
      Preemptdb.Config.seed = 7L;
    }
  in
  let obs = Sink.create () in
  (* default TPC-H sizing: Q2 must run long enough to actually get
     preempted, or the trace has no passive switches to assert on *)
  let r = Preemptdb.Runner.run_mixed ~cfg ~obs ~arrival_interval_us:500. ~horizon_sec:0.004 () in
  J.to_string (Obs.Perfetto.to_json ~clock:r.Preemptdb.Runner.clock (Sink.dump obs))

(* the golden property: serialized Perfetto output parses back *)
let golden_trace = lazy (Result.get_ok (J.parse (golden_json ())))

let trace_events () =
  match J.member "traceEvents" (Lazy.force golden_trace) with
  | Some (J.List evs) -> evs
  | _ -> Alcotest.fail "traceEvents missing"

let str name e = Option.bind (J.member name e) J.to_string_opt
let num name e = Option.bind (J.member name e) J.to_float_opt

let test_perfetto_schema_valid () =
  let evs = trace_events () in
  checkb "has events" true (List.length evs > 50);
  List.iter
    (fun e ->
      checkb "every event has a ph" true (str "ph" e <> None);
      checkb "every event has a ts" true (num "ts" e <> None);
      checkb "every event has a pid" true (num "pid" e <> None);
      checkb "ts non-negative" true (Option.get (num "ts" e) >= 0.))
    evs

let test_perfetto_txn_lanes () =
  let evs = trace_events () in
  let txn_pids =
    List.filter_map
      (fun e ->
        match str "ph" e, str "cat" e with
        | Some "X", Some "txn" -> num "pid" e
        | _ -> None)
      evs
    |> List.sort_uniq compare
  in
  checkb "transaction slices on at least 2 worker lanes" true (List.length txn_pids >= 2)

let test_perfetto_instants () =
  let evs = trace_events () in
  let instants name =
    List.length
      (List.filter (fun e -> str "ph" e = Some "i" && str "name" e = Some name) evs)
  in
  checkb "at least one passive-switch instant" true (instants "passive_switch" >= 1);
  checkb "scope field on instants" true
    (List.for_all
        (fun e -> str "ph" e <> Some "i" || str "s" e <> None)
        evs)

let test_perfetto_flow_pairs () =
  let evs = trace_events () in
  let ids ph =
    List.filter_map (fun e -> if str "ph" e = Some ph then num "id" e else None) evs
    |> List.sort_uniq compare
  in
  let starts = ids "s" and finishes = ids "f" in
  let paired = List.filter (fun id -> List.mem id finishes) starts in
  checkb "at least one send->recognize flow pair" true (List.length paired >= 1)

let test_perfetto_metadata () =
  let evs = trace_events () in
  let names =
    List.filter_map
      (fun e ->
        if str "ph" e = Some "M" && str "name" e = Some "process_name" then
          Option.bind (J.member "args" e) (str "name")
        else None)
      evs
  in
  checkb "scheduler lane labelled" true
    (List.exists (fun n -> n = "scheduler/fabric") names);
  checkb "worker lanes labelled" true (List.exists (fun n -> n = "worker 0") names)

let test_perfetto_reproducible () =
  (* request ids come from the run's own host, so a second run in the
     same process numbers its txn slices and events the same way *)
  let first = golden_json () in
  let second = golden_json () in
  checki "same length" (String.length first) (String.length second);
  checkb "byte-identical" true (String.equal first second)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "printing" `Quick test_json_print;
          Alcotest.test_case "parsing" `Quick test_json_parse;
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
        ]
        @ qsuite [ prop_json_string_roundtrip ] );
      ("event", [ Alcotest.test_case "schema" `Quick test_event_schema ]);
      ( "sink",
        [
          Alcotest.test_case "ring overflow" `Quick test_sink_ring_overflow;
          Alcotest.test_case "track ordering" `Quick test_sink_tracks_independent;
        ] );
      ("registry", [ Alcotest.test_case "snapshot" `Quick test_registry_snapshot ]);
      ( "timeline",
        [
          Alcotest.test_case "window bucketing" `Quick test_timeline_windows;
          Alcotest.test_case "json export" `Quick test_timeline_json;
        ] );
      ( "perfetto",
        [
          Alcotest.test_case "schema valid" `Quick test_perfetto_schema_valid;
          Alcotest.test_case "txn slices on 2 lanes" `Quick test_perfetto_txn_lanes;
          Alcotest.test_case "switch instants" `Quick test_perfetto_instants;
          Alcotest.test_case "flow pairs" `Quick test_perfetto_flow_pairs;
          Alcotest.test_case "lane metadata" `Quick test_perfetto_metadata;
          Alcotest.test_case "same run, same bytes" `Quick test_perfetto_reproducible;
        ] );
    ]
