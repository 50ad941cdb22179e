(* One benchmark episode in a fresh process, printed as one JSON line.

     bench.exe --workload mixed|durable|shard --seed N
               [--check 0|1] [--trace] [--burn OP:NS] [--spans FILE]
               [--setup-only]

   --check   1 runs the output oracles after the run (see Episode.run).
             A value rather than a bare flag: episodes that are compared
             for identical GC figures must start from identical argv.
   --trace   splits the DES run's wall time by layer (see Tracer)
   --burn    spins NS wall nanoseconds after every executed micro-op of
             kind OP (e.g. record_read), through the worker op probe:
             a host slowdown confined to one layer, for the sensitivity
             self-test.  Virtual time is untouched.  NS = 0 installs the
             same probe without spinning (the self-test's baseline).
   --spans   with --trace, writes the raw span window to FILE (CSV)
   --setup-only  sets the workload up, stops at the first DES event and
             prints only the set-up time and the rows loaded

   Without --trace the episode stamps the wall clock at [n_slices]
   evenly spaced virtual instants of the DES run and prints the slice
   durations.  Every episode of a seed runs the same events, so run.py
   can take each slice's fastest episode.

   The orchestrating script (run.py) runs several episodes and turns
   them into the benchmark's metrics. *)

module J = Obs.Json

let usage () =
  prerr_endline
    "usage: bench.exe --workload mixed|durable|shard --seed N [--check 0|1] [--trace] [--burn OP:NS] \
     [--spans FILE] [--setup-only]";
  exit 2

type opts = {
  mutable workload : Episode.workload option;
  mutable seed : int option;
  mutable check : bool;
  mutable trace : bool;
  mutable burn : (int * int) option;
  mutable spans : string option;
  mutable setup_only : bool;
}

let parse_burn s =
  match String.split_on_char ':' s with
  | [ op; ns ] -> (
    match (Tracer.op_of_name op, int_of_string_opt ns) with
    | Some k, Some n when n >= 0 -> (k, n)
    | _ -> usage ())
  | _ -> usage ()

let parse_args () =
  let o =
    { workload = None; seed = None; check = false; trace = false; burn = None; spans = None; setup_only = false }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      (match Episode.workload_of_string w with Some wl -> o.workload <- Some wl | None -> usage ());
      go rest
    | "--seed" :: n :: rest ->
      (match int_of_string_opt n with Some n -> o.seed <- Some n | None -> usage ());
      go rest
    | "--check" :: c :: rest ->
      (match c with "0" -> o.check <- false | "1" -> o.check <- true | _ -> usage ());
      go rest
    | "--trace" :: rest ->
      o.trace <- true;
      go rest
    | "--burn" :: b :: rest ->
      o.burn <- Some (parse_burn b);
      go rest
    | "--spans" :: f :: rest ->
      o.spans <- Some f;
      go rest
    | "--setup-only" :: rest ->
      o.setup_only <- true;
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (o.workload, o.seed) with Some wl, Some seed -> (o, wl, seed) | _ -> usage ()

(* -- wall-clock slices of an untraced run -------------------------------- *)

let n_slices = 40

type slicer = { step : int; stamps : int array; mutable k : int; mutable next : int }

let slicer ~horizon = { step = max 1 (horizon / n_slices); stamps = Array.make n_slices 0; k = 0; next = 0 }

(* Stamp every slice boundary the event's virtual time has reached;
   boundary 0 is the first event. *)
let on_slice s ~time ~seq:_ =
  let ti = Int64.to_int time in
  if ti >= s.next then begin
    let stamp = Tracer.now () in
    while s.k < n_slices && ti >= s.next do
      s.stamps.(s.k) <- stamp;
      s.k <- s.k + 1;
      s.next <- s.k * s.step
    done;
    if s.k = n_slices then s.next <- max_int
  end

(* Slice durations.  The last slice ends where the DES run's own wall
   time does, so the slices sum to [wall_s]. *)
let slice_ns s ~wall_s =
  let stop = s.stamps.(0) + int_of_float (wall_s *. 1e9) in
  for i = s.k to n_slices - 1 do
    s.stamps.(i) <- stop
  done;
  List.init n_slices (fun i ->
      max 0 ((if i + 1 < n_slices then s.stamps.(i + 1) else stop) - s.stamps.(i)))

(* -- traced run ------------------------------------------------------------ *)

let floats kvs = J.Obj (List.map (fun (k, v) -> (k, J.Float v)) kvs)

(* Self times from the traced run, as means per op, activation or event. *)
let trace_metrics (t : Tracer.t) (r : Episode.result) ~queue_ns =
  let mean ns n = if n = 0 then 0. else float_of_int ns /. float_of_int n in
  let op name =
    match Tracer.op_of_name name with
    | Some k -> mean (Tracer.op_ns t k) t.Tracer.op_count.(k)
    | None -> invalid_arg name
  in
  let ev name =
    let rec idx i = if Tracer.layer_names.(i) = name then i else idx (i + 1) in
    let l = idx 0 in
    mean (Tracer.layer_ns t l) t.Tracer.layer_events.(l)
  in
  let ops = Array.fold_left ( + ) 0 t.Tracer.op_count in
  let all_op_ns = List.fold_left ( + ) 0 (List.init Tracer.n_ops (Tracer.op_ns t)) in
  let events = List.assoc "sim.events" r.Episode.counts in
  [
    ("sim.ops_per_event", if events = 0. then 0. else float_of_int ops /. events);
    ("sim.queue_ops", float_of_int t.Tracer.queue_ops);
    ("sim.queue_ns_per_op", queue_ns);
    ("preemptdb.activation_tail_ns", mean t.Tracer.bucket_ns.(Tracer.b_tail) t.Tracer.activations);
    ("preemptdb.activation_head_ns", mean t.Tracer.bucket_ns.(Tracer.b_head) t.Tracer.activations);
    ("preemptdb.sched_event_ns", ev "sched");
    ("preemptdb.worker_event_ns", ev "worker");
    ("workload.ops", float_of_int ops);
    ("workload.ops_per_commit", Episode.ratio ops r.Episode.commits);
    ("workload.op_ns", mean all_op_ns ops);
    ("workload.op_ns.yield_hint", op "yield_hint");
  ]
  @ List.map
      (fun k -> ("storage.op_ns." ^ k, op k))
      [
        "index_probe"; "index_insert"; "scan_step"; "record_read"; "record_write"; "record_insert";
        "commit_latch"; "commit_install"; "txn_begin";
      ]
  @ [
      ("uintr.event_ns", ev "uintr");
      ("durability.event_ns", ev "durability");
      ("durability.op_ns.commit_wait", op "commit_wait");
      ("replication.event_ns", ev "replication");
      ("shard.event_ns", ev "shard");
      ("shard.op_ns.gate_wait", op "gate_wait");
      ("maint.event_ns", ev "maint");
      ("maint.op_ns.gc_scan", op "gc_scan");
      ( "host.unattributed_pct",
        100. *. float_of_int (Tracer.layer_ns t Tracer.unattributed)
        /. float_of_int (max 1 (Tracer.total_ns t)) );
    ]

exception Set_up

let () =
  let o, wl, seed = parse_args () in
  let burn_op, burn_ns = match o.burn with Some (k, n) -> (k, n) | None -> (-1, 0) in
  let tracer = ref None in
  let slices = ref None in
  let ready = ref None in
  let first_event = ref 0 in
  let burned = ref 0 in
  (* GC figures cover the DES run only: from the first event to its end *)
  let gc0 = ref (Gc.quick_stat ()) in
  let gc1 = ref !gc0 in
  let on_ready (rd : Episode.ready) =
    ready := Some rd;
    let des = rd.Episode.des in
    if o.setup_only then
      Sim.Des.set_probe des
        (Some
           (fun ~time:_ ~seq:_ ->
             first_event := Tracer.now ();
             raise Set_up))
    else if o.trace then begin
      let t = Tracer.create ~signature:rd.Episode.signature ~burn_op ~burn_ns in
      Tracer.install t des rd.Episode.workers;
      tracer := Some t
    end
    else begin
      let s = slicer ~horizon:rd.Episode.horizon in
      Sim.Des.set_probe des (Some (on_slice s));
      slices := Some s;
      if burn_op >= 0 then
        Array.iter
          (fun w ->
            Preemptdb.Worker.set_op_probe w
              (Some
                 (fun _ op ->
                   if Tracer.op_index op = burn_op then begin
                     incr burned;
                     Tracer.burn burn_ns
                   end)))
          rd.Episode.workers
    end;
    gc0 := Gc.quick_stat ()
  in
  let on_ran () =
    (match !tracer with Some t -> Tracer.finish t | None -> ());
    gc1 := Gc.quick_stat ()
  in
  let hooks = { Episode.on_ready; on_ran } in
  let run () = Episode.run wl ~seed:(Int64.of_int seed) ~check:o.check ~hooks in
  let start_ns () = match !ready with Some rd -> rd.Episode.start_ns | None -> assert false in
  let seconds ns = float_of_int ns /. 1e9 in
  let r =
    try run ()
    with Set_up ->
      let rows = match !ready with Some rd -> rd.Episode.rows | None -> 0 in
      print_endline
        (J.to_string
           (J.Obj
              [
                ("setup_s", J.Float (seconds (!first_event - start_ns ())));
                ("rows_loaded", J.Int rows);
              ]));
      exit 0
  in
  let g0 = !gc0 and g1 = !gc1 in
  let words f = f g1 -. f g0 in
  let alloc =
    words (fun g -> g.Gc.minor_words) +. words (fun g -> g.Gc.major_words)
    -. words (fun g -> g.Gc.promoted_words)
  in
  let peak_mb = float_of_int (g1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576. in
  let host =
    [
      ("alloc_words", alloc);
      ("minor_gcs", float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
      ("major_gcs", float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
      ("top_heap_words", float_of_int g1.Gc.top_heap_words);
      ("peak_heap_mb", peak_mb);
      ("alloc_words_per_commit", alloc /. float_of_int (max 1 r.Episode.commits));
    ]
  in
  let timing =
    match (!tracer, !slices) with
    | Some t, _ ->
      let queue_ns, queue_ok = Tracer.replay_queue t in
      (match o.spans with Some f -> Tracer.write_spans t f | None -> ());
      [
        ("setup_s", J.Float (seconds (t.Tracer.first - start_ns ())));
        ( "trace",
          J.Obj
            [
              ("total_ns", J.Int (Tracer.total_ns t));
              ( "buckets",
                J.Obj
                  (Array.to_list
                     (Array.mapi (fun b name -> (name, J.Int t.Tracer.bucket_ns.(b))) Tracer.bucket_names))
              );
              ("queue_replay_ok", J.Bool queue_ok);
              ("queue_window", J.Int t.Tracer.q_len);
              ("spans", J.Int t.Tracer.sp_len);
              ("metrics", floats (trace_metrics t r ~queue_ns));
            ] );
      ]
    | None, Some s ->
      [
        ("setup_s", J.Float (seconds (s.stamps.(0) - start_ns ())));
        ("slices_ns", J.List (List.map (fun ns -> J.Int ns) (slice_ns s ~wall_s:r.Episode.wall_s)));
      ]
    | None, None -> assert false
  in
  let out =
    J.Obj
      ([
         ("workload", J.String (List.find (fun (_, w) -> w = wl) Episode.workloads |> fst));
         ("seed", J.Int seed);
         ("wall_s", J.Float r.Episode.wall_s);
         ("horizon_us", J.Float r.Episode.horizon_us);
         ("sim_rate", J.Float (r.Episode.horizon_us /. r.Episode.wall_s));
         ("rows_loaded", J.Int r.Episode.rows_loaded);
         ("attempted", J.Int r.Episode.attempted);
         ("failed", J.Int r.Episode.failed);
         ("burned_ops", J.Int !burned);
         ("violations", J.List (List.map (fun v -> J.String v) r.Episode.violations));
         ("virtual", floats r.Episode.virt);
         ("counts", floats r.Episode.counts);
         ("host", floats host);
       ]
      @ timing)
  in
  print_endline (J.to_string out)
