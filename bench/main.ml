(* Benchmark harness entry point: regenerates every table and figure of
   the paper's evaluation (§6) plus the DESIGN.md ablations and the
   extensions.

     dune exec bench/main.exe                              # everything
     dune exec bench/main.exe -- --only fig10              # one experiment
     dune exec bench/main.exe -- --only fig8 --out results # + JSON/CSV dumps
     dune exec bench/main.exe -- --list
     PREEMPTDB_BENCH_QUICK=1 dune exec bench/main.exe      # 4x shorter runs *)

let experiments =
  [
    "uintr-micro", Experiments.uintr_micro;
    "fig1", Experiments.fig1;
    "fig8", Experiments.fig8;
    "tpcc", Experiments.tpcc;
    "fig9", Experiments.fig9;
    "fig10", Experiments.fig10;
    "fig11", Experiments.fig11;
    "fig12", Experiments.fig12;
    "fig13", Experiments.fig13;
    "ablation", Experiments.ablation;
    "ablation-regions", Experiments.ablation_regions;
    "multilevel", Experiments.multilevel;
    "htap", Experiments.htap;
    "resilience", Experiments.resilience;
    "memory", Experiments.memory;
    "durability", Experiments.durability;
    "failover", Experiments.failover;
    "shard", Experiments.shard;
    "perf", Experiments.perf;
  ]

let usage =
  "usage: main.exe [--list] [--only NAME]... [--out DIR]\n\
   \  --list        print the experiment names and exit\n\
   \  --only NAME   run only NAME (repeatable; also accepts several names\n\
   \                after one --only); unknown names are an error\n\
   \  --out DIR     also write machine-readable results to DIR/<experiment>.{json,csv}\n\
   \  -h, --help    show this message\n"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "main.exe: %s\n%s" msg usage;
      exit 2)
    fmt

let is_flag a = String.length a > 0 && a.[0] = '-'

let validate name =
  if not (List.mem_assoc name experiments) then
    die "unknown experiment %S (try --list)" name;
  name

(* Strict parse: every argument is a known flag or an operand of one;
   anything else is an error, not a silent run-everything. *)
let rec parse only out = function
  | [] -> List.rev only, out
  | "--list" :: _ ->
    List.iter (fun (name, _) -> print_endline name) experiments;
    exit 0
  | ("-h" | "--help") :: _ ->
    print_string usage;
    exit 0
  | [ "--only" ] -> die "--only needs an experiment name"
  | "--only" :: rest ->
    let rec names acc = function
      | a :: rest when not (is_flag a) -> names (validate a :: acc) rest
      | rest ->
        if acc = [] then die "--only needs an experiment name";
        acc, rest
    in
    let picked, rest = names [] rest in
    parse (picked @ only) out rest
  | [ "--out" ] -> die "--out needs a directory"
  | "--out" :: dir :: _ when is_flag dir -> die "--out needs a directory"
  | "--out" :: dir :: rest -> parse only (Some dir) rest
  | arg :: _ -> die "unknown argument %S" arg

let () =
  let only, out = parse [] None (List.tl (Array.to_list Sys.argv)) in
  Option.iter Experiments.set_out_dir out;
  let selected =
    match only with
    | [] -> experiments
    | names -> List.map (fun name -> name, List.assoc name experiments) names
  in
  let t0 = Unix.gettimeofday () in
  List.iter (fun (name, f) -> Experiments.run_one name f) selected;
  if List.length selected > 1 then
    Format.printf "@.total wall time: %.0fs@." (Unix.gettimeofday () -. t0);
  match out with
  | Some dir -> Format.printf "@.results written to %s/@." dir
  | None -> ()
