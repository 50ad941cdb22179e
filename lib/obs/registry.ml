type labels = (string * string) list

type counter = { mutable c : int }

type instrument =
  | Counter of counter
  | Histogram of Sim.Histogram.t

(* Insertion-ordered: snapshots list metrics in registration order, which
   keeps JSON/CSV output deterministic. *)
type t = {
  tbl : (string * labels, instrument) Hashtbl.t;
  mutable order : (string * labels) list;  (* reversed *)
}

let create () = { tbl = Hashtbl.create 32; order = [] }

let find_or_add t name labels mk =
  let key = (name, labels) in
  match Hashtbl.find_opt t.tbl key with
  | Some i -> i
  | None ->
    let i = mk () in
    Hashtbl.replace t.tbl key i;
    t.order <- key :: t.order;
    i

let counter t ?(labels = []) name =
  match find_or_add t name labels (fun () -> Counter { c = 0 }) with
  | Counter c -> c
  | _ -> invalid_arg (Printf.sprintf "Registry.counter: %S is not a counter" name)

let add c n = c.c <- c.c + n

let attach_histogram t ?(labels = []) name h =
  ignore (find_or_add t name labels (fun () -> Histogram h))

let snapshot t =
  List.rev_map (fun key -> key, Hashtbl.find t.tbl key) t.order

let pcts = [ "p50", 50.; "p90", 90.; "p99", 99.; "p999", 99.9 ]

let labels_json labels = Json.Obj (List.map (fun (k, v) -> k, Json.String v) labels)

let hist_fields ?clock h =
  if Sim.Histogram.is_empty h then [ "count", Json.Int 0 ]
  else begin
    let base =
      [
        "count", Json.Int (Sim.Histogram.count h);
        "min", Json.Int (Int64.to_int (Sim.Histogram.min_value h));
        "mean", Json.Float (Sim.Histogram.mean h);
        "max", Json.Int (Int64.to_int (Sim.Histogram.max_value h));
      ]
      @ List.map
          (fun (tag, p) -> tag, Json.Int (Int64.to_int (Sim.Histogram.percentile h p)))
          pcts
    in
    match clock with
    | None -> base
    | Some clock ->
      base
      @ List.map
          (fun (tag, p) ->
            ( tag ^ "_us",
              Json.Float (Sim.Clock.us_of_cycles clock (Sim.Histogram.percentile h p)) ))
          pcts
  end

let to_json ?clock t =
  let counters = ref [] and hists = ref [] in
  List.iter
    (fun ((name, labels), inst) ->
      let head = [ "name", Json.String name; "labels", labels_json labels ] in
      match inst with
      | Counter c -> counters := Json.Obj (head @ [ "value", Json.Int c.c ]) :: !counters
      | Histogram h -> hists := Json.Obj (head @ hist_fields ?clock h) :: !hists)
    (snapshot t);
  Json.Obj
    [
      "counters", Json.List (List.rev !counters);
      (* no instrument is a gauge; the key stays for readers of the format *)
      "gauges", Json.List [];
      "histograms", Json.List (List.rev !hists);
    ]

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "kind,name,labels,value,count,p50,p90,p99,p999,max\n";
  let labels_str labels =
    String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
  in
  List.iter
    (fun ((name, labels), inst) ->
      let row kind value rest =
        Buffer.add_string buf
          (Printf.sprintf "%s,%s,%s,%s,%s\n" kind (csv_escape name)
             (csv_escape (labels_str labels))
             value rest)
      in
      match inst with
      | Counter c -> row "counter" (string_of_int c.c) ",,,,"
      | Histogram h ->
        if Sim.Histogram.is_empty h then row "histogram" "" "0,,,,"
        else
          row "histogram" ""
            (Printf.sprintf "%d,%Ld,%Ld,%Ld,%Ld,%Ld" (Sim.Histogram.count h)
               (Sim.Histogram.percentile h 50.)
               (Sim.Histogram.percentile h 90.)
               (Sim.Histogram.percentile h 99.)
               (Sim.Histogram.percentile h 99.9)
               (Sim.Histogram.max_value h)))
    (snapshot t);
  Buffer.contents buf
