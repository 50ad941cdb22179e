module J = Obs.Json

type forced =
  | Every of { period : int; phase : int }
  | At of int list

type t = {
  seed : int64;
  workers : int;
  horizon_us : float;
  arrival_us : float;
  jitter_pct : int;
  forced : forced option;
}

let default =
  {
    seed = 42L;
    workers = 2;
    horizon_us = 3000.;
    arrival_us = 25.;
    jitter_pct = 20;
    forced = None;
  }

let describe t =
  let forced =
    match t.forced with
    | None -> "none"
    | Some (Every { period; phase }) -> Printf.sprintf "every %d phase %d" period phase
    | Some (At l) ->
      let n = List.length l in
      if n <= 6 then Printf.sprintf "at [%s]" (String.concat ";" (List.map string_of_int l))
      else Printf.sprintf "at <%d points>" n
  in
  Printf.sprintf "seed=%Ld workers=%d horizon=%.0fus arrival=%.1fus jitter=%d%% forced=%s"
    t.seed t.workers t.horizon_us t.arrival_us t.jitter_pct forced

let to_json t =
  let forced =
    match t.forced with
    | None -> J.Null
    | Some (Every { period; phase }) ->
      J.Obj [ ("every", J.Int period); ("phase", J.Int phase) ]
    | Some (At l) -> J.Obj [ ("at", J.List (List.map (fun i -> J.Int i) l)) ]
  in
  J.Obj
    [
      ("seed", J.String (Int64.to_string t.seed));
      ("workers", J.Int t.workers);
      ("horizon_us", J.Float t.horizon_us);
      ("arrival_us", J.Float t.arrival_us);
      ("jitter_pct", J.Int t.jitter_pct);
      ("forced", forced);
    ]

let of_json j =
  let ( let* ) r f = Result.bind r f in
  let field name conv =
    match J.member name j with
    | None -> Error (Printf.sprintf "schedule: missing field %S" name)
    | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "schedule: bad field %S" name))
  in
  let* seed =
    field "seed" (fun v ->
        match J.to_string_opt v with Some s -> Int64.of_string_opt s | None -> None)
  in
  let* workers = field "workers" J.to_int_opt in
  let* horizon_us = field "horizon_us" J.to_float_opt in
  let* arrival_us = field "arrival_us" J.to_float_opt in
  let* jitter_pct = field "jitter_pct" J.to_int_opt in
  let* forced =
    match J.member "forced" j with
    | None | Some J.Null -> Ok None
    | Some f -> (
      match (J.member "every" f, J.member "at" f) with
      | Some p, _ -> (
        match (J.to_int_opt p, Option.bind (J.member "phase" f) J.to_int_opt) with
        | Some period, Some phase -> Ok (Some (Every { period; phase }))
        | _ -> Error "schedule: bad forced.every")
      | None, Some (J.List l) ->
        let points = List.filter_map J.to_int_opt l in
        if List.length points = List.length l then Ok (Some (At points))
        else Error "schedule: bad forced.at"
      | _ -> Error "schedule: bad forced")
  in
  Ok { seed; workers; horizon_us; arrival_us; jitter_pct; forced }
