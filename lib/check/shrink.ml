type result = { schedule : Schedule.t; run : Harness.run; evals : int }

let minimize ?(max_evals = 150) (failing : Harness.run) =
  let { Harness.workload; fault; plan; reclaim; _ } = failing in
  let evals = ref 0 in
  let best = ref failing in
  let try_schedule s =
    if !evals >= max_evals then None
    else begin
      incr evals;
      match Harness.run ?fault ?plan ~reclaim ~workload s with
      | r when Harness.failed r ->
        best := r;
        Some r
      | _ -> None
    end
  in
  let current () = !best.Harness.schedule in
  (* 1. drop jitter *)
  let s = current () in
  if s.Schedule.jitter_pct <> 0 then
    ignore (try_schedule { s with Schedule.jitter_pct = 0 });
  (* 2. materialize Every into the fired point list *)
  (match (current ()).Schedule.forced with
  | Some (Schedule.Every _) ->
    let fired = !best.Harness.forced_fired in
    if fired <> [] && List.length fired <= 2048 then
      ignore (try_schedule { (current ()) with Schedule.forced = Some (Schedule.At fired) })
  | _ -> ());
  (* 3. ddmin the explicit point list *)
  let rec ddmin points n =
    let len = List.length points in
    if len <= 1 || !evals >= max_evals then points
    else begin
      let n = min n len in
      let chunk_size = (len + n - 1) / n in
      let chunks =
        List.init n (fun i ->
            List.filteri (fun j _ -> j >= i * chunk_size && j < (i + 1) * chunk_size) points)
      in
      let complement i =
        List.concat (List.filteri (fun j _ -> j <> i) chunks)
      in
      let rec try_complements i =
        if i >= n then None
        else
          let cand = complement i in
          if cand = [] then try_complements (i + 1)
          else
            match try_schedule { (current ()) with Schedule.forced = Some (Schedule.At cand) } with
            | Some _ -> Some cand
            | None -> try_complements (i + 1)
      in
      match try_complements 0 with
      | Some smaller -> ddmin smaller (max (n - 1) 2)
      | None -> if n < len then ddmin points (min len (2 * n)) else points
    end
  in
  (match (current ()).Schedule.forced with
  | Some (Schedule.At points) when List.length points > 1 -> ignore (ddmin points 2)
  | _ -> ());
  (* 4. halve the horizon while the failure persists *)
  let rec shrink_horizon () =
    let s = current () in
    let h = s.Schedule.horizon_us /. 2. in
    if h >= 200. && !evals < max_evals then
      match try_schedule { s with Schedule.horizon_us = h } with
      | Some _ -> shrink_horizon ()
      | None -> ()
  in
  shrink_horizon ();
  { schedule = current (); run = !best; evals = !evals }
