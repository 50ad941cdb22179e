type priority = Low | High | Urgent

let priority_to_string = function Low -> "low" | High -> "high" | Urgent -> "urgent"

let rank = function Low -> 0 | High -> 1 | Urgent -> 2

type t = {
  id : int;
  label : string;
  priority : priority;
  maintenance : bool;
  prog : Workload.Program.t;
  rng : Sim.Rng.t;
  submitted_at : int64;
  mutable started_at : int64 option;
  mutable finished_at : int64 option;
  mutable outcome : Workload.Program.outcome option;
  mutable preemptions : int;
}

let make ~id ~label ~priority ~prog ~rng ~submitted_at =
  {
    id;
    label;
    priority;
    maintenance = false;
    prog;
    rng;
    submitted_at;
    started_at = None;
    finished_at = None;
    outcome = None;
    preemptions = 0;
  }

let scheduling_latency t =
  Option.map (fun s -> Int64.sub s t.submitted_at) t.started_at

let end_to_end_latency t =
  Option.map (fun f -> Int64.sub f t.submitted_at) t.finished_at

let committed t =
  match t.outcome with Some (Workload.Program.Committed _) -> true | _ -> false
