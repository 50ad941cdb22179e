type entry = {
  gate : int;
  participants : int list;
  mutable yes : int list;  (* shards whose yes vote arrived *)
}

type t = {
  gates : Uintr.Gate.t;
  tbl : (int, entry) Hashtbl.t;
  mutable timeouts_ : int;
  mutable late_votes_ : int;
  mutable dup_votes_ : int;
}

let create ~gates =
  {
    gates;
    tbl = Hashtbl.create 64;
    timeouts_ = 0;
    late_votes_ = 0;
    dup_votes_ = 0;
  }

let register t ~gid ~participants =
  if participants = [] then invalid_arg "Coordinator.register: no participants";
  if Hashtbl.mem t.tbl gid then
    invalid_arg (Printf.sprintf "Coordinator.register: gid %d already pending" gid);
  let gate = Uintr.Gate.fresh t.gates in
  Hashtbl.replace t.tbl gid { gate; participants; yes = [] };
  gate

let decide t gid (e : entry) ~commit =
  Hashtbl.remove t.tbl gid;
  Uintr.Gate.resolve t.gates e.gate ~value:(if commit then 1 else 0)

let on_vote t ~gid ~shard ~yes =
  match Hashtbl.find_opt t.tbl gid with
  | None -> t.late_votes_ <- t.late_votes_ + 1
  | Some e ->
    if not yes then decide t gid e ~commit:false
    else if List.mem shard e.yes then t.dup_votes_ <- t.dup_votes_ + 1
    else begin
      e.yes <- shard :: e.yes;
      if List.for_all (fun p -> List.mem p e.yes) e.participants then
        decide t gid e ~commit:true
    end

let timeout t ~gid =
  match Hashtbl.find_opt t.tbl gid with
  | None -> ()
  | Some e ->
    t.timeouts_ <- t.timeouts_ + 1;
    decide t gid e ~commit:false

let cancel t ~gid = Hashtbl.remove t.tbl gid
let pending t = Hashtbl.length t.tbl
let timeouts t = t.timeouts_
let late_votes t = t.late_votes_
let dup_votes t = t.dup_votes_
