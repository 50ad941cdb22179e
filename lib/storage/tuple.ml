type t = { oid : int; mutable chain : Version.t; mutable owner : int; mutable depth : int }

let create ~oid = { oid; chain = Version.nil; owner = -1; depth = 0 }

let install t v =
  v.Version.next <- t.chain;
  t.chain <- v

let written_by v writer = match v.Version.writer with Some w -> w = writer | None -> false

let unlink_in_flight t ~writer =
  let head = t.chain in
  if Version.is_nil head then ()
  else if written_by head writer then t.chain <- head.Version.next
  else begin
    (* The writer's in-flight version can sit below the head if another
       transaction squeezed a version in above it (e.g. under an injected
       first-updater-wins fault, or after a concurrent GC pass touched the
       chain).  Eagerly splice it out wherever it is so aborted garbage
       never lingers for visibility rules to skip. *)
    let rec splice prev =
      let v = prev.Version.next in
      if Version.is_nil v then ()
      else if written_by v writer then prev.Version.next <- v.Version.next
      else splice v
    in
    splice head
  end

let head t = t.chain

(* [nil.data] is [None], so a chain with nothing committed reads as absent. *)
let read_committed t = (Version.latest_committed t.chain).Version.data

let try_latch t ~owner =
  if t.owner = -1 then begin
    t.owner <- owner;
    t.depth <- 1;
    true
  end
  else if t.owner = owner then begin
    t.depth <- t.depth + 1;
    true
  end
  else false

let unlatch t ~owner =
  if t.owner = owner && owner <> -1 then begin
    t.depth <- t.depth - 1;
    if t.depth = 0 then t.owner <- -1
  end
  else invalid_arg (Printf.sprintf "Tuple.unlatch: oid %d not latched by txn %d" t.oid owner)

let latch_holder t = if t.owner = -1 then None else Some t.owner
