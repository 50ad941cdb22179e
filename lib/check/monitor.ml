module Hw = Uintr.Hw_thread
module Worker = Preemptdb.Worker

(* Violations kept; any beyond this many only count as dropped. *)
let cap = 200

type t = {
  mutable switches_ : int;
  mutable passive_ : int;
  mutable n_violations : int;
  mutable violations_rev : Violation.t list;
  mutable dropped_ : int;
  suspended : (int * int, int) Hashtbl.t;  (* (worker, ctx) -> rip at suspension *)
}

let create () =
  {
    switches_ = 0;
    passive_ = 0;
    n_violations = 0;
    violations_rev = [];
    dropped_ = 0;
    suspended = Hashtbl.create 64;
  }

let add t v =
  if t.n_violations < cap then begin
    t.violations_rev <- v :: t.violations_rev;
    t.n_violations <- t.n_violations + 1
  end
  else t.dropped_ <- t.dropped_ + 1

let kind_str = function `Passive -> "passive" | `Active -> "active"

let on_switch t ~regions_enabled ~wid ~hw (r : Hw.switch_record) =
  t.switches_ <- t.switches_ + 1;
  if r.Hw.sw_kind = `Passive then t.passive_ <- t.passive_ + 1;
  if regions_enabled && r.Hw.sw_region_depth > 0 then
    add t
      (Violation.make "region-discipline"
         "worker %d: %s switch ctx %d -> %d departed a non-preemptible region (depth %d)" wid
         (kind_str r.Hw.sw_kind) r.Hw.sw_from r.Hw.sw_to r.Hw.sw_region_depth);
  if not (Hw.cls_consistent hw) then
    add t
      (Violation.make "cls" "worker %d: fs/gs CLS mapping inconsistent after switch to ctx %d"
         wid r.Hw.sw_to);
  (* departing context *)
  if r.Hw.sw_retire then begin
    if Hashtbl.mem t.suspended (wid, r.Hw.sw_from) then
      add t
        (Violation.make "tcb" "worker %d: ctx %d retired while a suspended frame was outstanding"
           wid r.Hw.sw_from)
  end
  else begin
    if r.Hw.sw_from_frame_depth < 1 then
      add t
        (Violation.make "stack" "worker %d: ctx %d suspended but its frame depth is %d" wid
           r.Hw.sw_from r.Hw.sw_from_frame_depth);
    Hashtbl.replace t.suspended (wid, r.Hw.sw_from) r.Hw.sw_from_rip
  end;
  (* arriving context *)
  match Hashtbl.find_opt t.suspended (wid, r.Hw.sw_to) with
  | Some rip ->
    if not r.Hw.sw_restored_frame then
      add t
        (Violation.make "tcb"
           "worker %d: ctx %d had a suspended frame but resumed without restoring one" wid
           r.Hw.sw_to)
    else if r.Hw.sw_to_rip <> rip then
      add t
        (Violation.make "tcb" "worker %d: ctx %d resumed at rip %d, was suspended at rip %d" wid
           r.Hw.sw_to r.Hw.sw_to_rip rip);
    Hashtbl.remove t.suspended (wid, r.Hw.sw_to)
  | None ->
    if r.Hw.sw_restored_frame then
      add t
        (Violation.make "tcb" "worker %d: ctx %d restored a frame that was never suspended" wid
           r.Hw.sw_to)

let install t ~regions_enabled ?tee workers =
  Array.iter
    (fun w ->
      let wid = Worker.id w in
      let hw = Worker.hw w in
      Hw.set_switch_monitor hw
        (Some
           (fun r ->
             (match tee with Some f -> f r | None -> ());
             on_switch t ~regions_enabled ~wid ~hw r)))
    workers

let uninstall workers =
  Array.iter (fun w -> Hw.set_switch_monitor (Worker.hw w) None) workers

let violations t = List.rev t.violations_rev
let dropped t = t.dropped_
let switches t = t.switches_
let passive t = t.passive_
