module Hw = Uintr.Hw_thread

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L
let max_sample = 64

type t = {
  mutable h : int64;
  mutable des_events_ : int;
  mutable switches_ : int;
  mutable commits_ : int;
  mutable forced_rev : int list;
  mutable sample_rev : string list;
  mutable n_sample : int;
}

let create () =
  {
    h = fnv_offset;
    des_events_ = 0;
    switches_ = 0;
    commits_ = 0;
    forced_rev = [];
    sample_rev = [];
    n_sample = 0;
  }

let mix_byte t b = t.h <- Int64.mul (Int64.logxor t.h (Int64.of_int (b land 0xff))) fnv_prime

let mix64 t x =
  for i = 0 to 7 do
    mix_byte t (Int64.to_int (Int64.shift_right_logical x (i * 8)) land 0xff)
  done

let mix_int t x = mix64 t (Int64.of_int x)

let note t line =
  if t.n_sample < max_sample then begin
    t.sample_rev <- line :: t.sample_rev;
    t.n_sample <- t.n_sample + 1
  end

let on_des_event t ~time ~seq =
  mix_int t 1;
  mix64 t time;
  mix_int t seq;
  t.des_events_ <- t.des_events_ + 1

let on_delivery t ~flow ~latency =
  mix_int t 2;
  mix_int t flow;
  mix_int t latency;
  note t (Printf.sprintf "deliver flow=%d latency=%d" flow latency)

let on_switch t (r : Hw.switch_record) =
  mix_int t 3;
  mix_int t (match r.Hw.sw_kind with `Passive -> 0 | `Active -> 1);
  mix_int t r.Hw.sw_from;
  mix_int t r.Hw.sw_to;
  mix_int t (if r.Hw.sw_retire then 1 else 0);
  mix_int t r.Hw.sw_from_rip;
  mix_int t r.Hw.sw_to_rip;
  t.switches_ <- t.switches_ + 1;
  note t
    (Printf.sprintf "%s-switch %d->%d%s rip %d/%d"
       (match r.Hw.sw_kind with `Passive -> "passive" | `Active -> "active")
       r.Hw.sw_from r.Hw.sw_to
       (if r.Hw.sw_retire then " retire" else "")
       r.Hw.sw_from_rip r.Hw.sw_to_rip)

let on_commit t ~id ~commit_ts =
  mix_int t 4;
  mix_int t id;
  mix64 t commit_ts;
  t.commits_ <- t.commits_ + 1

let on_forced t idx =
  mix_int t 5;
  mix_int t idx;
  t.forced_rev <- idx :: t.forced_rev;
  note t (Printf.sprintf "forced-preempt @op %d" idx)

let hash t = t.h
let hash_hex t = Printf.sprintf "%016Lx" t.h
let des_events t = t.des_events_
let switches t = t.switches_
let commits t = t.commits_
let forced t = List.rev t.forced_rev
let sample t = List.rev t.sample_rev
