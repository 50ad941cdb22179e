(* A unidirectional payload channel over the interrupt fabric.

   senduipi posts carry no data (§2.3): a flow id is the whole message.
   Replication needs to move actual bytes — log record batches, acks,
   heartbeats — so a channel models the data path next to the doorbell
   path: per-message latency is a base cost plus a per-byte term with the
   same ±20 % jitter the fabric applies to deliveries, and every send runs
   through the fabric's fault-plan delivery model
   ({!Fabric.channel_deliveries}), so plans that lose, duplicate or delay
   interrupts perturb replication traffic identically.

   [sever] models a crashed endpoint: subsequent sends are refused and
   messages still in flight are dropped at delivery time (the wire does
   not outlive the machine).

   Two messages can land at the same virtual cycle (zero-jitter configs,
   or jitter collapsing distinct sends onto one instant).  Their relative
   order used to fall out of the DES queue's insertion order — correct
   today, but implicit and fragile under queue changes.  Delivery is now
   explicitly tie-broken: each in-flight copy carries a per-channel send
   sequence number, same-instant copies are buffered per delivery time,
   and a single drain event delivers them in ascending sequence order. *)

type 'a inflight = { seq : int; msg : 'a }

type 'a t = {
  des : Sim.Des.t;
  fab : Fabric.t;
  name_ : string;
  base_latency : int;
  per_byte : int;
  rng : Sim.Rng.t;
  mutable on_deliver : ('a -> unit) option;
  mutable severed_ : bool;
  mutable sends_ : int;
  mutable seq_ : int;
  mutable delivered_ : int;
  mutable lost_ : int;
  mutable duplicated_ : int;
  mutable bytes_ : int;
  pending : (int, 'a inflight list ref) Hashtbl.t;
      (* delivery time → same-instant copies, newest first *)
}

let create ?(base_latency = 1200) ?(per_byte = 1) des ~fabric ~name =
  (* the least a send can take: the base latency less its jitter, since
     [n - n/5] grows with [n] *)
  Sim.Des.add_path des ~least_latency:(max 1 (base_latency - (base_latency / 5)));
  {
    des;
    fab = fabric;
    name_ = name;
    base_latency;
    per_byte;
    rng = Sim.Rng.split (Sim.Des.rng des);
    on_deliver = None;
    severed_ = false;
    sends_ = 0;
    seq_ = 0;
    delivered_ = 0;
    lost_ = 0;
    duplicated_ = 0;
    bytes_ = 0;
    pending = Hashtbl.create 16;
  }

let set_on_deliver t f = t.on_deliver <- Some f
let name t = t.name_

let send t ~bytes msg =
  if not t.severed_ then begin
    t.sends_ <- t.sends_ + 1;
    t.bytes_ <- t.bytes_ + bytes;
    let nominal = t.base_latency + (t.per_byte * bytes) in
    let jitter = Sim.Rng.int_in t.rng (-(nominal / 5)) (nominal / 5) in
    let latency = max 1 (nominal + jitter) in
    match Fabric.channel_deliveries t.fab ~latency with
    | [] -> t.lost_ <- t.lost_ + 1
    | ls ->
      t.duplicated_ <- t.duplicated_ + (List.length ls - 1);
      List.iter
        (fun lat ->
          let lat = max 1 lat in
          let at = Sim.Des.now_int t.des + lat in
          let seq = t.seq_ in
          t.seq_ <- t.seq_ + 1;
          match Hashtbl.find_opt t.pending at with
          | Some bucket -> bucket := { seq; msg } :: !bucket
          | None ->
            let bucket = ref [ { seq; msg } ] in
            Hashtbl.add t.pending at bucket;
            Sim.Des.schedule_at_int t.des ~time:at (fun _des ->
                Hashtbl.remove t.pending at;
                if not t.severed_ then
                  let copies =
                    List.sort (fun a b -> compare a.seq b.seq) !bucket
                  in
                  List.iter
                    (fun c ->
                      t.delivered_ <- t.delivered_ + 1;
                      match t.on_deliver with
                      | Some f -> f c.msg
                      | None -> ())
                    copies))
        ls
  end

let sever t = t.severed_ <- true
let sends t = t.sends_
let delivered t = t.delivered_
let lost t = t.lost_
let duplicated t = t.duplicated_
let bytes_sent t = t.bytes_
