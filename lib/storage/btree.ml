module type KEY = sig
  type t

  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
end

module Make (K : KEY) = struct
  (* A leaf keeps a fill count [n] beside arrays with slack: insert and
     remove shift keys inside the leaf's own arrays, so an insert into a
     leaf with room allocates nothing.  A full leaf reallocates at twice its
     capacity, up to [max_leaf + 1], the size at which it splits into two
     exact halves.  A slack slot holds a copy of a live key, never a removed
     one, so the slack keeps no dead key alive.  Internal nodes
     change only when a child splits; they keep exact-size arrays, copied
     on every update. *)
  let max_leaf = 32
  let max_sep = 32 (* max separators per internal node; children = max_sep+1 *)

  type leaf = {
    mutable lkeys : K.t array;  (* keys [0, n) sorted; the rest is slack *)
    mutable lvals : int array;
    mutable n : int;
    mutable next : leaf option;
  }

  type node = Leaf of leaf | Internal of internal

  and internal = {
    mutable seps : K.t array;  (* child i holds keys < seps.(i); child i+1 >= seps.(i) *)
    mutable children : node array;
  }

  type t = {
    mutable root : node;
    mutable count : int;
    mutable version : int;
    mutable written : bool;  (* some transaction class declares writes to it *)
  }

  let create () =
    {
      root = Leaf { lkeys = [||]; lvals = [||]; n = 0; next = None };
      count = 0;
      version = 0;
      written = false;
    }

  let mark_written t = t.written <- true
  let written t = t.written

  let length t = t.count

  let rec node_height = function
    | Leaf _ -> 1
    | Internal i -> 1 + node_height i.children.(0)

  let height t = node_height t.root

  (* First index in [keys.(0 .. n-1)] whose key is >= k; n if none. *)
  let lower_bound keys n k =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if K.compare keys.(mid) k < 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  (* Child slot for key [k] in an internal node: first separator > k ...
     with our convention (left child < sep <= right), the child index is the
     number of separators <= k. *)
  let child_slot seps k =
    let lo = ref 0 and hi = ref (Array.length seps) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if K.compare seps.(mid) k <= 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  let array_insert a i x =
    let n = Array.length a in
    let b = Array.make (n + 1) x in
    Array.blit a 0 b 0 i;
    Array.blit a i b (i + 1) (n - i);
    b

  let sub a lo len = Array.sub a lo len

  (* Store a binding at [i], shifting the keys after it up one slot; only a
     full leaf reallocates.  The new arrays' slack is filled with [k]. *)
  let leaf_insert l i k v =
    let n = l.n in
    if n < Array.length l.lkeys then begin
      Array.blit l.lkeys i l.lkeys (i + 1) (n - i);
      Array.blit l.lvals i l.lvals (i + 1) (n - i);
      l.lkeys.(i) <- k;
      l.lvals.(i) <- v
    end
    else begin
      let cap = min (max 1 (2 * n)) (max_leaf + 1) in
      let keys = Array.make cap k and vals = Array.make cap v in
      Array.blit l.lkeys 0 keys 0 i;
      Array.blit l.lkeys i keys (i + 1) (n - i);
      Array.blit l.lvals 0 vals 0 i;
      Array.blit l.lvals i vals (i + 1) (n - i);
      l.lkeys <- keys;
      l.lvals <- vals
    end;
    l.n <- n + 1

  (* Remove the binding at [i], shifting the keys after it down one slot.
     Keys die only here, so the slack is refilled with a live key (an
     emptied leaf drops its arrays): whatever copies of the removed key it
     held are gone. *)
  let leaf_remove l i =
    let n = l.n - 1 in
    Array.blit l.lkeys (i + 1) l.lkeys i (n - i);
    Array.blit l.lvals (i + 1) l.lvals i (n - i);
    l.n <- n;
    if n = 0 then begin
      l.lkeys <- [||];
      l.lvals <- [||]
    end
    else Array.fill l.lkeys n (Array.length l.lkeys - n) l.lkeys.(n - 1)

  type split = { sep : K.t; right : node }

  (* An insert that finds its key replaces the binding and unwinds with the
     old one, so the common path returns only its split, allocating no
     result pair. *)
  exception Replaced of int

  let rec insert_node node k v =
    match node with
    | Leaf l ->
      let i = lower_bound l.lkeys l.n k in
      if i < l.n && K.compare l.lkeys.(i) k = 0 then begin
        let old = l.lvals.(i) in
        l.lvals.(i) <- v;
        raise_notrace (Replaced old)
      end;
      leaf_insert l i k v;
      let n = l.n in
      if n <= max_leaf then None
      else begin
        let mid = n / 2 in
        let right =
          {
            lkeys = sub l.lkeys mid (n - mid);
            lvals = sub l.lvals mid (n - mid);
            n = n - mid;
            next = l.next;
          }
        in
        l.lkeys <- sub l.lkeys 0 mid;
        l.lvals <- sub l.lvals 0 mid;
        l.n <- mid;
        l.next <- Some right;
        Some { sep = right.lkeys.(0); right = Leaf right }
      end
    | Internal nd -> (
      let slot = child_slot nd.seps k in
      match insert_node nd.children.(slot) k v with
      | None -> None
      | Some { sep; right } ->
        nd.seps <- array_insert nd.seps slot sep;
        nd.children <- array_insert nd.children (slot + 1) right;
        let ns = Array.length nd.seps in
        if ns <= max_sep then None
        else begin
          (* Promote the middle separator. *)
          let mid = ns / 2 in
          let promoted = nd.seps.(mid) in
          let right_node =
            {
              seps = sub nd.seps (mid + 1) (ns - mid - 1);
              children = sub nd.children (mid + 1) (ns - mid);
            }
          in
          nd.seps <- sub nd.seps 0 mid;
          nd.children <- sub nd.children 0 (mid + 1);
          Some { sep = promoted; right = Internal right_node }
        end)

  let insert t k v =
    match insert_node t.root k v with
    | split ->
      (match split with
      | None -> ()
      | Some { sep; right } ->
        t.root <- Internal { seps = [| sep |]; children = [| t.root; right |] });
      t.count <- t.count + 1;
      t.version <- t.version + 1;
      None
    | exception Replaced old ->
      t.version <- t.version + 1;
      Some old

  let rec find_node node k =
    match node with
    | Leaf l ->
      let i = lower_bound l.lkeys l.n k in
      if i < l.n && K.compare l.lkeys.(i) k = 0 then Some l.lvals.(i) else None
    | Internal nd -> find_node nd.children.(child_slot nd.seps k) k

  let find t k = find_node t.root k

  let rec remove_node node k =
    match node with
    | Leaf l ->
      let i = lower_bound l.lkeys l.n k in
      if i < l.n && K.compare l.lkeys.(i) k = 0 then begin
        let old = l.lvals.(i) in
        leaf_remove l i;
        Some old
      end
      else None
    | Internal nd -> remove_node nd.children.(child_slot nd.seps k) k

  let remove t k =
    match remove_node t.root k with
    | None -> None
    | Some old ->
      t.count <- t.count - 1;
      t.version <- t.version + 1;
      Some old

  let rec leftmost_leaf = function
    | Leaf l -> l
    | Internal nd -> leftmost_leaf nd.children.(0)

  (* Leftmost leaf that can contain a key >= k, with the in-leaf index. *)
  let rec seek_node node k =
    match node with
    | Leaf l -> l, lower_bound l.lkeys l.n k
    | Internal nd -> seek_node nd.children.(child_slot nd.seps k) k

  (* Skip empty leaves (lazy deletion can empty one out). *)
  let rec advance leaf idx =
    match leaf with
    | None -> None
    | Some l ->
      if idx < l.n then Some (l, idx) else advance l.next 0

  let iter t f =
    let rec loop leaf idx =
      match advance leaf idx with
      | None -> ()
      | Some (l, i) ->
        f l.lkeys.(i) l.lvals.(i);
        loop (Some l) (i + 1)
    in
    loop (Some (leftmost_leaf t.root)) 0

  type cursor = {
    tree : t;
    lo : K.t;
    hi : K.t;
    mutable pos : (leaf * int) option;
    mutable last : K.t option;  (* last returned key, for re-seek *)
    mutable seen_version : int;
  }

  let cursor t ~lo ~hi =
    let l, i = seek_node t.root lo in
    { tree = t; lo; hi; pos = advance (Some l) i; last = None; seen_version = t.version }

  (* The tree changed under the cursor: restart from just after the last
     returned key (or from lo if nothing was returned yet). *)
  let reseek c =
    c.seen_version <- c.tree.version;
    let start = match c.last with None -> c.lo | Some k -> k in
    let l, i = seek_node c.tree.root start in
    let pos = advance (Some l) i in
    let pos =
      match c.last, pos with
      | Some k, Some (l', i') when K.compare l'.lkeys.(i') k = 0 -> advance (Some l') (i' + 1)
      | (Some _ | None), pos -> pos
    in
    c.pos <- pos

  let cursor_next c =
    if c.seen_version <> c.tree.version then reseek c;
    match c.pos with
    | None -> None
    | Some (l, i) ->
      let k = l.lkeys.(i) and v = l.lvals.(i) in
      if K.compare k c.hi > 0 then begin
        c.pos <- None;
        None
      end
      else begin
        c.last <- Some k;
        c.pos <- advance (Some l) (i + 1);
        Some (k, v)
      end

  let check_invariants t =
    let fail fmt = Format.kasprintf failwith fmt in
    (* 1. uniform depth + per-node checks with key-range bounds *)
    let rec walk node lo hi =
      (* every key k in [node] must satisfy lo <= k < hi (either bound may
         be absent) *)
      let in_bounds k =
        (match lo with Some b -> K.compare b k <= 0 | None -> true)
        && match hi with Some b -> K.compare k b < 0 | None -> true
      in
      match node with
      | Leaf l ->
        if Array.length l.lkeys <> Array.length l.lvals then
          fail "leaf key/val capacity mismatch";
        if l.n < 0 || l.n > Array.length l.lkeys then fail "leaf fill outside its capacity";
        if l.n > max_leaf then fail "leaf holds %d keys, past %d" l.n max_leaf;
        for i = 0 to l.n - 1 do
          let k = l.lkeys.(i) in
          if not (in_bounds k) then fail "leaf key out of separator bounds";
          if i > 0 && K.compare l.lkeys.(i - 1) k >= 0 then fail "leaf keys not sorted"
        done;
        1, l.n
      | Internal nd ->
        let ns = Array.length nd.seps in
        if Array.length nd.children <> ns + 1 then fail "internal arity mismatch";
        if ns = 0 then fail "internal node with no separator";
        Array.iteri
          (fun i k ->
            if not (in_bounds k) then fail "separator out of bounds";
            if i > 0 && K.compare nd.seps.(i - 1) k >= 0 then fail "separators not sorted")
          nd.seps;
        let depth = ref 0 and total = ref 0 in
        Array.iteri
          (fun i child ->
            let clo = if i = 0 then lo else Some nd.seps.(i - 1) in
            let chi = if i = ns then hi else Some nd.seps.(i) in
            let d, n = walk child clo chi in
            total := !total + n;
            if !depth = 0 then depth := d
            else if d <> !depth then fail "leaves at different depths")
          nd.children;
        !depth + 1, !total
    in
    let _, total = walk t.root None None in
    if total <> t.count then fail "count mismatch: tree says %d, found %d" t.count total;
    (* 2. the leaf chain visits every key in ascending order *)
    let chained = ref 0 in
    let prev = ref None in
    let rec follow l =
      for i = 0 to l.n - 1 do
        let k = l.lkeys.(i) in
        (match !prev with
        | Some p when K.compare p k >= 0 -> fail "leaf chain out of order"
        | Some _ | None -> ());
        prev := Some k;
        incr chained
      done;
      match l.next with Some nxt -> follow nxt | None -> ()
    in
    follow (leftmost_leaf t.root);
    if !chained <> t.count then
      fail "leaf chain misses keys: chained %d, count %d" !chained t.count
end

module Int_key = struct
  type t = int

  let compare = Int.compare
  let pp = Format.pp_print_int
end

module Str_key = struct
  type t = string

  let compare = String.compare
  let pp ppf s = Format.fprintf ppf "%S" s
end

module Int_tree = Make (Int_key)
module Str_tree = Make (Str_key)
