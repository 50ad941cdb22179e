module type KEY = sig
  type t

  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
end

module Make (K : KEY) = struct
  (* Exact-size key/value arrays are copied on every structural update; with
     a fan-out of 32 each copy touches at most a few hundred bytes, which is
     cheaper than managing capacity slack plus dummy elements. *)
  let max_leaf = 32
  let max_sep = 32 (* max separators per internal node; children = max_sep+1 *)

  type leaf = {
    mutable lkeys : K.t array;
    mutable lvals : int array;
    mutable next : leaf option;
  }

  type node = Leaf of leaf | Internal of internal

  and internal = {
    mutable seps : K.t array;  (* child i holds keys < seps.(i); child i+1 >= seps.(i) *)
    mutable children : node array;
  }

  type t = { mutable root : node; mutable count : int; mutable version : int }

  let create () =
    { root = Leaf { lkeys = [||]; lvals = [||]; next = None }; count = 0; version = 0 }

  let length t = t.count

  let rec node_height = function
    | Leaf _ -> 1
    | Internal i -> 1 + node_height i.children.(0)

  let height t = node_height t.root

  (* First index in [keys] whose key is >= k; Array.length keys if none. *)
  let lower_bound keys k =
    let lo = ref 0 and hi = ref (Array.length keys) in
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

  let array_remove a i =
    let n = Array.length a in
    let b = Array.sub a 0 (n - 1) in
    Array.blit a (i + 1) b i (n - 1 - i);
    b

  let sub a lo len = Array.sub a lo len

  type split = { sep : K.t; right : node }

  let rec insert_node node k v : split option * int option =
    match node with
    | Leaf l ->
      let i = lower_bound l.lkeys k in
      if i < Array.length l.lkeys && K.compare l.lkeys.(i) k = 0 then begin
        let old = l.lvals.(i) in
        l.lvals.(i) <- v;
        None, Some old
      end
      else begin
        l.lkeys <- array_insert l.lkeys i k;
        l.lvals <- array_insert l.lvals i v;
        let n = Array.length l.lkeys in
        if n <= max_leaf then None, None
        else begin
          let mid = n / 2 in
          let right =
            { lkeys = sub l.lkeys mid (n - mid); lvals = sub l.lvals mid (n - mid); next = l.next }
          in
          l.lkeys <- sub l.lkeys 0 mid;
          l.lvals <- sub l.lvals 0 mid;
          l.next <- Some right;
          Some { sep = right.lkeys.(0); right = Leaf right }, None
        end
      end
    | Internal nd ->
      let slot = child_slot nd.seps k in
      let split, old = insert_node nd.children.(slot) k v in
      (match split with
      | None -> None, old
      | Some { sep; right } ->
        nd.seps <- array_insert nd.seps slot sep;
        nd.children <- array_insert nd.children (slot + 1) right;
        let ns = Array.length nd.seps in
        if ns <= max_sep then None, old
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
          Some { sep = promoted; right = Internal right_node }, old
        end)

  let insert t k v =
    let split, old = insert_node t.root k v in
    (match split with
    | None -> ()
    | Some { sep; right } ->
      t.root <- Internal { seps = [| sep |]; children = [| t.root; right |] });
    (match old with None -> t.count <- t.count + 1 | Some _ -> ());
    t.version <- t.version + 1;
    old

  let rec find_node node k =
    match node with
    | Leaf l ->
      let i = lower_bound l.lkeys k in
      if i < Array.length l.lkeys && K.compare l.lkeys.(i) k = 0 then Some l.lvals.(i)
      else None
    | Internal nd -> find_node nd.children.(child_slot nd.seps k) k

  let find t k = find_node t.root k

  let rec remove_node node k =
    match node with
    | Leaf l ->
      let i = lower_bound l.lkeys k in
      if i < Array.length l.lkeys && K.compare l.lkeys.(i) k = 0 then begin
        let old = l.lvals.(i) in
        l.lkeys <- array_remove l.lkeys i;
        l.lvals <- array_remove l.lvals i;
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
    | Leaf l -> l, lower_bound l.lkeys k
    | Internal nd -> seek_node nd.children.(child_slot nd.seps k) k

  (* Skip empty leaves (lazy deletion can empty one out). *)
  let rec advance leaf idx =
    match leaf with
    | None -> None
    | Some l ->
      if idx < Array.length l.lkeys then Some (l, idx) else advance l.next 0

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
          fail "leaf key/val length mismatch";
        Array.iteri
          (fun i k ->
            if not (in_bounds k) then fail "leaf key out of separator bounds";
            if i > 0 && K.compare l.lkeys.(i - 1) k >= 0 then fail "leaf keys not sorted")
          l.lkeys;
        1, Array.length l.lkeys
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
      Array.iter
        (fun k ->
          (match !prev with
          | Some p when K.compare p k >= 0 -> fail "leaf chain out of order"
          | Some _ | None -> ());
          prev := Some k;
          incr chained)
        l.lkeys;
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
