type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* -- printing ---------------------------------------------------------------- *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    (* shortest representation that round-trips *)
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec write buf ~minify ~indent v =
  let nl pad =
    if not minify then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make pad ' ')
    end
  in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape_string buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        nl (indent + 2);
        write buf ~minify ~indent:(indent + 2) item)
      items;
    nl indent;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_char buf ',';
        nl (indent + 2);
        escape_string buf k;
        Buffer.add_char buf ':';
        if not minify then Buffer.add_char buf ' ';
        write buf ~minify ~indent:(indent + 2) item)
      fields;
    nl indent;
    Buffer.add_char buf '}'

let to_string ?(minify = true) v =
  let buf = Buffer.create 1024 in
  write buf ~minify ~indent:0 v;
  Buffer.contents buf

let to_channel ?minify oc v =
  output_string oc (to_string ?minify v);
  output_char oc '\n'

(* -- parsing ----------------------------------------------------------------- *)

exception Parse_error of int * string

let parse_fail pos fmt = Printf.ksprintf (fun m -> raise (Parse_error (pos, m))) fmt

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance c;
    skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> parse_fail c.pos "expected %C, found %C" ch x
  | None -> parse_fail c.pos "expected %C, found end of input" ch

let expect_lit c lit v =
  String.iter (fun ch -> expect c ch) lit;
  v

(* Encode one Unicode scalar value as UTF-8. *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let parse_hex4 c =
  let v = ref 0 in
  for _ = 1 to 4 do
    (match peek c with
    | Some ch ->
      let d =
        match ch with
        | '0' .. '9' -> Char.code ch - Char.code '0'
        | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
        | _ -> parse_fail c.pos "invalid \\u escape"
      in
      v := (!v * 16) + d
    | None -> parse_fail c.pos "truncated \\u escape");
    advance c
  done;
  !v

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> parse_fail c.pos "unterminated string"
    | Some '"' ->
      advance c;
      Buffer.contents buf
    | Some '\\' ->
      advance c;
      (match peek c with
      | Some '"' -> Buffer.add_char buf '"'; advance c
      | Some '\\' -> Buffer.add_char buf '\\'; advance c
      | Some '/' -> Buffer.add_char buf '/'; advance c
      | Some 'n' -> Buffer.add_char buf '\n'; advance c
      | Some 'r' -> Buffer.add_char buf '\r'; advance c
      | Some 't' -> Buffer.add_char buf '\t'; advance c
      | Some 'b' -> Buffer.add_char buf '\b'; advance c
      | Some 'f' -> Buffer.add_char buf '\012'; advance c
      | Some 'u' ->
        advance c;
        let u = parse_hex4 c in
        (* surrogate pair *)
        if u >= 0xD800 && u <= 0xDBFF && c.pos + 1 < String.length c.s
           && c.s.[c.pos] = '\\'
           && c.s.[c.pos + 1] = 'u'
        then begin
          advance c;
          advance c;
          let lo = parse_hex4 c in
          if lo >= 0xDC00 && lo <= 0xDFFF then
            add_utf8 buf (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
          else begin
            add_utf8 buf u;
            add_utf8 buf lo
          end
        end
        else add_utf8 buf u
      | Some ch -> parse_fail c.pos "invalid escape \\%C" ch
      | None -> parse_fail c.pos "truncated escape");
      loop ()
    | Some ch ->
      advance c;
      Buffer.add_char buf ch;
      loop ()
  in
  loop ()

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  let rec loop () =
    match peek c with
    | Some ('0' .. '9' | '-' | '+') ->
      advance c;
      loop ()
    | Some ('.' | 'e' | 'E') ->
      is_float := true;
      advance c;
      loop ()
    | _ -> ()
  in
  loop ();
  let text = String.sub c.s start (c.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> parse_fail start "malformed number %S" text
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> parse_fail start "malformed number %S" text)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> parse_fail c.pos "unexpected end of input"
  | Some 'n' -> expect_lit c "null" Null
  | Some 't' -> expect_lit c "true" (Bool true)
  | Some 'f' -> expect_lit c "false" (Bool false)
  | Some '"' -> String (parse_string c)
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          items (v :: acc)
        | Some ']' ->
          advance c;
          List.rev (v :: acc)
        | _ -> parse_fail c.pos "expected ',' or ']'"
      in
      List (items [])
    end
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let field () =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        (k, v)
      in
      let rec fields acc =
        let kv = field () in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          fields (kv :: acc)
        | Some '}' ->
          advance c;
          List.rev (kv :: acc)
        | _ -> parse_fail c.pos "expected ',' or '}'"
      in
      Obj (fields [])
    end
  | Some ch -> parse_fail c.pos "unexpected character %C" ch

let parse s =
  let c = { s; pos = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    if c.pos <> String.length s then parse_fail c.pos "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (pos, msg) -> Error (Printf.sprintf "at byte %d: %s" pos msg)

(* -- accessors ---------------------------------------------------------------- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let to_list_opt = function List l -> Some l | _ -> None

let to_int_opt = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float_opt = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
let to_string_opt = function String s -> Some s | _ -> None

let rec equal a b =
  match a, b with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | Int x, Float y | Float y, Int x -> Float.is_integer y && int_of_float y = x
  | String x, String y -> String.equal x y
  | List x, List y -> List.length x = List.length y && List.for_all2 equal x y
  | Obj x, Obj y ->
    List.length x = List.length y
    && List.for_all2 (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2) x y
  | _ -> false
