type field = Int of int | Float of float | Str of string

(* One word per field: an immediate int, a boxed double ([Obj.double_tag])
   or a string ([Obj.string_tag]).  A row is only ever made by
   [Array.make n (Obj.repr 0)] followed by stores, or by [Array.copy] of a
   row, so its block keeps tag 0.  [Array.init], [Array.map], [Array.of_list]
   or a literal over [Obj.t] would build a flat float array
   ([Double_array_tag]) whenever the first field is a [Float], and every
   later store and read would reinterpret the words. *)
type t = Obj.t array

let word = function Int v -> Obj.repr v | Float v -> Obj.repr v | Str s -> Obj.repr s
let is_float w = Obj.is_block w && Obj.tag w = Obj.double_tag
let is_str w = Obj.is_block w && Obj.tag w = Obj.string_tag
let word_kind w = if Obj.is_int w then "Int" else if is_float w then "Float" else "Str"

let bad what i w =
  invalid_arg (Printf.sprintf "Value.%s: field %d is %s" what i (word_kind w))

let check_bounds row i name =
  if i < 0 || i >= Array.length row then
    invalid_arg (Printf.sprintf "Value.%s: field %d out of bounds (row has %d)" name i
        (Array.length row))

let of_fields fields =
  let n = Array.length fields in
  let row = Array.make n (Obj.repr 0) in
  for i = 0 to n - 1 do
    Array.unsafe_set row i (word (Array.unsafe_get fields i))
  done;
  row

let length = Array.length

let get row i =
  check_bounds row i "get";
  let w = Array.unsafe_get row i in
  if Obj.is_int w then Int (Obj.obj w)
  else if is_float w then Float (Obj.obj w)
  else Str (Obj.obj w)

let int_exn row i =
  check_bounds row i "int_exn";
  let w = Array.unsafe_get row i in
  if Obj.is_int w then (Obj.obj w : int) else bad "int_exn" i w

let float_exn row i =
  check_bounds row i "float_exn";
  let w = Array.unsafe_get row i in
  if is_float w then (Obj.obj w : float) else bad "float_exn" i w

let str_exn row i =
  check_bounds row i "str_exn";
  let w = Array.unsafe_get row i in
  if is_str w then (Obj.obj w : string) else bad "str_exn" i w

(* [Array.copy] keeps the row's tag 0. *)
let with_word row i w =
  let copy = Array.copy row in
  Array.unsafe_set copy i w;
  copy

let set row i f =
  check_bounds row i "set";
  with_word row i (word f)

let add_int row i delta = with_word row i (Obj.repr (int_exn row i + delta))
let add_float row i delta = with_word row i (Obj.repr (float_exn row i +. delta))

let word_equal a b =
  if Obj.is_int a || Obj.is_int b then a == b
  else if is_float a then is_float b && Float.equal (Obj.obj a : float) (Obj.obj b)
  else is_str b && String.equal (Obj.obj a : string) (Obj.obj b)

let rec equal_from a b i =
  i = Array.length a
  || (word_equal (Array.unsafe_get a i) (Array.unsafe_get b i) && equal_from a b (i + 1))

let equal a b = Array.length a = Array.length b && equal_from a b 0

let rec size_from row i acc =
  if i = Array.length row then acc
  else
    let w = Array.unsafe_get row i in
    size_from row (i + 1)
      (if is_str w then acc + 8 + String.length (Obj.obj w : string) else acc + 8)

let size_bytes row = size_from row 0 8
