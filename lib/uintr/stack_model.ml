exception Overflow of string

let red_zone_bytes = 128

type t = {
  stack_id : int;
  size : int;
  mutable sp_ : int;  (* bytes remaining below sp; starts at size *)
  mutable frames : (Frame.t * int) list;  (* frame, sp before push *)
  mutable scratch : int option;
}

let create ?(size = 64 * 1024) ~id () =
  if size <= red_zone_bytes + Frame.bytes then
    invalid_arg "Stack_model.create: stack too small";
  { stack_id = id; size; sp_ = size; frames = []; scratch = None }

let id t = t.stack_id
let sp t = t.sp_
let set_sp t v =
  if v < 0 || v > t.size then invalid_arg "Stack_model.set_sp: out of range";
  t.sp_ <- v

let push_frame t frame =
  let need = red_zone_bytes + Frame.bytes in
  if t.sp_ < need then
    raise (Overflow (Printf.sprintf "stack %d: uintr frame needs %d B, %d left" t.stack_id need t.sp_));
  t.frames <- (frame, t.sp_) :: t.frames;
  t.sp_ <- t.sp_ - need

let pop_frame t =
  match t.frames with
  | [] -> invalid_arg "Stack_model.pop_frame: no frame"
  | (frame, old_sp) :: rest ->
    t.frames <- rest;
    t.sp_ <- old_sp;
    frame

let top_frame t = match t.frames with [] -> None | (f, _) :: _ -> Some f
let frame_depth t = List.length t.frames

let scratch_write t v =
  if t.sp_ < red_zone_bytes + 8 then
    raise (Overflow (Printf.sprintf "stack %d: no room for scratch word" t.stack_id));
  t.scratch <- Some v

let scratch_read t =
  match t.scratch with
  | Some v -> v
  | None -> invalid_arg "Stack_model.scratch_read: empty"
