type t = { rip : int; rsp : int; rflags : int; gprs : int; xstate : int }

(* 40 B hardware uintr frame + 15 pushed GPRs + 832 B xsave area, rounded. *)
let bytes = 40 + (15 * 8) + 832

let make ~rip ~rsp ~rflags ~gprs ~xstate = { rip; rsp; rflags; gprs; xstate }

let pp ppf t =
  Format.fprintf ppf "{rip=%d; rsp=%d; rflags=%#x; gprs=%#x; xstate=%#x}" t.rip t.rsp
    t.rflags t.gprs t.xstate
