type abort_reason = Write_conflict | Read_validation | Latch_deadlock | User_abort

let abort_reason_to_string = function
  | Write_conflict -> "write-conflict"
  | Read_validation -> "read-validation"
  | Latch_deadlock -> "latch-deadlock"
  | User_abort -> "user-abort"
