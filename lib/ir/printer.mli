(** Human-readable IR dumps. {!Parse.parse_fn} reads this format back, so
    [pp_fn] output round-trips. *)

open Types

val pp_ty : Format.formatter -> ty -> unit
val ty_to_string : ty -> string
val pp_const : Format.formatter -> const -> unit
val binop_name : binop -> string
val pp_kind : Format.formatter -> instr_kind -> unit
val fn_to_string : fn -> string
