(** Operations over individual IR instructions. *)

open Types

val operands : instr_kind -> vid list
(** The value operands of an instruction, in a stable order. *)

val iter_operands : (vid -> unit) -> instr_kind -> unit
(** [iter_operands f k] calls [f] on each element of [operands k], in
    order, without building the list. *)

val for_all_operands : (vid -> bool) -> instr_kind -> bool
(** [for_all_operands p k] is [List.for_all p (operands k)], evaluated in
    the same order, without building the list. *)

val map_operands : (vid -> vid) -> instr_kind -> instr_kind
(** [map_operands f k] rewrites every operand through [f], preserving
    structure. *)

val is_pure : instr_kind -> bool
(** Pure instructions depend only on their operands: eligible for value
    numbering. Loads are not pure (memory may change between them). *)

val has_side_effect : instr_kind -> bool
(** [not is_removable]: calls, stores and observable intrinsics. *)

val result_ty : param_ty:(int -> ty) -> instr_kind -> ty
(** Static result type; [param_ty] supplies parameter types. *)

val unop_ty : unop -> ty
val binop_ty : binop -> ty
val intrinsic_ty : intrinsic -> ty
(** The result types {!result_ty} gives each operator. *)

val is_call : instr_kind -> bool
val is_phi : instr_kind -> bool
