(** Value-type inference on SSA values: static types refined with
    exactness and non-nullness — the inputs of type-check folding and
    devirtualization. Parameter types are read from [fn.spec_tys], so
    callsite specialization (deep inlining trials) sharpens everything
    derived from parameters. *)

open Ir.Types

type vt =
  | Vt_bot                       (** unreached *)
  | Vt_prim of ty
  | Vt_null
  | Vt_obj of { cls : class_id; exact : bool; nonnull : bool }
  | Vt_arr of ty
  | Vt_top                       (** unknown *)

val of_ty : ty -> vt
val join : program -> vt -> vt -> vt

type env = (vid, vt) Hashtbl.t

val infer : program -> fn -> env
(** Fixpoint over all instructions (the lattice height is the class
    hierarchy depth, so this converges fast). *)

val value_type : env -> vid -> vt

val devirt_target : program -> env -> vid -> string -> meth_id option
(** The unique dispatch target of [selector] on the receiver, via an exact
    receiver type or class-hierarchy analysis; [None] when ambiguous. *)

val typetest_result : program -> env -> vid -> class_id -> bool option
(** Three-valued instance-of evaluation ([None] = unknown at compile
    time); folding to [true] additionally requires non-nullness. *)
