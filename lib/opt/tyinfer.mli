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

type env
(** Value types of one function, a dense table over its vids. *)

val infer : program -> fn -> env
(** Fixpoint over all instructions (the lattice height is the class
    hierarchy depth, so this converges fast). *)

val retype : program -> fn -> env -> vid list -> vid list
(** [retype prog fn env seeds] brings [env] up to date after the kinds or
    phi inputs of [seeds] changed, or [seeds] were created: each seed and
    every phi depending on one gets the type {!infer} would now give it.
    Returns the values whose type changed. *)

val same_type : env -> vid -> vid -> bool
(** Do the two values have the same entry, untyped included? *)

val value_type : env -> vid -> vt

val devirt_target : program -> env -> vid -> string -> meth_id option
(** The unique dispatch target of [selector] on the receiver, via an exact
    receiver type or class-hierarchy analysis; [None] when ambiguous. *)

val typetest_result : program -> env -> vid -> class_id -> bool option
(** Three-valued instance-of evaluation ([None] = unknown at compile
    time); folding to [true] additionally requires non-nullness. *)
