(** Canonicalization: the "simple optimizations" counted by deep inlining
    trials — constant folding, algebraic simplification, strength
    reduction, branch pruning, type-check folding and type-driven
    devirtualization. Rewrites in place; the count of applied rewrites is
    the inliner's N_s input. *)

open Ir.Types

val fold_binop : binop -> const -> const -> const option
(** Pure constant folding; [None] when not foldable (e.g. division by a
    zero constant, which must keep its runtime trap). *)

val fold_unop : unop -> const -> const option
val fold_intrinsic : intrinsic -> const option list -> const option

val run_once : program -> fn -> int
(** One sweep over all instructions plus branch pruning; returns the
    number of rewrites (0 when nothing changed). Drive to a fixpoint via
    {!Driver.simplify}. *)
