(** Canonicalization: the "simple optimizations" counted by deep inlining
    trials — constant folding, algebraic simplification, strength
    reduction, branch pruning, type-check folding and type-driven
    devirtualization. Each rewrite is local to one instruction or one
    terminator; {!Driver.simplify} applies them from a worklist, and the
    count it applies is the inliner's N_s input. *)

open Ir.Types

val fold_binop : binop -> const -> const -> const option
(** Pure constant folding; [None] when not foldable (e.g. division by a
    zero constant, which must keep its runtime trap). *)

type rewrite =
  | Value of vid  (** the instruction computes this existing value *)
  | Op of instr_kind  (** the instruction becomes this op; a [Const] for a fold *)

val peephole :
  program -> Tyinfer.env -> fn -> const:(const -> vid) -> instr -> rewrite option
(** The rewrite of one instruction, reading its operands' kinds and
    inferred types; [None] when none applies. [const c] materializes a
    constant immediately before the instruction. *)

val prune_branch : fn -> bid -> vid list option
(** Turns the block's [If] into a [Goto] when both targets are equal or
    the condition is a constant, dropping the dead edge from the target's
    phis. Returns those phis, or [None] when nothing changed. *)
