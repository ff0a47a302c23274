(** Loop-invariant code motion: hoists pure, non-trapping computations
    (including immutable array lengths) whose operands are loop-invariant
    into a freshly created preheader. The flagship case is the
    [i < arr.length] bound of every collection loop. *)

val run : Ir.Types.fn -> int
(** Processes every natural loop once; returns the number of instructions
    hoisted. Idempotent (a second run hoists nothing and creates no new
    blocks). *)
