(** SSA lowering from the typed AST, using Braun et al.'s on-the-fly SSA
    construction (mutable locals become per-block definition tables; phis
    are created on demand and completed when blocks seal; trivial phis are
    removed as discovered).

    Assigns every Call and If its stable profile site key. *)

val lower_program : Ir.Types.program -> Tast.tmethod list -> unit
