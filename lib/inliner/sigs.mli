(** Specialization signatures: what a callsite would propagate into its
    callee — per parameter, an optional constant and an optional refined
    type. Shared by the call tree (deep inlining trials, re-specialization
    guards) and the trial cache (memoization keys). *)

open Ir.Types

type spec = (const option * ty option) array

val strictly_more_precise : program -> refined:ty -> declared:ty -> bool

val improves : program -> old_sig:spec -> new_sig:spec -> bool
(** Strictly better information: some parameter gained a constant or a
    more precise type, and none lost one. *)
