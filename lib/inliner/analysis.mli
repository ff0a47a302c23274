(** The cost-benefit analysis phase (paper, Listing 6): benefit|cost
    tuples and callsite-cluster detection by greedy ratio-improving
    merges. Under the 1-by-1 ablation every node stays its own cluster. *)

open Calltree

val ratio : float * float -> float
(** ⟨b|c⟩ = b / max(1, c)  (Eq. 11). *)

val merge : float * float -> float * float -> float * float
(** ⊕ (Eq. 9). *)

val inlinable : node -> bool
(** Can the node ever be spliced? (Expanded, Poly, or a direct-target
    cutoff.) *)

val run : t -> unit
(** Bottom-up over the whole tree. *)
