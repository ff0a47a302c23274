(** The expansion phase (paper, Section III-B and IV): descend from the
    root by priority P(n) = P_I(n) − ψ(n) to the most promising cutoff and
    expand it if it passes the (adaptive or fixed) expansion threshold. *)

open Calltree

val psi_r : node -> float
(** Recursion penalty ψ_r (Eq. 14). *)

val psi : t -> node -> float
(** Exploration penalty ψ (Eq. 7): grows with the subtree's attached and
    prospective size, softened when few cutoffs remain. *)

val intrinsic_priority : t -> node -> float
(** P_I (Eq. 5): benefit per node for cutoffs, max over children for
    expanded/poly nodes (ignoring exhausted subtrees). *)

val priority : t -> node -> float
(** P = P_I − ψ (Eq. 6). *)

val best_cutoff : t -> node option
(** The cutoff the descent reaches, or [None] when the tree is exhausted
    for this phase. *)

val may_expand : t -> node -> bool
(** Adaptive: B_L/|ir| ≥ e^((S_ir(root) − r1)/r2) (Eq. 8). Fixed policy:
    the total call-tree size is still below T_e. *)

(** What one expansion step did. *)
type step =
  | Grew      (** the cutoff became an Expanded or Poly node *)
  | Stuck     (** the cutoff passed the threshold but became Generic *)
  | Declined  (** the cutoff failed the adaptive threshold and sits out the phase *)
  | Finished  (** no candidate cutoff is left, or the fixed budget T_e is spent *)

val start : t -> unit
(** Begins a phase: clears the declined flags and marks the summary
    stale, so the first read re-summarizes the whole tree. *)

val step : t -> step
(** Descends to {!best_cutoff}, expands or declines it, and re-summarizes
    the cutoff's subtree and the descent's path
    ({!Calltree.summarize_path}). *)

val run : t -> int
(** One expansion phase: {!start}, then {!step} until [Finished] or
    [max_expansions_per_round] expansions; returns the number of nodes
    expanded. *)
