(** The inlining phase (paper, Listing 5): best cluster first, gated by
    the adaptive threshold (Eq. 12, reconstruction in DESIGN.md) or the
    fixed T_i budget; a cluster splices together with every member, and
    its front becomes new root children. *)

open Calltree

val log_src : Logs.src
(** Per-decision debug logging. *)

val can_inline : t -> node -> root_size:int -> bool
(** ⟨tuple(n)⟩ ≥ t1 · 2^((|ir(root)| + cost(n) − t2)/tscale), and the root
    is below the hard size cap; [root_size] is |ir(root)|. *)

val inline_node : t -> node -> int
(** Splices a root-anchored node (and, recursively, its cluster members)
    into the root; returns the number of callsites inlined. *)

val run : t -> int
(** One full inlining phase over the root's children. *)
