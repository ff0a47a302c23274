(** The inlining phase (paper, Listing 5): best cluster first, gated by
    the adaptive threshold (Eq. 12, reconstruction in DESIGN.md) or the
    fixed T_i budget; a cluster splices together with every member, and
    its front becomes new root children. *)

open Calltree

val run : t -> int
(** One full inlining phase over the root's children. *)
