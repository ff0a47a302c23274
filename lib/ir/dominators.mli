(** Dominator tree (Cooper–Harvey–Kennedy), over blocks reachable from the
    entry. *)

open Types

type t

val compute : fn -> t
(** The tree of [fn]'s current graph; cached (see {!Fn.cached}). *)

val build : n:int -> rpo:bid array -> preds:bid list array -> t
(** The tree of a graph given by its block-id bound [n], its reverse
    postorder [rpo] from the entry [rpo.(0)], and each block's
    predecessors by block id, of which the unreachable ones are ignored. It reads
    no cache; {!Verify} builds its own graph and calls it. *)

val idom : t -> bid -> bid option
(** Immediate dominator; the entry maps to itself. [None] for unreachable
    blocks. *)

val dominates : t -> a:bid -> b:bid -> bool
(** Reflexive: [dominates ~a ~b:a] holds. *)

val children : t -> bid -> bid list
(** Children in the dominator tree, ascending. *)
