(** Dominator tree (Cooper–Harvey–Kennedy), over blocks reachable from the
    entry. Its tables are indexed by reverse-postorder position, so they
    are sized by the reachable blocks. *)

open Types

type t

val compute : fn -> t
(** The tree of [fn]'s current graph; cached (see {!Fn.cached}). *)

val build : Fn.numbering -> preds:bid list array -> t
(** The tree of a graph given by a reverse-postorder numbering of its
    reachable blocks from the entry [order.(0)], and each block's
    predecessors by block id, of which the unreachable ones are ignored.
    It reads no cache; {!Verify} numbers its own graph and calls it. *)

val idom : t -> bid -> bid option
(** Immediate dominator; the entry maps to itself. [None] for unreachable
    blocks. *)

val dominates : t -> a:bid -> b:bid -> bool
(** Reflexive: [dominates ~a ~b:a] holds. *)

val iter_children : (bid -> unit) -> t -> bid -> unit
(** Calls the function on each child of the block in the dominator tree,
    ascending by block id; on none for an unreachable block. *)

val children : t -> bid -> bid list
(** Children in the dominator tree, ascending. *)
