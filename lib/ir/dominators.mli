(** Dominator tree (Cooper–Harvey–Kennedy), over blocks reachable from the
    entry. *)

open Types

type t

val compute : fn -> t

val idom : t -> bid -> bid option
(** Immediate dominator; the entry maps to itself. [None] for unreachable
    blocks. *)

val dominates : t -> a:bid -> b:bid -> bool
(** Reflexive: [dominates ~a ~b:a] holds. *)

val children : t -> bid -> bid list
(** Children in the dominator tree, ascending. *)
