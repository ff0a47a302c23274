(** CFG cleanup after transformations that rewrite terminators (branch
    pruning, inlining): unreachable-block removal with phi-edge pruning,
    trivial-phi elimination, and straight-line block merging.

    The optional hooks report edits to a caller that tracks what changed:
    [pruned] gets each phi that lost an input, and [replaced] is called
    just before a phi's uses are redirected to another value. *)

open Ir.Types

type replaced = old_v:vid -> new_v:vid -> unit

val cleanup : ?pruned:(vid -> unit) -> ?replaced:replaced -> fn -> bool
(** All three, in order; true when anything changed. Running it again
    right away changes nothing. *)
