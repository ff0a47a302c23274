(** Inline substitution at the IR level: splicing a callee body into a
    caller at a call instruction. The call's SSA id is reused as the join
    phi over the callee's returns, so no use of the call result needs
    rewriting. Parameters are replaced by the call's arguments; profile
    site keys inside the callee copy are preserved. *)

open Types

(** Both maps are indexed by callee id and hold {!unmapped} where the
    callee id has no counterpart in the caller (a dead id, or one in an
    unreachable block). *)
type remap = {
  vmap : vid array;  (** callee vid -> caller vid *)
  bmap : bid array;  (** callee bid -> caller bid *)
  post : bid;        (** the join block created in the caller *)
}

val unmapped : int
(** [-1], the entry of a callee id with no counterpart. *)

val inline_call : caller:fn -> call_vid:vid -> callee:fn -> remap
(** Destroys [callee]'s independence (its reachable content is copied; the
    argument itself is not mutated, but pass a fresh copy when the original
    must stay pristine — {!Fn.copy}).
    @raise Invalid_argument if [call_vid] is not a live call in [caller],
    or on arity mismatch. *)
