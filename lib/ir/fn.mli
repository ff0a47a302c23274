(** Function bodies: construction, mutation and traversal.

    Blocks and instructions live in dense id-indexed stores; deleting an
    entity leaves a tombstone and ids are never reused within a function.

    This module is the only writer of the IR: instruction kinds, phi
    inputs, block instruction lists and terminators change only through
    the functions below, because each keeps an index over the function
    current:
    - {b users}: for every value, one entry per occurrence among the
      operands of live instructions (placed or not), and one entry per
      live block whose terminator reads it;
    - {b placement}: for every instruction, the block that lists it.

    The index lives in each instruction's [users], [term_users] and
    [block] fields; see {!drop_users} for the lists' lifetime. So {!replace_uses} costs O(uses), and {!delete_instr}
    and {!insert_before} cost O(block). An operand that names no live
    instruction (a placeholder, or garbage in an unreachable block) is not
    indexed: create instructions before setting kinds that refer to them.
    {!Verify.check} recomputes the index and rejects a function whose
    index disagrees, so a write behind this module's back fails
    verification. The SSA dominance invariant is checked there too, not
    here.

    The control-flow analyses — {!preds}, {!numbering} (and so {!rpo}
    and {!reachable}), [Dominators.compute] and [Loops.compute] — are
    cached on the body and computed again only after its control-flow
    graph changes: the writers that do that are {!add_block},
    {!add_block_at}, {!delete_block}, a {!set_term} that changes the
    block's successor list, and so {!split_block} and {!merge_blocks};
    an assignment to [entry] is noticed on the next query. A cached
    result is shared between callers, who must not mutate it.
    {!Verify.check} reads none of them. *)

open Types

val create : fname:string -> param_tys:ty array -> rty:ty -> fn
(** A fresh function with no blocks; set [entry] after adding one. *)

(** {1 Access} *)

val instr : fn -> vid -> instr
(** @raise Invalid_argument on a dead or unknown id. *)

val kind : fn -> vid -> instr_kind

val block : fn -> bid -> block
(** @raise Invalid_argument on a dead or unknown id. *)

val block_live : fn -> bid -> bool
val instr_live : fn -> vid -> bool
val term : fn -> bid -> terminator

val users : fn -> vid -> vid list
(** The instructions reading [v], ascending, one entry per operand
    occurrence (an instruction reading [v] twice is listed twice). *)

val term_users : fn -> vid -> bid list
(** The blocks whose terminator reads [v], ascending. *)

val drop_users : fn -> unit
(** Empties the users lists and drops the cached analyses, for a body
    that will only be read or copied (prepared bodies); the next query,
    on it or on a copy, rebuilds them in O(function). Placement is
    kept. *)

val drop_analyses : fn -> unit
(** Drops the cached control-flow analyses, so a body that outlives its
    compilation holds none. *)

val block_of : fn -> vid -> bid
(** The block listing [v], or [-1] when [v] is dead or unplaced. *)

(** {1 Construction and mutation} *)

val add_block : fn -> bid
val fresh_instr : fn -> instr_kind -> instr

val add_block_at : fn -> bid -> unit
(** Id-preserving block creation (textual IR parser); pads intermediate
    slots with tombstones.
    @raise Invalid_argument when the id is already live. *)

val add_instr_at : fn -> vid -> instr_kind -> unit
(** Id-preserving instruction creation; the instruction is not placed in
    any block.
    @raise Invalid_argument when the id is already live. *)

val set_kind : fn -> vid -> instr_kind -> unit
(** Rewrites an instruction in place; its id, and so every use of it,
    stays valid. *)

val set_phi_inputs : fn -> vid -> (bid * vid) list -> unit
(** @raise Invalid_argument when the instruction is not a phi. *)

val place : fn -> bid -> vid list -> unit
(** Appends live, unplaced instructions to the end of the block.
    @raise Invalid_argument when one is dead or already placed. *)

val unplace : fn -> vid -> unit
(** Removes the instruction from its block; it stays live, so it can be
    placed elsewhere. *)

val append : fn -> bid -> instr_kind -> vid
(** Appends a new instruction at the end of the block (before the
    terminator, which is stored separately). *)

val prepend : fn -> bid -> instr_kind -> vid
(** Inserts at the start of the block, after any phis — the right position
    for a new phi. *)

val insert_before : fn -> before:vid -> instr_kind -> vid
(** Inserts a new instruction immediately before [before] in its block.
    @raise Invalid_argument if [before] is not placed in any block. *)

val set_term : fn -> bid -> terminator -> unit
(** Drops the cached analyses when the successor list changes. *)

val delete_instr : fn -> vid -> unit
(** Removes the instruction from its block and tombstones it. Uses are not
    rewritten — callers must have replaced them. *)

val delete_instrs : fn -> (vid -> bool) -> int
(** Removes and tombstones every placed instruction the predicate selects,
    in one sweep over the blocks; returns how many. Uses are not
    rewritten. *)

val delete_block : fn -> bid -> unit
(** Tombstones the block and every instruction it contains. *)

val replace_uses : fn -> old_v:vid -> new_v:vid -> unit
(** Rewrites every use of [old_v] — instruction operands, phi inputs, If
    conditions and Return values — to [new_v], in O(uses). *)

val split_block : fn -> vid -> bid
(** [split_block fn v] moves [v] and everything after it in its block,
    plus the terminator, to a fresh block and returns it; the original
    block ends in a goto to it, and successors' phi edges are renamed. *)

val merge_blocks : fn -> pred:bid -> succ:bid -> unit
(** Appends [succ]'s instructions and terminator to [pred], renames the
    successors' phi edges from [succ] to [pred] and deletes [succ]. The
    caller must have resolved [succ]'s phis and ensured [pred] is its only
    predecessor. *)

(** {1 Traversal} *)

val succs_of_term : terminator -> bid list
val succs : fn -> bid -> bid list
val iter_blocks : (block -> unit) -> fn -> unit
val iter_instrs : (instr -> unit) -> fn -> unit
val fold_blocks : ('acc -> block -> 'acc) -> 'acc -> fn -> 'acc
val block_ids : fn -> bid list

val preds : fn -> bid list array
(** Each block's predecessors, by block id: the live blocks with an edge
    to it, ascending, one entry per edge ([] for a dead block). Cached. *)

type numbering = {
  order : bid array;  (** the reachable blocks in reverse postorder, entry first *)
  index : int array;
      (** each block id's position in [order], -1 when it is unreachable
          or dead; one entry per block id the body had *)
}
(** One reverse-postorder numbering of a graph's reachable blocks, from a
    depth-first walk that takes each block's successors in
    {!succs_of_term}'s order. The control-flow analyses are sized by it. *)

val numbering : fn -> numbering
(** The numbering of [fn]'s current graph from its entry. Cached. *)

val number : fn -> numbering
(** What {!numbering} caches, computed afresh: it reads no cache. *)

val rpo : fn -> bid array
(** [(numbering fn).order]. *)

val reachable : fn -> bid -> bool
(** Whether the block has a position in {!numbering}; false for ids past
    the bound it was computed at. *)

val cached :
  fn -> find:(analysis -> 'a option) -> wrap:('a -> analysis) -> (fn -> 'a) -> 'a
(** [cached fn ~find ~wrap build] is the analysis of [fn]'s current
    control-flow graph that [find] picks out of the cache, or else
    [build fn], stored with [wrap]. [build] may read other cached
    analyses but must depend on nothing but the blocks' successors and
    the entry block, and its result must never be mutated. *)

val calls : fn -> instr list
(** Live call instructions, in block order. *)

(** {1 Metrics and copying} *)

val size : fn -> int
(** The paper's |ir| metric: live instructions plus one per block
    terminator. *)

val result_ty : fn -> instr_kind -> ty

val copy : fn -> fn
(** Deep copy with fresh stores; instruction and block ids (and therefore
    profile site keys) are preserved, and so is [prepared]. The copy has
    no cached analyses. *)
