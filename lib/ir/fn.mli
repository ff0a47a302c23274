(** Function bodies: construction, mutation and traversal.

    Blocks and instructions live in dense id-indexed stores; deleting an
    entity leaves a tombstone and ids are never reused within a function.
    The SSA dominance invariant is checked by {!Verify}, not here. *)

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
    conditions and Return values — to [new_v]. *)

(** {1 Traversal} *)

val succs_of_term : terminator -> bid list
val succs : fn -> bid -> bid list
val iter_blocks : (block -> unit) -> fn -> unit
val iter_instrs : (instr -> unit) -> fn -> unit
val fold_blocks : ('acc -> block -> 'acc) -> 'acc -> fn -> 'acc
val block_ids : fn -> bid list

val preds : fn -> (bid, bid list) Hashtbl.t
(** Predecessor map over live blocks, recomputed from terminators. *)

val rpo : fn -> bid list
(** Reverse postorder over blocks reachable from the entry. *)

val reachable : fn -> (bid, unit) Hashtbl.t

val calls : fn -> instr list
(** Live call instructions, in block order. *)

(** {1 Metrics and copying} *)

val size : fn -> int
(** The paper's |ir| metric: live instructions plus one per block
    terminator. *)

val param_ty : fn -> int -> ty
(** The (possibly specialization-refined) type of parameter [i]. *)

val result_ty : fn -> instr_kind -> ty

val copy : fn -> fn
(** Deep copy with fresh stores; instruction and block ids (and therefore
    profile site keys) are preserved. *)
