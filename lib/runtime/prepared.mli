(** Prepared code objects: a function body pre-decoded, once, into the
    dense array form the execution engine runs — two flat frames (Int and
    Bool values in an [int array], the rest in a [value array]) in which
    values that are never live at the same time share a slot, each
    block's leading phis pre-split from its body with inputs resolved per
    predecessor edge, instructions decoded with operand slots and static
    cycle costs baked in, and call arguments as arrays of the caller's
    slots.

    Preparation is observably transparent: output, result, simulated
    cycles, step counts and recorded profiles are identical to direct IR
    interpretation (enforced by the differential suite). Its input is
    verified ({!Ir.Verify.check}), well-typed IR, as the frontend and the
    compiler produce; the reference walker stays the permissive oracle.
    IR that breaks that contract is refused with {!ill_formed}, before
    any of the body runs:
    - by {!prepare}: an operand that names no instruction (which
      {!Ir.Verify.check} allows in an unreachable block), a phi in the
      entry block, a phi after a non-phi, a phi whose input has another
      static type than the phi, and a jump to (or an entry at) a dead
      block;
    - by {!Interp}'s lowering: an op or a branch whose operands are in
      frames its type rules out.

    Three internal errors that the walker reports are reported
    differently:
    - use of a never-evaluated vid (IR that is not strict SSA) reads
      whatever its slot holds, which may be a value an earlier
      activation at the same call depth left there;
    - a call with fewer arguments than a [Param] index traps "missing
      argument" when the callee's frame is built, not at the [Param];
    - a phi with no input on an edge (in verified IR, only an edge from
      an unreachable predecessor) traps when the edge is taken, before
      the block's steps are charged.

    Prepared code snapshots the function *and* the class layouts its [New]
    instructions allocate, against a fixed cost table, and no profile
    state: {!Interp}'s lowering binds the counter cells. {!Interp} prepares
    a body when it fills a method's code slot and never again: a body
    never changes once set, and {!Interp.set_installed}, the one writer
    of a method's compiled code, empties the slot, so the method's next
    call prepares the body of its new tier. *)

open Ir.Types
open Values

(** {1 Frame slots}

    A named value lives in one of two frames, chosen by its static type
    ({!Ir.Instr.result_ty}, with the declared [fn.param_tys] for
    parameters): Int and Bool values in the [int array] frame, a Bool as
    0/1; every other value in the [value array] frame. A slot is one
    [int]: [s >= 0] is value-frame slot [s]; int-frame slot [s] is
    encoded [lnot (2s)] for an Int and [lnot (2s + 1)] for a Bool, so an
    Int and a Bool may share an int-frame slot.

    Within a frame, two values share a slot when neither is live where
    the other is defined, on the blocks a path from the entry reaches: a
    phi is defined at its block's entry and its input is live out of its
    predecessor; every parameter is defined when a call builds the frame,
    before the entry block, so a [Param] kills nothing and a parameter
    lives to its last use on any path, around a loop back into the entry
    block too; a definition nobody reads still takes a slot no live value
    holds. A phi prefers the slot of an input already placed, and a back
    edge's input the slot of its phi, so most phi copies move a slot onto
    itself; lowering drops those copies but still charges each phi's step
    and cycles. Values of blocks no path reaches get slot 0. *)

val none : int
(** [min_int]: an unnamed vid, or a phi with no input on an edge. *)

type kind = Kval | Kint | Kbool

val kind : int -> kind
(** The frame, and for the int frame the type, of a named slot. *)

val index : int -> int
(** A named slot's position in its frame. *)

type pop =
  | Pconst of value
  | Pparam of int
  | Punop of unop * int
  | Pbinop of binop * int * int
  | Pcall of { callee : callee; cargs : int array; site : site; ic : Ic.t option }
      (** virtual calls carry a polymorphic inline cache, which counts
          into its site's {!Ic.stat} *)
  | Pnew of { cls : class_id; defaults : value array }
  | Pgetfield of { obj : int; slot : int; fname : string }
  | Psetfield of { obj : int; slot : int; fname : string; value : int }
  | Pnewarray of { ety : ty; len : int }
  | Parrayget of { arr : int; idx : int }
  | Parrayset of { arr : int; idx : int; value : int }
  | Parraylen of int
  | Ptypetest of { obj : int; cls : class_id }
  | Pintrinsic of intrinsic * int array

(** Operands, destinations, phi moves and terminator operands are encoded
    frame slots, not vids (see {!code.slots}). *)
type pinstr = {
  dest : int;          (** frame slot receiving the result *)
  static_cost : int;   (** cycles charged besides the dispatch penalty *)
  op : pop;
}

type pterm =
  | Pgoto of { target : int; edge : int }
  | Pif of {
      cond : int;
      site : site;
      tb : int;
      tedge : int;
      fb : int;
      fedge : int;
    }
  | Preturn of int
  | Punreachable

type pblock = {
  src_bid : bid;
  phi_dests : int array;
  phi_vids : int array;        (** the phis' vids, for trap messages *)
  phi_srcs : int array array;  (** edge -> phi -> source slot, or {!none} *)
  pred_bids : int array;
  body : pinstr array;
  term : pterm;
  term_cost : int;
  mutable osr_skip : bool;
      (** The engine's OSR hook answered "never" for this block for good
          (a refused enter site, or a retired body's header with no exit
          continuation); the threaded guard stops consulting it. *)
}

type code = {
  fname : string;
  nregs : int;
      (** value-frame size: the most value-frame values live at one
          point — at the frame's build, at a block's entry after its phis,
          or right after a definition (counted even when nobody reads it)
          — or 1 when only unreachable blocks name such values *)
  nints : int;  (** int-frame size, counted the same way over Int and Bool values *)
  slots : int array;
      (** vid -> encoded slot, {!none} for a vid the live blocks never
          name — phi and instruction results, operands (phi inputs
          included) and terminator operands. A slot holds its vid's value
          wherever the vid is live; elsewhere it may hold another value.
          Readers of a frame by vid go through it: the OSR guards read a
          transfer's live-ins and the loop header's phis right after the
          header's prologue, where each live-in that is live at the header
          and each phi, just written, still holds its value. A live-in
          that is not live there (a value of an enclosing loop whose uses
          all follow its definition) reads another value of its frame,
          which the continuation never uses: {!Ir.Osr} reroutes to the
          transferred value only uses that the header reaches without
          passing the definition. *)
  params : (int * int) array;
      (** (parameter index, slot) of every [Param] the live blocks list,
          in decode order: a call writes each argument into its slot when
          it builds the callee's frames, so [Pparam] itself does
          nothing. *)
  entry : int;
  blocks : pblock array;
}

val fname : code -> string

val ill_formed : string -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [ill_formed fname fmt] raises the one trap for IR that breaks the
    contract above, ["internal: ill-formed IR in <fname>: <what>"].
    @raise Trap always. *)

val prepare :
  cost:Cost.t -> ic_stat:(site -> string -> Ic.stat) -> program -> fn -> code
(** Translates one function. Costs are baked against [cost]; class field
    layouts referenced by [New] are snapshotted from the program; the
    inline cache of a virtual call at [site] with selector [sel] counts
    into [ic_stat site sel].
    @raise Trap through {!ill_formed} on IR that breaks the contract. *)

(** {1 Superinstruction fusion}

    A fusion plan partitions every block body into segments; the
    threaded tier lowers each segment to one handler closure, so a
    linear run of ops becomes a single fused superinstruction. The plan
    depends on the code alone. Planning never changes observable
    semantics — fused handlers are composed from the constituents'
    closures and charge the same cycles/steps at every observable point
    (see {!Cost.fused_cost}). *)

val opkey : pop -> string
(** Stable op mnemonic ([add], [arrayget], …); fused patterns are
    constituent mnemonics joined with [";"]. *)

type segment = { seg_start : int; seg_len : int }

type fusion_plan = {
  fp_segments : segment array array;
      (** per dense block index: an in-order partition of the body *)
  fp_patterns : (string * int) list;
      (** mined pattern -> fused sites, sorted by pattern *)
}

val plan_fusion : code -> fusion_plan
(** Mines linear sequences: every block gets its maximal fusable runs
    chunked at 8 ops; every chunk of length >= 2 is a fused site. *)
