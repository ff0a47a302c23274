(** Prepared code objects: a function body pre-decoded, once, into the
    dense array form the execution engine runs — flat [value array]
    frames with one slot per value the body names, each block's leading
    phis pre-split from its body with inputs resolved per predecessor
    edge, instructions decoded with operand slots and static cycle costs
    baked in, and call arguments as arrays.

    Preparation is observably transparent: output, result, simulated
    cycles, step counts and recorded profiles are identical to direct IR
    interpretation on verifier-clean SSA (enforced by the differential
    suite). Internal-error paths that only ill-formed IR can reach (use of
    a never-evaluated vid) are not reproduced bit-for-bit.

    Prepared code snapshots the function *and* the class layouts its [New]
    instructions allocate, against a fixed cost table. It must be dropped
    when the underlying body is replaced — {!Interp} keys its cache by
    physical identity of the source [fn] and {!Jit.Engine} invalidates on
    every install, so stale code is unreachable. *)

open Ir.Types
open Values

type cell_holder = { mutable cell : int ref option }
(** A lazily-bound profile counter cell: the engine binds it to the
    profile's cell on first record, then records with one increment. *)

type brec_holder = { mutable brec : Profile.brec option }

type pop =
  | Pconst of value
  | Pparam of int
  | Punop of unop * int
  | Pbinop of binop * int * int
  | Pcall of { callee : callee; cargs : int array; site : site; ic : Ic.t option }
      (** virtual calls carry a polymorphic inline cache *)
  | Pnew of { cls : class_id; defaults : value array }
  | Pgetfield of { obj : int; slot : int; fname : string }
  | Psetfield of { obj : int; slot : int; fname : string; value : int }
  | Pnewarray of { ety : ty; len : int }
  | Parrayget of { arr : int; idx : int }
  | Parrayset of { arr : int; idx : int; value : int }
  | Parraylen of int
  | Ptypetest of { obj : int; cls : class_id }
  | Pintrinsic of intrinsic * int array

(** Operands, destinations, phi moves and terminator operands are frame
    slots, not vids (see {!code.slots}). *)
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
      bprof : brec_holder;
    }
  | Preturn of int
  | Punreachable
  | Pdead of bid
      (** the jump target was a deleted block; executing this raises the
          same [Invalid_argument] direct interpretation would *)

type pblock = {
  src_bid : bid;
  phi_dests : int array;
  phi_vids : int array;        (** the phis' vids, for trap messages *)
  phi_srcs : int array array;  (** edge -> phi -> source slot, -1 = none *)
  pred_bids : int array;
  body : pinstr array;
  term : pterm;
  term_cost : int;
  prof : cell_holder;
  mutable osr_skip : bool;
      (** The engine's OSR hook answered "never" for this block; the
          backends stop consulting it. *)
}

type code = {
  fname : string;
  nregs : int;
      (** frame size: the number of distinct vids the live blocks name —
          phi and instruction results, operands (phi inputs included) and
          terminator operands — not the function's vid space *)
  slots : int array;
      (** vid -> frame slot, [-1] for a vid the body never names. Readers
          of a frame by vid (the OSR transfers, whose frame mappings are
          vids) go through it. *)
  entry : int;
  blocks : pblock array;
  ics : Ic.t array;  (** every inline cache in [blocks], decode order *)
}

val fname : code -> string
val num_blocks : code -> int

val prepare : cost:Cost.t -> program -> fn -> code
(** Translates one function. Costs are baked against [cost]; class field
    layouts referenced by [New] are snapshotted from the program. *)

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

val fusable : pop -> bool
(** Calls break a fusable run; everything else fuses. *)

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
