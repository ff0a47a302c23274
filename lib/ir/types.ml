(* Core IR type definitions.

   All mutually-referential types live here; behaviour lives in sibling
   modules (Instr, Fn, Program, ...). The IR is a CFG of basic blocks in SSA
   form. Instructions are identified by dense integer ids ([vid]) and blocks
   by [bid]; a function owns one table of each.

   Site keys: every [Call] and [If] carries the method id and ordinal it was
   assigned when the method was first lowered from the AST. Profiles are
   keyed by site, so they survive IR copying, specialization and inlining —
   an inlined callsite still finds the receiver profile collected while the
   callee ran in the interpreter. *)

type class_id = int
type meth_id = int
type vid = int
type bid = int

(* Static types. Function types from the frontend are desugared to classes
   (a synthetic base class per arity) before IR construction, so [Tobj]
   covers them. *)
type ty =
  | Tint
  | Tbool
  | Tunit
  | Tstring
  | Tarray of ty
  | Tobj of class_id

type const =
  | Cint of int
  | Cbool of bool
  | Cstring of string
  | Cunit
  | Cnull

type binop =
  | Add | Sub | Mul | Div | Rem
  | Shl | Shr | Band | Bor | Bxor
  | Lt | Le | Gt | Ge | Eq | Ne
  | Andb | Orb | Xorb | Eqb

type unop = Neg | Not

type intrinsic =
  | Iprint_int
  | Iprint_str
  | Iprint_bool
  | Istr_len
  | Istr_get   (* character code at index *)
  | Istr_eq
  | Iabs
  | Imin
  | Imax

(* Stable profile key: method that originally contained the site, plus the
   site's ordinal within that method. *)
type site = { sm : meth_id; sidx : int }

type callee =
  | Direct of meth_id
  | Virtual of string  (* selector; receiver is the first argument *)

type instr_kind =
  | Const of const
  | Param of int
  | Unop of unop * vid
  | Binop of binop * vid * vid
  | Phi of { ty : ty; inputs : (bid * vid) list }
  | Call of { callee : callee; args : vid list; site : site; rty : ty }
  | New of class_id
  | GetField of { obj : vid; slot : int; fname : string; fty : ty }
  | SetField of { obj : vid; slot : int; fname : string; value : vid }
  | NewArray of { ety : ty; len : vid }
  | ArrayGet of { arr : vid; idx : vid; ety : ty }
  | ArraySet of { arr : vid; idx : vid; value : vid }
  | ArrayLen of vid
  | TypeTest of { obj : vid; cls : class_id }  (* instance-of, subclass-aware *)
  | Intrinsic of intrinsic * vid list

(* Kinds are immutable values; an instruction changes kind only through
   [Fn], which also keeps the last three fields, an index over the
   function checked by [Verify], current:
   - [users]: one entry per occurrence of this value among the operands
     of live instructions;
   - [term_users]: one entry per live block whose terminator reads it;
   - [block]: the block that lists it, or -1. *)
type instr = {
  id : vid;
  mutable kind : instr_kind;
  mutable users : vid list;
  mutable term_users : bid list;
  mutable block : bid;
}

type terminator =
  | Goto of bid
  | If of { cond : vid; site : site; tb : bid; fb : bid }
  | Return of vid
  | Unreachable

type block = {
  b_id : bid;
  mutable instrs : vid list;       (* in execution order *)
  mutable term : terminator;
}

(* An analysis of a body's control-flow graph that [Fn] caches: reverse
   postorder, reachability, predecessors, dominators, loops. The module
   that computes an analysis adds its constructor. *)
type analysis = ..

(* The analyses computed for one state of a body's control-flow graph,
   from entry block [cfg_entry]. A CFG writer of [Fn] drops the record,
   so it never outlives the graph it describes; an analysis in it is
   never mutated. *)
type cfg = { cfg_entry : bid; mutable analyses : analysis list }

(* A function body. [param_tys] holds the *declared* parameter types;
   [spec_tys] holds callsite-refined types installed by deep inlining trials
   (initially equal to [param_tys]). Type inference reads [spec_tys].
   [has_users] says whether the instructions' [users]/[term_users] lists
   are current; [Fn] rebuilds them on demand when not. [cfg] caches the
   control-flow analyses. [prepared] says that baseline preparation ran
   and no [Fn] writer has edited the body since. *)
type fn = {
  fname : string;
  mutable param_tys : ty array;
  mutable spec_tys : ty array;
  rty : ty;
  mutable entry : bid;
  blocks : block option Support.Vec.t;
  instrs : instr option Support.Vec.t;
  mutable has_users : bool;
  mutable cfg : cfg option;
  mutable prepared : bool;
}

(* Class metadata. [layout] is the full field layout including inherited
   fields (single inheritance keeps slot indices stable down the
   hierarchy). [vtable] maps a selector to the implementing method. *)
type cls = {
  c_id : class_id;
  c_name : string;
  parent : class_id option;
  mutable layout : (string * ty) array;
  mutable vtable : (string * meth_id) list;
  is_abstract : bool;
}

type meth = {
  m_id : meth_id;
  m_name : string;               (* qualified, e.g. "Point.getX" or "main" *)
  selector : string;             (* unqualified name used for dispatch *)
  owner : class_id option;       (* None for top-level functions *)
  m_param_tys : ty array;        (* includes [this] for instance methods *)
  m_rty : ty;
  mutable body : fn option;      (* None for abstract methods *)
}

type program = {
  classes : cls Support.Vec.t;
  meths : meth Support.Vec.t;
  meth_by_name : (string, meth_id) Hashtbl.t;
  mutable main : meth_id;
  (* memoized virtual-dispatch results, (receiver class, selector) ->
     implementing method; cleared whenever the class table or a vtable
     changes so it is never stale during frontend construction *)
  resolve_memo : (class_id * string, meth_id option) Hashtbl.t;
  (* memoized class-hierarchy answers, class -> its concrete subtypes;
     cleared together with [resolve_memo] *)
  subtypes_memo : (class_id, class_id list) Hashtbl.t;
}
