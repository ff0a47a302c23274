(** The partial call tree (paper, Section III-A) and deep inlining trials
    (Section IV).

    Nodes carry the paper's kind tags — C (cutoff), E (expanded, holding a
    callsite-specialized copy of the callee IR), P (polymorphic,
    speculated from the receiver profile), G (generic / not inlinable),
    D (deleted by optimization) — plus the metrics the heuristics consume:
    relative frequency f(n), refined-argument count N_a, triggered-
    optimization count N_s, and subtree size aggregates. *)

open Ir.Types

type target = Known of meth_id | Unknown of string

type kind =
  | Cutoff of target
  | Expanded of { body : fn; size : int; n_opts : int }
      (** [size] is [Ir.Fn.size body], taken when the body is attached: an
          attached body is never mutated *)
  | Poly of string
  | Generic of string
  | Deleted

(** P_I(n), Eq. 5, in an all-float record, which stores it unboxed. *)
type priority = { mutable p_i : float }

(** A node's subtree aggregates, refreshed bottom-up after each change to
    the tree (see {!summarize_path}). *)
type summary = {
  mutable s_ir : int;             (** S_ir(n): attached plus prospective size *)
  mutable s_b : int;              (** S_b(n): size of the cutoff frontier *)
  mutable n_c : int;              (** N_c(n): cutoffs in the subtree *)
  mutable candidate : bool;       (** holds a cutoff not declined this phase *)
  pi : priority;                  (** P_I(n) *)
}

type node = {
  nid : int;
  pnid : int;                     (** parent node id; -1 for root children *)
  mutable tname : string;         (** target label: method name or [?selector] *)
  mutable kind : kind;
  mutable call_vid : vid;         (** the callsite within [owner] *)
  mutable owner : fn;
  site : site;
  freq : float;                   (** f(n), relative to the root *)
  prob : float;                   (** dispatch probability under a Poly parent *)
  recv_cls : class_id option;     (** speculated receiver (Poly children) *)
  ancestors : meth_id list;       (** call-path targets, for recursion depth *)
  mutable n_args_refined : int;
  mutable children : node list;
  mutable spec_sig : (const option * ty option) array;
  mutable tuple : float * float;  (** benefit|cost, set by {!Analysis} *)
  mutable in_parent_cluster : bool;
  mutable front : node list;
  mutable declined : bool;        (** failed the expansion threshold this phase *)
  mutable unknown_size : int option;  (** memoized |ir(n)| of an Unknown cutoff *)
  sum : summary;
}

(** Tree-level aggregates, shared by copies of a {!t}. *)
type totals = {
  mutable stale : bool;           (** the tree changed since the last summary *)
  mutable root_size : int;        (** |ir(root)| at the last full summary *)
  mutable tree_s_ir : int;
  mutable tree_n_c : int;
}

type t = {
  prog : program;
  profiles : Runtime.Profile.t;
  params : Params.t;
  root_meth : meth_id;
  root_fn : fn;                   (** the working copy being compiled *)
  mutable children : node list;
  mutable next_id : int;
  mutable next_syn_site : int;
  trial_cache : Trial_cache.t option;
  body_sizes : (meth_id, int option) Hashtbl.t;  (** prepared body sizes, per method *)
  totals : totals;
  mutable envs : (fn * Opt.Tyinfer.env) list;
      (** owners' inferred types, see {!env_of} *)
}

val create :
  ?trial_cache:Trial_cache.t -> program -> Runtime.Profile.t -> Params.t -> meth_id -> t
(** Copies the method's prepared body and scans its callsites into cutoff
    children with profile-driven frequencies. An installed [trial_cache]
    memoizes specialization results across compilations of the same
    program. *)

val fresh_syn_site : t -> site
(** A synthetic (negative) site key for compiler-introduced control flow;
    never re-speculated and never profiled. *)

val node_depth : node -> int
(** Call-path depth: 1 for direct children of the root. *)

(** {1 Metrics} *)

val node_size : t -> node -> int
(** |ir(n)|: the size inlining this node would add. Memoized per method
    for a Known cutoff and per node for an Unknown one. *)

val local_benefit : t -> node -> float
(** B_L(n), Eq. 4 (cutoff/expanded) and Eq. 13 (poly). *)

val rec_depth : node -> int
(** d(n) for the recursion penalty ψ_r (Eq. 14). *)

val psi_r : node -> float
(** Recursion penalty ψ_r (Eq. 14). *)

(** {1 The expansion summary}

    One bottom-up pass computes every node's {!summary} and the tree
    totals. The readers below run it when the tree changed since the last
    one. Within an expansion phase each step changes one cutoff's
    subtree, and {!summarize_path} re-summarizes only that subtree and
    the path above it. *)

val touch : t -> unit
(** Marks the summary stale. Every change to the tree's shape, node kinds
    or declined flags calls it. *)

val summarize_path : t -> node -> path:node list -> unit
(** [summarize_path t n ~path] re-summarizes [n]'s subtree, then [path]
    ([n]'s ancestors, deepest first, up to a child of the root) each from
    its children's summaries, then the tree totals with |ir(root)| as the
    last full summary read it, and clears the stale mark. Exact when
    nothing outside [n]'s subtree, the root IR included, changed since
    the last summary: a node's summary depends only on its own fields and
    its children's summaries. *)

val summary : t -> node -> summary

val s_ir : t -> node -> int
val s_b : t -> node -> int
val n_c : t -> node -> int

val tree_s_ir : t -> int
(** |ir(root)| plus S_ir over the root's children. *)

val tree_n_c : t -> int

(** {1 Deep inlining trials} *)

val spec_signature :
  t -> env:Opt.Tyinfer.env -> owner:fn -> call_vid:vid -> recv_cls:class_id option ->
  declared:ty array -> (const option * ty option) array
(** Per-parameter (constant, refined type) a callsite would specialize its
    callee with; [env] is [Opt.Tyinfer.infer] of [owner], which callers
    compute once per owner rather than once per callsite. *)

val env_of : t -> fn -> Opt.Tyinfer.env
(** [Opt.Tyinfer.infer] of an owner body, once per owner until
    {!forget_types}: attached bodies are never edited, so expansion and
    refresh share one inference per owner. *)

val forget_types : t -> unit
(** Drops every owner's inferred types; whatever edits the root calls it
    ({!refresh} and the inline phase do). *)

val signature_improves :
  program -> old_sig:(const option * ty option) array ->
  new_sig:(const option * ty option) array -> bool
(** Strictly better information: some parameter gained a constant or a
    more precise type, and none lost one. Guards re-specialization so
    oscillating signatures do not discard subtree exploration. *)

(** {1 Tree evolution} *)

val expand_cutoff : t -> node -> bool
(** Expands in place: Known targets attach a specialized body and scan
    children; Unknown selectors consult the receiver profile to become
    Poly (≤ [poly_max_targets] targets with probability ≥ [poly_min_prob])
    or Generic; recursion past the hard limit becomes Generic. True iff
    the tree gained an Expanded or Poly node. *)

val refresh : t -> unit
(** Re-synchronizes with the owner IRs after a round: deleted callsites
    become D, devirtualized sites update their target, expanded nodes with
    improved argument signatures re-specialize (deep trials only), and new
    root callsites (those of cutoffs inlined without expansion) join as
    fresh cutoffs. *)

val prepared_body : t -> meth_id -> fn option

(** {1 Debugging} *)

val pp : Format.formatter -> t -> unit
