(** Inline-tree reconstruction for [selvm explain].

    Folds a trace's expand_decision / inline_decision / inline_round
    events back into the paper's inline trees, one per compilation span
    (compile_start … compile_done/compile_bailout; the engine is
    non-reentrant, so spans never interleave). Decisions outside any span
    — a standalone [Inliner.Algorithm.compile] run — synthesize a span
    keyed by the decision's root method. Round numbers are inferred from
    the inline_round markers inside the span.

    Rendering is deterministic: node order is ascending node id and every
    number comes from the events themselves (simulated cycles, never wall
    time). *)

type phase = Expand | Inline

type decision = {
  d_round : int;
  d_phase : phase;
  d_verdict : string;        (** [expand]/[decline] or [inline]/[skip] *)
  d_benefit : float;         (** B_L (expand) or the analysis tuple's benefit *)
  d_cost : float;            (** |ir(n)| (expand) or the tuple's cost *)
  d_penalty : float option;  (** ψ (Eq. 7); expansion decisions only *)
  d_threshold : float;       (** the gate value the verdict compared against *)
  d_priority : float;        (** P(n) (expand) or the benefit/cost ratio *)
  d_cluster : bool;          (** spliced as a cluster member, not gated *)
  d_context : int;           (** tree size (expand) / root size (inline) *)
  d_at_cycles : int;
}

type cnode = {
  x_nid : int;
  x_parent : int;            (** parent node id; -1 for root children *)
  x_target : string;         (** method name, or [?selector] while virtual *)
  x_site : int * int;        (** declaring method id, site ordinal *)
  x_callsite : int;
  x_depth : int;             (** 1 for direct children of the root *)
  mutable x_decisions : decision list;  (** chronological *)
  mutable x_children : cnode list;      (** ascending node id *)
}

type compilation = {
  c_meth : string;
  c_m : int;
  c_start_cycles : int;
  c_rounds : int;
  c_outcome : string;
  c_roots : cnode list;
}

val of_lines : string list -> (compilation list, string) result
(** Blank lines are skipped; the error names the first malformed line. *)

val of_file : string -> (compilation list, string) result

val render : compilation list -> string
(** The ASCII inline trees: per compilation a header line and one node
    per callsite with its decision history and final benefit / cost /
    penalty / priority / threshold terms. *)

val render_why : compilation list -> meth:string -> site:int option -> string
(** Full decision provenance for every callsite whose target label equals
    [meth] (and whose site ordinal equals [site] when given), across all
    compilations in the trace. *)
