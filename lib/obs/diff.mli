(** Cross-run drift diffing for [selvm diff]: metrics exports, timeline
    streams, and the inline-decision trees {!Explain} rebuilds.

    Comparisons are structural and deterministic. Two same-seed runs of
    the same build diff to nothing; a perturbed inlining threshold
    surfaces as per-callsite verdict flips and priority/threshold
    deltas — the reviewable decision-drift report the warm-start roadmap
    item depends on. *)

type delta = { dl_path : string; dl_a : string; dl_b : string }

val diff_json : Support.Json.t -> Support.Json.t -> delta list
(** Structural diff: objects over the sorted union of keys ("(absent)"
    for a missing side), lists by index (plus a [length] delta), scalars
    by serialized value. Paths are dotted. *)

val diff_lines : string list -> string list -> delta list
(** Line-oriented diff for byte-identical-by-contract streams
    (timelines, traces): one delta per differing line number plus a
    [length] delta on tail mismatch. *)

type drift = {
  df_comp : string;  (** compilation identity: root method, ["#k"] for recompiles *)
  df_node : string;  (** callsite identity path ([target@m:site/...]); [""] for the compilation itself *)
  df_kind : string;
      (** [expand-verdict] / [inline-verdict] / [*-priority] /
          [*-threshold] / [*-benefit] / [*-cost] / [node] /
          [compilation] *)
  df_a : string;
  df_b : string;
}

val diff_decisions :
  Explain.compilation list -> Explain.compilation list -> drift list
(** Pairs compilations by (root method, occurrence) and tree nodes by
    their stable (target, profile-site) identity path, then reports
    verdict flips and final-decision term deltas per phase, and
    nodes/compilations present on only one side. *)

val render_deltas : ?limit:int -> string -> delta list -> string
val render_drift : ?limit:int -> drift list -> string
