(* The expansion phase (paper, Section III-B and Section IV "Expansion").

   Repeatedly descends from the root, at each expanded node choosing the
   child with the highest priority P(n), until reaching a cutoff node,
   which is then expanded if it passes the expansion threshold.

   Priorities:
     P_I(n) = B_L(n)/|ir(n)| − ψ_r(n)          for cutoffs       (Eq. 5, 14)
     P_I(n) = max over children of P_I          for expanded/poly (Eq. 5)
     P(n)   = P_I(n) − ψ(n)                                      (Eq. 6)
     ψ(n)   = p1·S_ir(n) + p2·S_b(n) − b1·max(0, b2 − N_c(n)²)   (Eq. 7)

   Expansion threshold (adaptive, Eq. 8):
     B_L(n)/|ir(n)| ≥ e^((S_ir(root) − r1)/r2)
   or, under the Fixed ablation policy, expansion continues while the total
   call-tree size stays under T_e.

   The descent, the penalties, the threshold and the telemetry all read
   the call tree's summary ({!Calltree.summary}). One bottom-up pass over
   the whole tree computes it as the phase starts; after that, each step
   changes only the chosen cutoff's subtree, so it re-summarizes that
   subtree and the path the descent walked to it. *)

open Calltree

let psi_r = Calltree.psi_r

(* The penalties and priorities are inlined where they are compared, so
   their floats are never boxed; the maximum in ψ is [Stdlib.max]'s
   [if a >= b then a else b], written out at type float. *)

(* ψ(n), Eq. 7. *)
let[@inline] psi (t : t) (n : node) : float =
  let p = t.params in
  let ncn = float_of_int (n_c t n) in
  let softening = p.b2 -. (ncn *. ncn) in
  (p.p1 *. float_of_int (s_ir t n))
  +. (p.p2 *. float_of_int (s_b t n))
  -. (p.b1 *. if 0.0 >= softening then 0.0 else softening)

let[@inline] intrinsic_priority (t : t) (n : node) : float = (summary t n).pi.p_i
let[@inline] priority (t : t) (n : node) : float = intrinsic_priority t n -. psi t n

(* The highest-priority child whose subtree holds a candidate cutoff; the
   first one wins ties. *)
let best_child (t : t) (children : node list) : node option =
  List.fold_left
    (fun acc c ->
      if not (summary t c).candidate then acc
      else
        match acc with
        | None -> Some c
        | Some b -> if priority t c > priority t b then Some c else acc)
    None children

(* Walks from [n] to the most promising cutoff below it, returning the
   cutoff and the nodes passed on the way, deepest first, after [path]. *)
let rec descend (t : t) (path : node list) (n : node) : (node * node list) option =
  match n.kind with
  | Cutoff _ -> if n.declined then None else Some (n, path)
  | Expanded _ | Poly _ -> Option.bind (best_child t n.children) (descend t (n :: path))
  | Generic _ | Deleted -> None

(* The most promising cutoff and its ancestors, deepest first. *)
let best_path (t : t) : (node * node list) option =
  Option.bind (best_child t t.children) (descend t [])

let best_cutoff (t : t) : node option = Option.map fst (best_path t)

(* The expansion threshold for one cutoff. *)
let may_expand (t : t) (n : node) : bool =
  match t.params.threshold_policy with
  | Params.Fixed { te; _ } -> tree_s_ir t < te
  | Params.Adaptive ->
      let p = t.params in
      let size = max 1 (node_size t n) in
      let relative_benefit = local_benefit t n /. float_of_int size in
      relative_benefit >= exp ((float_of_int (tree_s_ir t) -. p.r1) /. p.r2)

(* The numeric gate [may_expand] compares against, for telemetry: the
   adaptive relative-benefit bound (Eq. 8) or the fixed tree-size budget
   T_e (compared against [tree_size], not the benefit). *)
let threshold_value (t : t) : float =
  match t.params.threshold_policy with
  | Params.Fixed { te; _ } -> float_of_int te
  | Params.Adaptive -> exp ((float_of_int (tree_s_ir t) -. t.params.r1) /. t.params.r2)

let m_expansions = Obs.Metrics.counter "inliner.expansions"

(* One structured telemetry record per expansion-threshold decision:
   which cutoff was at the head of the exploration, at what benefit, cost,
   penalty and priority, and whether it was expanded or declined. The
   node/parent ids and target label let [Obs.Explain] rebuild the tree. *)
let trace_decision (t : t) (n : node) ~(verdict : string) : unit =
  Obs.Trace.emit "expand_decision" (fun () ->
      Support.Json.
        [
          ("root", Int t.root_meth);
          ("nid", Int n.nid);
          ("parent", Int n.pnid);
          ("depth", Int (node_depth n));
          ("target", String n.tname);
          ("site_m", Int n.site.sm);
          ("site_idx", Int n.site.sidx);
          ("callsite", Int n.call_vid);
          ("benefit", Float (local_benefit t n));
          ("cost", Int (node_size t n));
          ("penalty", Float (psi t n));
          ("priority", Float (priority t n));
          ("threshold", Float (threshold_value t));
          ("tree_size", Int (tree_s_ir t));
          ("verdict", String verdict);
        ])

type step = Grew | Stuck | Declined | Finished

(* Clears last phase's declined flags; the first read re-summarizes the
   whole tree, which the inline phase and the refresh have changed. *)
let start (t : t) : unit =
  let rec clear (n : node) =
    n.declined <- false;
    List.iter clear n.children
  in
  List.iter clear t.children;
  touch t

(* One descent and its verdict. A step changes only the chosen cutoff, so
   the summary is brought up to date along the descent's path. *)
let step (t : t) : step =
  match best_path t with
  | None -> Finished
  | Some (n, path) ->
      if may_expand t n then begin
        trace_decision t n ~verdict:"expand";
        let grew = expand_cutoff t n in
        summarize_path t n ~path;
        if grew then begin
          Obs.Metrics.incr m_expansions;
          Grew
        end
        else (* a Generic outcome makes no progress but leaves no cutoff *)
          Stuck
      end
      else begin
        trace_decision t n ~verdict:"decline";
        match t.params.threshold_policy with
        | Params.Fixed _ ->
            (* the budget is global: once exceeded, the phase is over *)
            Finished
        | Params.Adaptive ->
            n.declined <- true;
            summarize_path t n ~path;
            Declined
      end

(* One expansion phase. Returns the number of nodes expanded. *)
let run (t : t) : int =
  start t;
  let rec loop expanded =
    if expanded >= t.params.max_expansions_per_round then expanded
    else begin
      (* watchdog checkpoint: between expansions the tree and the root IR
         are consistent, so a fuel abort here is clean *)
      Support.Fuel.spend 1;
      match step t with
      | Finished -> expanded
      | Grew -> loop (expanded + 1)
      | Stuck | Declined -> loop expanded
    end
  in
  loop 0
