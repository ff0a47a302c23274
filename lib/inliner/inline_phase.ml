(* The inlining phase (paper, Listing 5 and Section IV "Inlining").

   A queue starts with the root's children. The cluster with the best
   benefit-to-cost ratio is repeatedly selected; if it passes the adaptive
   inlining threshold (Eq. 12) it is spliced into the root — together with
   every descendant in the same cluster — and the cluster's front (the
   descendants left out) joins the queue as new root children.

   Adaptive threshold (Eq. 12, reconstruction documented in DESIGN.md):

     ⟨tuple(n)⟩ ≥ t1 · 2^((|ir(root)| + cost(n) − t2) / tscale)

   Under the Fixed ablation policy, inlining instead proceeds best-first
   while the root stays below T_i. *)

open Calltree

let log_src = Logs.Src.create "inliner.inline" ~doc:"inlining phase decisions"

module Log = (val Logs.src_log log_src)

(* The numeric gate [can_inline] compares against, for telemetry: the
   adaptive ratio bound (Eq. 12) or the fixed root-size budget T_i
   (compared against the root size, not the ratio). [root_size] is
   |ir(root)|, computed once by the caller. *)
let threshold_value (t : t) (n : node) ~(root_size : int) : float =
  match t.params.threshold_policy with
  | Params.Fixed { ti; _ } -> float_of_int ti
  | Params.Adaptive ->
      let p = t.params in
      let root_size = float_of_int root_size in
      let _, cost = n.tuple in
      p.t1 *. (2.0 ** ((root_size +. cost -. p.t2) /. p.tscale))

(* ⟨tuple(n)⟩ ≥ t1 · 2^((|ir(root)| + cost(n) − t2)/tscale), and the root
   is below the hard size cap; [root_size] is |ir(root)|. *)
let can_inline (t : t) (n : node) ~(root_size : int) : bool =
  root_size < t.params.root_size_cap
  &&
  match t.params.threshold_policy with
  | Params.Fixed _ -> float_of_int root_size < threshold_value t n ~root_size
  | Params.Adaptive -> Analysis.ratio n.tuple >= threshold_value t n ~root_size

let m_inlines = Obs.Metrics.counter "inliner.inlines"
let m_inline_depth = Obs.Metrics.histogram "inliner.inline_depth"

(* One structured telemetry record per inlining decision. Cluster members
   spliced along with their parent carry [cluster = true]: they were
   selected by the cluster analysis, not gated individually, so their
   [threshold] is informational. *)
let trace_decision (t : t) (n : node) ~(verdict : string) ~(cluster : bool) : unit =
  Obs.Trace.emit "inline_decision" (fun () ->
      let root_size = Ir.Fn.size t.root_fn in
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
          ("benefit", Float (fst n.tuple));
          ("cost", Float (snd n.tuple));
          ("priority", Float (Analysis.ratio n.tuple));
          ("threshold", Float (threshold_value t n ~root_size));
          ("root_size", Int root_size);
          ("cluster", Bool cluster);
          ("verdict", String verdict);
        ])

(* Splices node [n] (anchored in the root) into the root, recursively
   splicing the members of its cluster. Returns the number of callsites
   inlined. *)
let rec inline_node (t : t) (n : node) : int =
  assert (n.owner == t.root_fn);
  touch t;
  let record () =
    Obs.Metrics.incr m_inlines;
    Obs.Metrics.observe m_inline_depth (node_depth n)
  in
  match n.kind with
  | Expanded { body; _ } ->
      let remap = Ir.Splice.inline_call ~caller:t.root_fn ~call_vid:n.call_vid ~callee:body in
      List.iter
        (fun (c : node) ->
          let v' = remap.vmap.(c.call_vid) in
          (* an unmapped callsite was unreachable in the specialized body *)
          if v' = Ir.Splice.unmapped then c.kind <- Deleted else c.call_vid <- v';
          c.owner <- t.root_fn)
        n.children;
      record ();
      1 + inline_cluster_children t n
  | Poly _ ->
      if Typeswitch.materialize t n then begin
        record ();
        1 + inline_cluster_children t n
      end
      else 0
  | Cutoff (Known m) -> (
      match prepared_body t m with
      | None -> 0
      | Some body ->
          let copy = Ir.Fn.copy body in
          ignore (Ir.Splice.inline_call ~caller:t.root_fn ~call_vid:n.call_vid ~callee:copy);
          (* a cutoff has no children yet; new callsites surface via the
             orphan scan in the next round *)
          record ();
          1)
  | Cutoff (Unknown _) | Generic _ | Deleted -> 0

and inline_cluster_children (t : t) (n : node) : int =
  List.fold_left
    (fun acc (c : node) ->
      if c.in_parent_cluster && Analysis.inlinable c && c.kind <> Deleted then begin
        trace_decision t c ~verdict:"inline" ~cluster:true;
        acc + inline_node t c
      end
      else acc)
    0 n.children

(* One inlining phase. Returns the number of callsites inlined into the
   root. *)
let run (t : t) : int =
  (* the phase edits the root *)
  forget_types t;
  let queue = ref (List.filter Analysis.inlinable t.children) in
  let inlined = ref 0 in
  let continue_ = ref true in
  while !continue_ && !queue <> [] do
    let best =
      List.fold_left
        (fun acc m ->
          match acc with
          | None -> Some m
          | Some b -> if Analysis.ratio m.tuple > Analysis.ratio b.tuple then Some m else acc)
        None !queue
    in
    match best with
    | None -> continue_ := false
    | Some n ->
        queue := List.filter (fun m -> m.nid <> n.nid) !queue;
        let root_size = Ir.Fn.size t.root_fn in
        let inline = can_inline t n ~root_size in
        let verdict = if inline then "inline" else "skip" in
        Log.debug (fun m_ ->
            m_ "consider v%d tuple=%.2f|%.0f ratio=%.4f root=%d -> %s" n.call_vid
              (fst n.tuple) (snd n.tuple) (Analysis.ratio n.tuple) root_size verdict);
        trace_decision t n ~verdict ~cluster:false;
        if root_size >= t.params.root_size_cap then continue_ := false
        else if inline then begin
          let k = inline_node t n in
          inlined := !inlined + k;
          (* the cluster's front becomes direct children of the root *)
          let front = n.front in
          t.children <-
            List.filter (fun (c : node) -> c.nid <> n.nid) t.children @ front;
          queue := !queue @ List.filter Analysis.inlinable front
        end
  done;
  !inlined
