(* The cost-benefit analysis phase (paper, Listing 6 and Section IV
   "Analysis"): assigns each node a benefit|cost tuple and detects callsite
   clusters — connected groups of nodes that are inlined together or not
   at all.

   Tuple algebra:
     b1|c1 ⊕ b2|c2 = (b1+b2)|(c1+c2)        merge            (Eq. 9)
     b1|c1 ⊘ b2|c2 ⇔ b1/c1 ≥ b2/c2          comparison       (Eq. 10)
     ⟨b|c⟩ = b/c                             ratio            (Eq. 11)

   A node's initial benefit is its local benefit minus its children's local
   benefits — inlining a method alone forfeits the optimizations its own
   callees would have enjoyed — and its cost is its IR size. Adjacent child
   clusters are merged greedily while the merge improves the cluster's
   benefit-to-cost ratio.

   Under the 1-by-1 ablation (clustering=false) every node stays in its own
   cluster, reproducing classic method-at-a-time inlining. *)

open Calltree

let ratio (b, c) = b /. max 1.0 c

let merge (b1, c1) (b2, c2) = (b1 +. b2, c1 +. c2)

(* Can this node ever be spliced into the root? *)
let inlinable (n : node) : bool =
  match n.kind with
  | Expanded _ | Poly _ | Cutoff (Known _) -> true
  | Cutoff (Unknown _) | Generic _ | Deleted -> false

(* Listing 6 for one node whose children were already analyzed: initial
   benefit = B_L(n) − Σ B_L(children) (inlining alone forfeits the
   children's optimizations), then greedy cluster merging over the
   front. *)
let analyze_node (t : t) (n : node) : unit =
  n.in_parent_cluster <- false;
  let children_benefit =
    match n.kind with
    | Poly _ ->
        (* poly children are alternative targets; B_L(poly) already weights
           them by dispatch probability (Eq. 13) *)
        List.fold_left (fun acc c -> acc +. (c.prob *. local_benefit t c)) 0.0 n.children
    | _ -> List.fold_left (fun acc c -> acc +. local_benefit t c) 0.0 n.children
  in
  let b = local_benefit t n -. children_benefit in
  let c = float_of_int (max 1 (node_size t n)) in
  n.tuple <- (b, c);
  n.front <- List.filter inlinable n.children;
  if t.params.clustering then begin
    let continue_ = ref true in
    while !continue_ && n.front <> [] do
      let best =
        List.fold_left
          (fun acc m ->
            match acc with
            | None -> Some m
            | Some b' -> if ratio m.tuple > ratio b'.tuple then Some m else acc)
          None n.front
      in
      match best with
      | None -> continue_ := false
      | Some best ->
          let merged = merge n.tuple best.tuple in
          if ratio merged >= ratio n.tuple then begin
            n.tuple <- merged;
            best.in_parent_cluster <- true;
            n.front <-
              List.filter (fun m -> m.nid <> best.nid) n.front @ best.front
          end
          else continue_ := false
    done
  end

(* Bottom-up traversal: children first. *)
let rec analyze_subtree (t : t) (n : node) : unit =
  List.iter (analyze_subtree t) n.children;
  analyze_node t n

let run (t : t) : unit = List.iter (analyze_subtree t) t.children
