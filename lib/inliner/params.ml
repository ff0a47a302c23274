(* All tunables of the inlining algorithm in one record, mirroring the
   constants of Section IV of the paper.

   The paper's values (p1=1e-3, p2=1e-4, b1=0.5, b2=10, r1≈3000, r2≈500,
   t1=0.005, t2=120, root cap 50000) are calibrated to Graal IR node
   counts, where typical method bodies run into the hundreds or thousands
   of nodes. Sel bodies are an order of magnitude smaller, so the
   size-denominated constants (r1, r2, t2, size_cap and the threshold
   scale) are retuned; each field notes the paper's original. The policy
   toggles at the bottom select the ablation variants evaluated in
   Figures 6–9. *)

type threshold_policy =
  | Adaptive
  (* Fixed expansion/inlining budgets, the paper's T_e and T_i:
     expansion stops when the call-tree size S_ir(root) exceeds [te];
     inlining stops when the root IR size exceeds [ti]. *)
  | Fixed of { te : int; ti : int }

type t = {
  (* exploration penalty ψ (Eq. 7): ψ = p1*S_ir + p2*S_b − b1*max(0, b2 − N_c²) *)
  p1 : float;         (* paper: 1e-3 *)
  p2 : float;         (* paper: 1e-4 *)
  b1 : float;         (* paper: 0.5 *)
  b2 : float;         (* paper: 10 *)
  (* adaptive expansion threshold (Eq. 8): B_L/|ir| >= e^((S_ir(root)−r1)/r2) *)
  r1 : float;         (* paper: ~3000; ours: ~600 (smaller bodies) *)
  r2 : float;         (* paper: ~500; ours: ~120 *)
  (* adaptive inlining threshold (Eq. 12, reconstructed — see DESIGN.md):
     ⟨tuple⟩ >= t1 * 2^((|ir(root)| + |ir(n)| − t2) / tscale) *)
  t1 : float;         (* paper: 0.005 *)
  t2 : float;         (* paper: 120 *)
  tscale : float;     (* substrate scale constant σ *)
  (* polymorphic inlining *)
  poly_max_targets : int;   (* paper: 3 *)
  poly_min_prob : float;    (* paper: 0.10 *)
  (* recursion *)
  rec_hard_limit : int;     (* beyond this depth a recursive cutoff is Generic *)
  (* termination *)
  root_size_cap : int;      (* paper: 50000 *)
  max_rounds : int;
  max_expansions_per_round : int;
  (* ablation toggles *)
  threshold_policy : threshold_policy;
  clustering : bool;        (* false = each node is its own cluster (1-by-1) *)
  deep_trials : bool;       (* false = no argument specialization below the root *)
  (* the per-round root pipeline; opts-ablation drops passes from it *)
  root_passes : Opt.Driver.pass list;
}

let default =
  {
    p1 = 1e-3;
    p2 = 1e-4;
    b1 = 0.5;
    b2 = 10.0;
    r1 = 600.0;
    r2 = 120.0;
    t1 = 0.005;  (* the paper's value *)
    t2 = 180.0;
    tscale = 80.0;
    poly_max_targets = 3;
    poly_min_prob = 0.10;
    rec_hard_limit = 6;
    root_size_cap = 10_000;
    max_rounds = 12;
    max_expansions_per_round = 64;
    threshold_policy = Adaptive;
    clustering = true;
    deep_trials = true;
    root_passes = Opt.Driver.root_passes;
  }

let with_fixed ~te ~ti p = { p with threshold_policy = Fixed { te; ti } }
let without_clustering p = { p with clustering = false }
let without_deep_trials p = { p with deep_trials = false }

let pp ppf (p : t) =
  Fmt.pf ppf "{policy=%s; clustering=%b; deep_trials=%b}"
    (match p.threshold_policy with
    | Adaptive -> "adaptive"
    | Fixed { te; ti } -> Printf.sprintf "fixed(te=%d,ti=%d)" te ti)
    p.clustering p.deep_trials
