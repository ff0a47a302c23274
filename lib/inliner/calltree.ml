(* The partial call tree (paper, Section III-A) and deep inlining trials
   (Section IV).

   Each node represents one callsite. Node kinds follow the paper's tags:
   C (cutoff, not yet expanded), E (expanded, with an attached *specialized
   copy* of the callee IR), P (polymorphic, speculated from the receiver
   profile, one child per target), G (generic — cannot be inlined), and
   D (deleted by optimization).

   A node is *anchored* at a call instruction ([call_vid]) inside an owner
   IR: the working copy of the root method for the root's children, or the
   parent's specialized body copy otherwise. Inlining re-anchors surviving
   descendants into the root (see [Inline_phase]).

   Deep inlining trials: when a cutoff is expanded, the callsite's argument
   constants and refined argument types are propagated into the fresh
   callee copy, which is then canonicalized; the count of triggered simple
   optimizations is the paper's N_s, the count of refined arguments N_a,
   and both feed the local benefit B_L (Eq. 4). *)

open Ir.Types

type target = Known of meth_id | Unknown of string (* unresolved selector *)

type kind =
  | Cutoff of target
  | Expanded of { body : fn; size : int; n_opts : int }
      (* [size] is [Ir.Fn.size body]: the body is never mutated *)
  | Poly of string                     (* selector; children carry targets *)
  | Generic of string                  (* reason it cannot be inlined *)
  | Deleted

(* P_I(n), Eq. 5, alone in an all-float record, which holds it unboxed:
   a float field of a mixed record is a pointer to a box, so every update
   would allocate one. *)
type priority = { mutable p_i : float }

(* A node's subtree aggregates for one expansion step (see [summarize]). *)
type summary = {
  mutable s_ir : int;                  (* S_ir(n): attached and prospective size *)
  mutable s_b : int;                   (* S_b(n): size of the cutoff frontier *)
  mutable n_c : int;                   (* N_c(n): cutoffs in the subtree *)
  mutable candidate : bool;            (* holds a cutoff not declined this phase *)
  pi : priority;                       (* P_I(n) *)
}

type node = {
  nid : int;
  pnid : int;                          (* parent node id; -1 for root children *)
  mutable tname : string;              (* target label: method name or selector *)
  mutable kind : kind;
  mutable call_vid : vid;
  mutable owner : fn;                  (* the IR that contains [call_vid] *)
  site : site;
  freq : float;                        (* f(n), relative to the root *)
  prob : float;                        (* dispatch probability under a Poly parent *)
  recv_cls : class_id option;          (* speculated receiver class (Poly children) *)
  ancestors : meth_id list;            (* targets on the path to the root *)
  mutable n_args_refined : int;        (* N_a *)
  mutable children : node list;
  mutable spec_sig : (const option * ty option) array;  (* last specialization *)
  (* analysis results (filled by [Analysis]) *)
  mutable tuple : float * float;       (* benefit | cost *)
  mutable in_parent_cluster : bool;
  mutable front : node list;
  (* expansion bookkeeping *)
  mutable declined : bool;             (* failed the expansion threshold this phase *)
  mutable unknown_size : int option;   (* memoized |ir(n)| of an Unknown cutoff *)
  sum : summary;
}

(* Tree-level aggregates, shared by copies of [t]; [stale] is set by every
   change to the tree and cleared by [summarize] and [summarize_path]. *)
type totals = {
  mutable stale : bool;
  mutable root_size : int;             (* |ir(root)| at the last full summary *)
  mutable tree_s_ir : int;             (* |ir(root)| + S_ir over the root's children *)
  mutable tree_n_c : int;
}

type t = {
  prog : program;
  profiles : Runtime.Profile.t;
  params : Params.t;
  root_meth : meth_id;
  root_fn : fn;                        (* working copy being compiled *)
  mutable children : node list;
  mutable next_id : int;
  mutable next_syn_site : int;         (* synthetic (negative) site ids *)
  trial_cache : Trial_cache.t option;  (* cross-compilation trial memoization *)
  body_sizes : (meth_id, int option) Hashtbl.t;  (* prepared body sizes *)
  totals : totals;
  mutable envs : (fn * Opt.Tyinfer.env) list;  (* owners' inferred types (see [env_of]) *)
}

let fresh_id t =
  let i = t.next_id in
  t.next_id <- i + 1;
  i

let fresh_syn_site t : site =
  t.next_syn_site <- t.next_syn_site - 1;
  { sm = t.root_meth; sidx = t.next_syn_site }

let prepared_body (t : t) (m : meth_id) : fn option = (Ir.Program.meth t.prog m).body

(* ---------- sizes and metrics ---------- *)

let default_unknown_size = 25

(* Size of a method's prepared body, memoized per method: prepared bodies
   do not change while a method compiles. [None] for abstract methods. *)
let body_size (t : t) (m : meth_id) : int option =
  match Hashtbl.find_opt t.body_sizes m with
  | Some size -> size
  | None ->
      let size = Option.map Ir.Fn.size (prepared_body t m) in
      Hashtbl.replace t.body_sizes m size;
      size

(* The receiver-profile estimate of an Unknown cutoff's size. *)
let estimate_unknown_size (t : t) (n : node) (sel : string) : int =
  match Runtime.Profile.receiver_profile t.profiles n.site with
  | [] -> default_unknown_size
  | profile ->
      let sizes =
        List.filter_map
          (fun (c, p) ->
            match Ir.Program.resolve t.prog c sel with
            | Some m -> Option.map (fun size -> float_of_int size *. p) (body_size t m)
            | None -> None)
          profile
      in
      if sizes = [] then default_unknown_size
      else int_of_float (List.fold_left ( +. ) 0.0 sizes)

(* |ir(n)|: the size of what inlining this node would add. *)
let node_size (t : t) (n : node) : int =
  match n.kind with
  | Expanded { size; _ } -> size
  | Cutoff (Known m) -> Option.value (body_size t m) ~default:default_unknown_size
  | Cutoff (Unknown sel) -> (
      match n.unknown_size with
      | Some size -> size
      | None ->
          (* a node's site and selector never change, nor does the profile
             during a compilation *)
          let size = estimate_unknown_size t n sel in
          n.unknown_size <- Some size;
          size)
  | Poly _ -> 2 * max 1 (List.length n.children)  (* the typeswitch cascade *)
  | Generic _ | Deleted -> 0

(* B_L(n) of a cutoff, Eq. 4. *)
let[@inline] cutoff_benefit (n : node) : float = n.freq *. (1.0 +. float_of_int n.n_args_refined)

(* B_L(n), Eq. 4 / Eq. 13. *)
let rec local_benefit (t : t) (n : node) : float =
  match n.kind with
  | Deleted | Generic _ -> 0.0
  | Cutoff _ -> cutoff_benefit n
  | Expanded { n_opts; _ } -> n.freq *. (1.0 +. float_of_int n_opts)
  | Poly _ ->
      List.fold_left (fun acc c -> acc +. (c.prob *. local_benefit t c)) 0.0 n.children

(* Occurrences of [m] in a call path. *)
let rec occurrences (m : meth_id) (acc : int) : meth_id list -> int = function
  | [] -> acc
  | m' :: rest -> occurrences m (if m' = m then acc + 1 else acc) rest

(* Recursion depth d(n) for Eq. 14: occurrences of the cutoff's own target
   among its ancestors. *)
let rec_depth (n : node) : int =
  match n.kind with Cutoff (Known m) -> occurrences m 0 n.ancestors | _ -> 0

(* ψ_r(n), Eq. 14: pressure against monopolizing exploration with
   recursion. d(n)=1 (first recursive occurrence) is free. Each maximum
   is [Stdlib.max]'s [if a >= b then a else b], written out at type float
   so that nothing is boxed. *)
let[@inline] psi_r (n : node) : float =
  let growth = (2.0 ** float_of_int (rec_depth n)) -. 2.0 in
  (if 1.0 >= n.freq then 1.0 else n.freq) *. if 0.0 >= growth then 0.0 else growth

(* ---------- the expansion summary ---------- *)

let rec sum_s_ir (acc : int) : node list -> int = function
  | [] -> acc
  | c :: rest -> sum_s_ir (acc + c.sum.s_ir) rest

(* Adds each child's S_ir, S_b and N_c into [s], marks [s] a candidate if
   a child is one, and raises P_I to each candidate child's in list
   order, as a fold of [Stdlib.max] would. *)
let rec add_children (s : summary) : node list -> unit = function
  | [] -> ()
  | c :: rest ->
      let cs = c.sum in
      s.s_ir <- s.s_ir + cs.s_ir;
      s.s_b <- s.s_b + cs.s_b;
      s.n_c <- s.n_c + cs.n_c;
      if cs.candidate then begin
        s.candidate <- true;
        if not (s.pi.p_i >= cs.pi.p_i) then s.pi.p_i <- cs.pi.p_i
      end;
      add_children s rest

(* A node's summary from its own fields and its children's summaries:
   S_ir, S_b, N_c, whether the subtree holds a cutoff still worth
   visiting this phase, and P_I (Eq. 5) — benefit per node less ψ_r for
   a cutoff, the maximum over the candidate children for an expanded or
   poly node. *)
let summarize_one (t : t) (n : node) : unit =
  let s = n.sum in
  match n.kind with
  | Deleted | Generic _ ->
      s.s_ir <- 0;
      s.s_b <- 0;
      s.n_c <- 0;
      s.candidate <- false;
      s.pi.p_i <- neg_infinity
  | Cutoff _ ->
      let size = node_size t n in
      s.s_ir <- sum_s_ir size n.children;
      s.s_b <- size;
      s.n_c <- 1;
      s.candidate <- not n.declined;
      s.pi.p_i <- (cutoff_benefit n /. float_of_int (max 1 size)) -. psi_r n
  | Expanded _ | Poly _ ->
      s.s_ir <- node_size t n;
      s.s_b <- 0;
      s.n_c <- 0;
      s.candidate <- false;
      s.pi.p_i <- neg_infinity;
      add_children s n.children

(* Bottom-up over a subtree. Nodes below a Deleted or Generic node are
   summarized too, though their parent ignores them. *)
let rec summarize_node (t : t) (n : node) : unit =
  List.iter (summarize_node t) n.children;
  summarize_one t n

(* Tree-level aggregates treat the root as an expanded node over the
   working root IR, whose size [root_size] holds. *)
let summarize_totals (t : t) : unit =
  let totals = t.totals in
  totals.tree_s_ir <- List.fold_left (fun acc c -> acc + c.sum.s_ir) totals.root_size t.children;
  totals.tree_n_c <- List.fold_left (fun acc c -> acc + c.sum.n_c) 0 t.children;
  totals.stale <- false

let summarize (t : t) : unit =
  List.iter (summarize_node t) t.children;
  t.totals.root_size <- Ir.Fn.size t.root_fn;
  summarize_totals t

(* A change confined to [n]'s subtree moves only the summaries of that
   subtree and of [n]'s ancestors: a node's summary depends on nothing
   but its own fields and its children's summaries, and |ir(root)| on
   the root IR, which expansion never edits. *)
let summarize_path (t : t) (n : node) ~(path : node list) : unit =
  summarize_node t n;
  List.iter (summarize_one t) path;
  summarize_totals t

let touch (t : t) : unit = t.totals.stale <- true

let totals (t : t) : totals =
  if t.totals.stale then summarize t;
  t.totals

let summary (t : t) (n : node) : summary =
  ignore (totals t);
  n.sum

let s_ir (t : t) (n : node) : int = (summary t n).s_ir
let s_b (t : t) (n : node) : int = (summary t n).s_b
let n_c (t : t) (n : node) : int = (summary t n).n_c
let tree_s_ir (t : t) : int = (totals t).tree_s_ir
let tree_n_c (t : t) : int = (totals t).tree_n_c

(* ---------- frequencies ---------- *)

(* Relative in-method frequency of each block of [fn], profile-driven when
   the method has been interpreted, static otherwise. *)
let block_freqs (t : t) (m : meth_id) (fn : fn) : (bid, float) Hashtbl.t =
  Ir.Freq.profiled fn ~counts:(fun b -> float_of_int (Runtime.Profile.block_count t.profiles m b))

let freq_of_call (freqs : (bid, float) Hashtbl.t) (fn : fn) (v : vid) : float =
  Ir.Freq.of_instr fn freqs v

(* ---------- deep inlining trials ---------- *)

(* Converts an inferred value type to a parameter refinement. *)
let vt_to_ty (vt : Opt.Tyinfer.vt) : ty option =
  match vt with
  | Opt.Tyinfer.Vt_obj { cls; _ } -> Some (Tobj cls)
  | Opt.Tyinfer.Vt_arr e -> Some (Tarray e)
  | Opt.Tyinfer.Vt_prim p -> Some p
  | _ -> None

let strictly_more_precise = Sigs.strictly_more_precise

(* The owner's inferred types, inferred once per owner. An attached body
   is never edited, and the root only by the inline phase and by the root
   optimizations, which [refresh] follows; both drop the cache. *)
let env_of (t : t) (owner : fn) : Opt.Tyinfer.env =
  match List.assq_opt owner t.envs with
  | Some env -> env
  | None ->
      let env = Opt.Tyinfer.infer t.prog owner in
      t.envs <- (owner, env) :: t.envs;
      env

let forget_types (t : t) : unit = t.envs <- []

(* What would this callsite specialize its callee with? Returns, per
   parameter: an optional constant and an optional refined type. [env] is
   the owner's inferred types: callers infer once per owner, not per
   callsite. *)
let spec_signature (t : t) ~(env : Opt.Tyinfer.env) ~(owner : fn) ~(call_vid : vid)
    ~(recv_cls : class_id option) ~(declared : ty array) : (const option * ty option) array =
  let args =
    match Ir.Fn.kind owner call_vid with
    | Call { args; _ } -> Array.of_list args
    | _ -> invalid_arg "Calltree.spec_signature: not a call"
  in
  Array.mapi
    (fun i declared_ty ->
      if i >= Array.length args then (None, None)
      else
        let arg = args.(i) in
        let cst = match Ir.Fn.kind owner arg with Const c -> Some c | _ -> None in
        let refined =
          if i = 0 && recv_cls <> None then
            (* polymorphic speculation pins the receiver class *)
            Option.map (fun c -> Tobj c) recv_cls
          else
            match vt_to_ty (Opt.Tyinfer.value_type env arg) with
            | Some ty when strictly_more_precise t.prog ~refined:ty ~declared:declared_ty ->
                Some ty
            | _ -> None
        in
        (cst, refined))
    declared

(* see {!Sigs.improves} *)
let signature_improves (prog : program) ~old_sig ~new_sig : bool =
  Sigs.improves prog ~old_sig ~new_sig

(* Copies the callee body and applies the specialization: constants replace
   Param instructions, refined types land in [spec_tys], and the copy is
   canonicalized. Returns (copy, N_s, N_a). A copy still marked prepared
   (no constant replaced a Param, as every [Fn] writer clears the mark)
   with no refined type (written to [spec_tys], past [Fn]) is a prepared
   body unchanged, which is a [simplify] fixpoint: it is returned with
   N_s = 0 after the one unit of fuel that [simplify]'s single no-op round
   spends. *)
let specialize_uncached (t : t) ~(enabled : bool) ~(callee_body : fn)
    ~(sg : (const option * ty option) array) : fn * int * int =
  let copy = Ir.Fn.copy callee_body in
  let n_a = ref 0 in
  if enabled then
    Array.iteri
      (fun i (cst, refined) ->
        (match refined with
        | Some ty ->
            copy.spec_tys.(i) <- ty;
            incr n_a
        | None -> ());
        match cst with
        | Some c ->
            let had_param = ref false in
            Ir.Fn.iter_instrs
              (fun instr ->
                match instr.kind with
                | Param k when k = i ->
                    Ir.Fn.set_kind copy instr.id (Const c);
                    had_param := true
                | _ -> ())
              copy;
            if !had_param && refined = None then incr n_a
        | None -> ())
      sg;
  if copy.prepared && !n_a = 0 then begin
    Support.Fuel.spend 1;
    (copy, 0, 0)
  end
  else
    let stats = Opt.Driver.simplify t.prog copy in
    (copy, Opt.Driver.simple_opt_count stats, !n_a)

(* Cached entry point: (callee, signature, flag) keys an immutable template
   in the per-compiler trial cache when one is installed. [callee_m] is the
   method id used for the key. *)
let specialize ?(callee_m : meth_id option) (t : t) ~(enabled : bool)
    ~(callee_body : fn) ~(sg : (const option * ty option) array) : fn * int * int =
  match (t.trial_cache, callee_m) with
  | Some cache, Some m -> (
      match Trial_cache.find cache m ~enabled ~sg with
      | Some result -> result
      | None ->
          let body, n_opts, n_a = specialize_uncached t ~enabled ~callee_body ~sg in
          Trial_cache.store cache m ~enabled ~sg ~body ~n_opts ~n_a;
          (body, n_opts, n_a))
  | _ -> specialize_uncached t ~enabled ~callee_body ~sg

(* ---------- node creation ---------- *)

let meth_name (t : t) (m : meth_id) : string = (Ir.Program.meth t.prog m).m_name

(* Display label of a target: the method name, or the selector prefixed
   with [?] while the receiver is unresolved. *)
let target_label (t : t) : target -> string = function
  | Known m -> meth_name t m
  | Unknown sel -> "?" ^ sel

(* Call-path depth of a node: 1 for direct children of the root. *)
let node_depth (n : node) : int = List.length n.ancestors

let make_node (t : t) ~pnid ~tname ~kind ~call_vid ~owner ~site ~freq ~prob ~recv_cls
    ~ancestors : node =
  {
    nid = fresh_id t;
    pnid;
    tname;
    kind;
    call_vid;
    owner;
    site;
    freq;
    prob;
    recv_cls;
    ancestors;
    n_args_refined = 0;
    children = [];
    spec_sig = [||];
    tuple = (0.0, 1.0);
    in_parent_cluster = false;
    front = [];
    declined = false;
    unknown_size = None;
    sum = { s_ir = 0; s_b = 0; n_c = 0; candidate = false; pi = { p_i = neg_infinity } };
  }

(* Creates cutoff children for every call in [body] (the specialized copy
   attached to an expanded node, or the root working IR). *)
let scan_children (t : t) ~(pnid : int) ~(owner : fn) ~(owner_meth : meth_id)
    ~(parent_freq : float) ~(ancestors : meth_id list) : node list =
  let freqs = block_freqs t owner_meth owner in
  let env = lazy (env_of t owner) in
  List.map
    (fun (call : instr) ->
      match call.kind with
      | Call { callee; site; _ } ->
          let target =
            match callee with Direct m -> Known m | Virtual sel -> Unknown sel
          in
          let f = parent_freq *. freq_of_call freqs owner call.id in
          let n =
            make_node t ~pnid ~tname:(target_label t target) ~kind:(Cutoff target)
              ~call_vid:call.id ~owner ~site ~freq:f ~prob:1.0 ~recv_cls:None ~ancestors
          in
          (* a cutoff with const/refined args already has N_a > 0 *)
          (match target with
          | Known m ->
              let declared = (Ir.Program.meth t.prog m).m_param_tys in
              let sg =
                spec_signature t ~env:(Lazy.force env) ~owner ~call_vid:call.id
                  ~recv_cls:None ~declared
              in
              n.n_args_refined <-
                Array.fold_left
                  (fun acc (cst, ty) -> if cst <> None || ty <> None then acc + 1 else acc)
                  0 sg
          | Unknown _ -> ());
          n
      | _ -> assert false)
    (Ir.Fn.calls owner)

let create ?trial_cache (prog : program) (profiles : Runtime.Profile.t)
    (params : Params.t) (root_meth : meth_id) : t =
  Option.iter (fun c -> Trial_cache.bind c prog) trial_cache;
  let body =
    match (Ir.Program.meth prog root_meth).body with
    | Some fn -> fn
    | None -> invalid_arg "Calltree.create: compiling an abstract method"
  in
  let t =
    {
      prog;
      profiles;
      params;
      root_meth;
      root_fn = Ir.Fn.copy body;
      children = [];
      next_id = 0;
      next_syn_site = -1;
      trial_cache;
      body_sizes = Hashtbl.create 16;
      totals = { stale = true; root_size = 0; tree_s_ir = 0; tree_n_c = 0 };
      envs = [];
    }
  in
  (* the root method itself is the first link of every call path, so a
     direct self-recursive callsite already has recursion depth 1 *)
  t.children <-
    scan_children t ~pnid:(-1) ~owner:t.root_fn ~owner_meth:root_meth ~parent_freq:1.0
      ~ancestors:[ root_meth ];
  t

(* ---------- expansion of one cutoff ---------- *)

(* The paper resolves polymorphic callsites with the VM's receiver profile:
   up to [poly_max_targets] receivers, each at least [poly_min_prob]
   probable; receivers resolving to the same method are merged (Detlefs &
   Agesen). *)
let poly_targets (t : t) (n : node) (sel : string) : (class_id * meth_id * float) list =
  let profile = Runtime.Profile.receiver_profile t.profiles n.site in
  let qualified =
    List.filter (fun (_, p) -> p >= t.params.poly_min_prob) profile
    |> List.filter_map (fun (c, p) ->
           match Ir.Program.resolve t.prog c sel with
           | Some m when (Ir.Program.meth t.prog m).body <> None -> Some (c, m, p)
           | _ -> None)
  in
  (* merge classes dispatching to the same method, keep the most probable
     class as the test representative *)
  let by_meth = Hashtbl.create 4 in
  List.iter
    (fun (c, m, p) ->
      match Hashtbl.find_opt by_meth m with
      | Some (c0, p0) -> Hashtbl.replace by_meth m (c0, p0 +. p) |> fun () -> ignore c
      | None -> Hashtbl.replace by_meth m (c, p))
    qualified;
  Hashtbl.fold (fun m (c, p) acc -> (c, m, p) :: acc) by_meth []
  |> List.sort (fun (_, _, p1) (_, _, p2) -> compare p2 p1)
  |> List.filteri (fun i _ -> i < t.params.poly_max_targets)

(* Expands a cutoff in place: attaches a specialized body (Expanded), turns
   it polymorphic (Poly) or marks it Generic. Returns true if the tree
   gained an expanded or poly node. *)
let expand_cutoff (t : t) (n : node) : bool =
  touch t;
  match n.kind with
  | Cutoff (Known m) ->
      let depth = occurrences m 0 n.ancestors in
      if depth > t.params.rec_hard_limit then begin
        n.kind <- Generic "recursion depth limit";
        false
      end
      else (
        match prepared_body t m with
        | None ->
            n.kind <- Generic "abstract target";
            false
        | Some callee_body ->
            let declared = (Ir.Program.meth t.prog m).m_param_tys in
            let sg =
              spec_signature t ~env:(env_of t n.owner) ~owner:n.owner
                ~call_vid:n.call_vid ~recv_cls:n.recv_cls ~declared
            in
            let enabled =
              (* shallow-trials ablation: specialize root-level callsites
                 only (the root method is every path's first ancestor) *)
              t.params.deep_trials || List.length n.ancestors <= 1
            in
            let body, n_opts, n_a = specialize ~callee_m:m t ~enabled ~callee_body ~sg in
            n.kind <- Expanded { body; size = Ir.Fn.size body; n_opts };
            n.n_args_refined <- n_a;
            n.spec_sig <- sg;
            n.children <-
              scan_children t ~pnid:n.nid ~owner:body ~owner_meth:m ~parent_freq:n.freq
                ~ancestors:(m :: n.ancestors);
            true)
  | Cutoff (Unknown sel) -> (
      match poly_targets t n sel with
      | [] ->
          n.kind <- Generic "unknown receiver";
          false
      | targets ->
          n.kind <- Poly sel;
          n.children <-
            List.map
              (fun (c, m, p) ->
                make_node t ~pnid:n.nid ~tname:(meth_name t m) ~kind:(Cutoff (Known m))
                  ~call_vid:n.call_vid ~owner:n.owner ~site:n.site ~freq:(n.freq *. p)
                  ~prob:p ~recv_cls:(Some c) ~ancestors:n.ancestors)
              targets;
          true)
  | _ -> invalid_arg "Calltree.expand_cutoff: not a cutoff"

(* ---------- per-round refresh ---------- *)

(* Re-synchronizes the tree with its owner IRs after optimization:
   - callsites deleted by branch pruning become D nodes;
   - virtual callsites devirtualized in the owner IR update their target;
   - expanded nodes whose callsite arguments got *better* since their last
     specialization are re-specialized (children rebuilt);
   - new callsites in the root IR (those of a cutoff inlined without
     expansion, whose body was spliced in with no children scanned)
     become fresh cutoff children of the root.
   No owner IR changes during a refresh, so [env_of] infers each owner's
   types at most once. *)
let rec refresh_node (t : t) (n : node) : unit =
  if not (Ir.Fn.instr_live n.owner n.call_vid) then begin
    n.kind <- Deleted;
    n.children <- []
  end
  else begin
    (match (n.kind, Ir.Fn.kind n.owner n.call_vid) with
    | Cutoff (Unknown _), Call { callee = Direct m; _ } ->
        n.kind <- Cutoff (Known m);
        n.tname <- meth_name t m
    | Poly _, Call { callee = Direct m; _ } ->
        (* the owner IR devirtualized the site out from under the
           speculation; restart the node as a plain direct cutoff *)
        n.kind <- Cutoff (Known m);
        n.tname <- meth_name t m;
        n.children <- []
    | Expanded _, Call { callee = Direct m; _ } when t.params.deep_trials -> (
        (* re-specialize when the signature improved *)
        match prepared_body t m with
        | Some callee_body ->
            let declared = (Ir.Program.meth t.prog m).m_param_tys in
            let sg =
              spec_signature t ~env:(env_of t n.owner) ~owner:n.owner ~call_vid:n.call_vid
                ~recv_cls:n.recv_cls ~declared
            in
            if signature_improves t.prog ~old_sig:n.spec_sig ~new_sig:sg then begin
              let body, n_opts, n_a = specialize ~callee_m:m t ~enabled:true ~callee_body ~sg in
              n.kind <- Expanded { body; size = Ir.Fn.size body; n_opts };
              n.n_args_refined <- n_a;
              n.spec_sig <- sg;
              n.children <-
                scan_children t ~pnid:n.nid ~owner:body ~owner_meth:m ~parent_freq:n.freq
                  ~ancestors:(m :: n.ancestors)
            end
        | None -> ())
    | _ -> ());
    List.iter (refresh_node t) n.children
  end

(* All nodes anchored in the root IR (root children plus poly children that
   share their parent's anchor). *)
let anchored_in_root (t : t) : (vid, unit) Hashtbl.t =
  let set = Hashtbl.create 16 in
  let rec go (n : node) =
    if n.owner == t.root_fn then Hashtbl.replace set n.call_vid ();
    List.iter go n.children
  in
  List.iter go t.children;
  set

let scan_orphans (t : t) : unit =
  let anchored = anchored_in_root t in
  let static_freqs = lazy (Ir.Freq.static t.root_fn) in
  let orphans =
    List.filter (fun (c : instr) -> not (Hashtbl.mem anchored c.id)) (Ir.Fn.calls t.root_fn)
  in
  List.iter
    (fun (call : instr) ->
      match call.kind with
      | Call { callee; site; _ } ->
          let target =
            match callee with Direct m -> Known m | Virtual sel -> Unknown sel
          in
          let f = freq_of_call (Lazy.force static_freqs) t.root_fn call.id in
          t.children <-
            make_node t ~pnid:(-1) ~tname:(target_label t target) ~kind:(Cutoff target)
              ~call_vid:call.id ~owner:t.root_fn ~site ~freq:f ~prob:1.0 ~recv_cls:None
              ~ancestors:[ t.root_meth ]
            :: t.children
      | _ -> assert false)
    orphans

let refresh (t : t) : unit =
  touch t;
  (* the root optimizations edited the root *)
  forget_types t;
  List.iter (refresh_node t) t.children;
  scan_orphans t

(* ---------- debugging ---------- *)

let rec pp_node (t : t) ppf (n : node) =
  let tag =
    match n.kind with
    | Cutoff _ -> "C"
    | Expanded _ -> "E"
    | Poly _ -> "P"
    | Generic _ -> "G"
    | Deleted -> "D"
  in
  Fmt.pf ppf "@[<v 2>[%s] v%d f=%.3f size=%d B=%.3f%a@]" tag n.call_vid n.freq
    (node_size t n) (local_benefit t n)
    (fun ppf children ->
      List.iter (fun c -> Fmt.pf ppf "@,%a" (pp_node t) c) children)
    n.children

let pp ppf (t : t) =
  Fmt.pf ppf "@[<v 2>root %s size=%d@,%a@]" t.root_fn.fname (Ir.Fn.size t.root_fn)
    (fun ppf cs -> List.iter (fun c -> Fmt.pf ppf "%a@," (pp_node t) c) cs)
    t.children
