(* Per-method cycle attribution and a calling-context tree (CCT).

   When enabled (a [t] installed on the VM), every method invocation is
   bracketed by [enter]/[leave] stamped with the simulated cycle clock.
   From those brackets we accrue, per method:

   - self cycles, split by tier (interpreted / jit) — the
     elapsed cycles of the frame minus the cycles of its callees;
   - total cycles — elapsed cycles while the method is anywhere on the
     stack, counted once per method (a self-recursive method does not
     double-count its own nested activations);
   - invocation counts, split by tier;
   - deoptimization counts (fed by the engine's invalidation path).

   The CCT interns one node per (parent node, method) pair and accrues
   self cycles per node, which is exactly the shape a flamegraph's
   folded-stack lines want: path-from-root plus a weight.

   enter/leave sit on the VM's invocation path, so they are built for
   speed: method records live in an array indexed by method id, context
   nodes are interned by scanning the parent's (short) child list, and
   the only per-call allocations are the frame cons cells on the minor
   heap. No hashing, no closures.

   Everything is driven by the simulated clock and a deterministic stack
   discipline, so reports are byte-identical across runs. The module is
   deliberately free of IR dependencies: methods are plain ids and the
   caller supplies a naming function at render time. *)

type tier = Interp | Jit

let tier_index = function Interp -> 0 | Jit -> 1

type mrec = {
  self : int array;              (* self cycles, indexed by tier *)
  invocations : int array;       (* invocation counts, indexed by tier *)
  mutable total : int;           (* cycles with the method on the stack *)
  mutable deopts : int;
  mutable evicts : int;          (* code-cache evictions (capacity pressure) *)
  (* total-once-per-method bookkeeping for recursive activations *)
  mutable on_stack : int;
  mutable entered_total_at : int;
}

type cct_node = {
  cn_up : cct_node;              (* parent; the virtual root points to itself *)
  cn_meth : int;                 (* -1 on the virtual root *)
  mutable cn_self : int;
  mutable cn_kids : cct_node list;
}

(* The frame stack lives in parallel arrays indexed by depth, so an
   enter/leave pair allocates nothing at all. *)
type t = {
  mutable mrecs : mrec option array;   (* indexed by method id, grown on demand *)
  root : cct_node;
  mutable all_nodes : cct_node list;   (* every interned node, any order *)
  dummy : mrec;                        (* fill for unused stack slots *)
  mutable fs_rec : mrec array;
  mutable fs_tier : int array;
  mutable fs_start : int array;
  mutable fs_children : int array;     (* cycles spent in callees of the frame *)
  mutable fs_node : cct_node array;
  mutable depth : int;
}

let fresh_mrec () : mrec =
  { self = Array.make 2 0; invocations = Array.make 2 0; total = 0; deopts = 0;
    evicts = 0; on_stack = 0; entered_total_at = 0 }

let create () : t =
  let rec root = { cn_up = root; cn_meth = -1; cn_self = 0; cn_kids = [] } in
  let dummy = fresh_mrec () in
  let cap = 256 in
  {
    mrecs = Array.make 64 None;
    root;
    all_nodes = [];
    dummy;
    fs_rec = Array.make cap dummy;
    fs_tier = Array.make cap 0;
    fs_start = Array.make cap 0;
    fs_children = Array.make cap 0;
    fs_node = Array.make cap root;
    depth = 0;
  }

let grow_stack (t : t) : unit =
  let cap = Array.length t.fs_start in
  let next = 2 * cap in
  let extend fill a =
    let b = Array.make next fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.fs_rec <- extend t.dummy t.fs_rec;
  t.fs_tier <- extend 0 t.fs_tier;
  t.fs_start <- extend 0 t.fs_start;
  t.fs_children <- extend 0 t.fs_children;
  t.fs_node <- extend t.root t.fs_node

let mrec_of (t : t) (meth : int) : mrec =
  if meth >= Array.length t.mrecs then begin
    let grown = Array.make (max (meth + 1) (2 * Array.length t.mrecs)) None in
    Array.blit t.mrecs 0 grown 0 (Array.length t.mrecs);
    t.mrecs <- grown
  end;
  match t.mrecs.(meth) with
  | Some r -> r
  | None ->
      let r = fresh_mrec () in
      t.mrecs.(meth) <- Some r;
      r

(* Child lists are short (a method's distinct callees in one context), so
   a linear scan beats hashing an interning key. *)
let node_of (t : t) ~(parent : cct_node) ~(meth : int) : cct_node =
  let rec find = function
    | n :: rest -> if n.cn_meth = meth then n else find rest
    | [] ->
        let n = { cn_up = parent; cn_meth = meth; cn_self = 0; cn_kids = [] } in
        parent.cn_kids <- n :: parent.cn_kids;
        t.all_nodes <- n :: t.all_nodes;
        n
  in
  find parent.cn_kids

let enter (t : t) ~(meth : int) ~(tier : tier) ~(now : int) : unit =
  let r = mrec_of t meth in
  let ti = tier_index tier in
  r.invocations.(ti) <- r.invocations.(ti) + 1;
  if r.on_stack = 0 then r.entered_total_at <- now;
  r.on_stack <- r.on_stack + 1;
  let d = t.depth in
  let parent = if d = 0 then t.root else t.fs_node.(d - 1) in
  let node = node_of t ~parent ~meth in
  if d = Array.length t.fs_start then grow_stack t;
  t.fs_rec.(d) <- r;
  t.fs_tier.(d) <- ti;
  t.fs_start.(d) <- now;
  t.fs_children.(d) <- 0;
  t.fs_node.(d) <- node;
  t.depth <- d + 1

let leave (t : t) ~(now : int) : unit =
  if t.depth = 0 then ()         (* imbalanced (shouldn't happen); ignore *)
  else begin
    let d = t.depth - 1 in
    t.depth <- d;
    let r = t.fs_rec.(d) in
    let elapsed = now - t.fs_start.(d) in
    let self = elapsed - t.fs_children.(d) in
    let ti = t.fs_tier.(d) in
    r.self.(ti) <- r.self.(ti) + self;
    let n = t.fs_node.(d) in
    n.cn_self <- n.cn_self + self;
    r.on_stack <- r.on_stack - 1;
    if r.on_stack = 0 then r.total <- r.total + (now - r.entered_total_at);
    t.fs_rec.(d) <- t.dummy;     (* don't pin the record past the frame *)
    if d > 0 then t.fs_children.(d - 1) <- t.fs_children.(d - 1) + elapsed
  end

let record_deopt (t : t) (meth : int) : unit =
  let r = mrec_of t meth in
  r.deopts <- r.deopts + 1

let record_evict (t : t) (meth : int) : unit =
  let r = mrec_of t meth in
  r.evicts <- r.evicts + 1

(* ---------- reporting ---------- *)

type row = {
  r_meth : int;
  r_self : int;                  (* across tiers *)
  r_total : int;
  r_invocations : int;           (* across tiers *)
  r_self_by_tier : int * int;
  r_invocations_by_tier : int * int;
  r_deopts : int;
  r_evicts : int;
}

let rows (t : t) : row list =
  let acc = ref [] in
  Array.iteri
    (fun meth -> function
      | None -> ()
      | Some (r : mrec) ->
          acc :=
            {
              r_meth = meth;
              r_self = r.self.(0) + r.self.(1);
              r_total = r.total;
              r_invocations = r.invocations.(0) + r.invocations.(1);
              r_self_by_tier = (r.self.(0), r.self.(1));
              r_invocations_by_tier = (r.invocations.(0), r.invocations.(1));
              r_deopts = r.deopts;
              r_evicts = r.evicts;
            }
            :: !acc)
    t.mrecs;
  List.sort
    (fun a b ->
      match compare b.r_self a.r_self with 0 -> compare a.r_meth b.r_meth | c -> c)
    !acc

let folded (t : t) ~(name : int -> string) : string list =
  let path_of (n : cct_node) : string =
    let rec go (n : cct_node) acc =
      let acc = name n.cn_meth :: acc in
      if n.cn_up.cn_meth < 0 then acc else go n.cn_up acc
    in
    String.concat ";" (go n [])
  in
  List.filter_map
    (fun (n : cct_node) ->
      if n.cn_self > 0 then Some (Printf.sprintf "%s %d" (path_of n) n.cn_self)
      else None)
    t.all_nodes
  |> List.sort compare
