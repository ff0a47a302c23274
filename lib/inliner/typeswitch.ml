(* Typeswitch materialization for polymorphic inlining (paper, Section IV
   "Polymorphic inlining", after Hölzle & Ungar).

   A virtual callsite `v = call virtual sel(recv, ...)` becomes:

       pre:  ...                       (instructions before the call)
             t1 = typetest recv, C1
             if t1 then D1 else T2
       D1:   r1 = call direct M1(...)  ; goto post
       T2:   t2 = typetest recv, C2
             if t2 then D2 else F
       D2:   r2 = call direct M2(...)  ; goto post
       F:    rf = call virtual sel(...) ; goto post    (fallback)
       post: v = phi [(D1,r1); (D2,r2); (F,rf)]
             ...                       (instructions after the call)

   Tests are emitted most-specific-class-first so a subtype-aware type test
   cannot capture a receiver that belongs to a more specific profiled
   class. The fallback keeps the virtual dispatch — the paper's
   alternative to ending the typeswitch with a deoptimization.

   [build] is the generic transformation (also used by the baseline
   inliners for monomorphic speculation); [materialize] applies it to a
   Poly call-tree node and re-anchors the node's children at the direct
   calls. *)

open Ir.Types

(* Sorts speculation targets so no class appears after one of its
   subclasses; ties keep the higher-probability class first. *)
let order_targets (prog : program) (targets : (class_id * 'a) list) : (class_id * 'a) list =
  let cmp (ca, _) (cb, _) =
    if ca = cb then 0
    else if Ir.Program.is_subclass prog ~sub:ca ~sup:cb then -1
    else if Ir.Program.is_subclass prog ~sub:cb ~sup:ca then 1
    else 0
  in
  List.stable_sort cmp targets

(* Rewrites [call_vid] (a virtual call in [fn]) into a typeswitch over
   [targets]; the input order is preserved, so the caller must order
   specific-first (see [order_targets]). Returns the direct-call vid
   created for each target class. *)
let build (prog : program) (fn : fn) ~(call_vid : vid)
    ~(targets : (class_id * meth_id) list) ~(fresh_site : unit -> site) :
    (class_id * vid) list =
  ignore prog;
  if targets = [] then invalid_arg "Typeswitch.build: no targets";
  let sel, args, site, rty =
    match Ir.Fn.kind fn call_vid with
    | Call { callee = Virtual sel; args; site; rty } -> (sel, args, site, rty)
    | Call { callee = Direct _; _ } ->
        invalid_arg "Typeswitch.build: callsite already devirtualized"
    | _ -> invalid_arg "Typeswitch.build: not a call"
  in
  let recv = List.hd args in
  (* split the containing block, as Splice does: the call heads [post] *)
  let call_block = Ir.Fn.block_of fn call_vid in
  let post = Ir.Fn.split_block fn call_vid in
  let phi_inputs = ref [] in
  let direct_calls = ref [] in
  let rec cascade (cur : bid) = function
    | [] ->
        (* fallback: residual virtual call under a synthetic site so later
           rounds do not re-speculate it *)
        let fb =
          Ir.Fn.append fn cur
            (Call { callee = Virtual sel; args; site = fresh_site (); rty })
        in
        Ir.Fn.set_term fn cur (Goto post);
        phi_inputs := (cur, fb) :: !phi_inputs
    | (cls, m) :: rest ->
        let test = Ir.Fn.append fn cur (TypeTest { obj = recv; cls }) in
        let dcall_block = Ir.Fn.add_block fn in
        let next_block = Ir.Fn.add_block fn in
        Ir.Fn.set_term fn cur
          (If { cond = test; site = fresh_site (); tb = dcall_block; fb = next_block });
        let dcall =
          Ir.Fn.append fn dcall_block (Call { callee = Direct m; args; site; rty })
        in
        Ir.Fn.set_term fn dcall_block (Goto post);
        phi_inputs := (dcall_block, dcall) :: !phi_inputs;
        direct_calls := (cls, dcall) :: !direct_calls;
        cascade next_block rest
  in
  cascade call_block targets;
  Ir.Fn.set_kind fn call_vid (Phi { ty = rty; inputs = List.rev !phi_inputs });
  List.rev !direct_calls

(* Applies [build] to a Poly call-tree node in the root IR and re-anchors
   its children at the new direct calls. Returns false (leaving the
   callsite untouched and marking the node Generic) when no viable target
   remains — e.g. every speculated child hit the recursion limit. *)
let materialize (t : Calltree.t) (n : Calltree.node) : bool =
  let open Calltree in
  let sel = match n.kind with Poly sel -> sel | _ -> invalid_arg "Typeswitch.materialize" in
  touch t;
  let targets =
    List.filter_map
      (fun (c : node) ->
        match (c.recv_cls, c.kind) with
        | Some cls, Cutoff (Known m) -> Some (cls, (m, c))
        | Some cls, Expanded _ -> (
            match Ir.Program.resolve t.prog cls sel with
            | Some m -> Some (cls, (m, c))
            | None -> None)
        | _ -> None)
      n.children
    |> order_targets t.prog
  in
  if targets = [] then begin
    n.kind <- Generic "no viable speculation targets";
    n.children <- [];
    false
  end
  else begin
    let direct =
      build t.prog t.root_fn ~call_vid:n.call_vid
        ~targets:(List.map (fun (cls, (m, _)) -> (cls, m)) targets)
        ~fresh_site:(fun () -> fresh_syn_site t)
    in
    List.iter
      (fun (cls, (_, (child : node))) ->
        match List.assoc_opt cls direct with
        | Some dcall ->
            child.call_vid <- dcall;
            child.owner <- t.root_fn
        | None -> child.kind <- Deleted)
      targets;
    (* children that were not viable targets can no longer be anchored *)
    List.iter
      (fun (c : node) ->
        if not (List.exists (fun (_, (_, c')) -> c'.nid = c.nid) targets) then begin
          c.kind <- Deleted;
          c.children <- []
        end)
      n.children;
    true
  end
