(* Inline substitution at the IR level.

   [inline_call ~caller ~call_vid ~callee] splices a copy of [callee]'s body
   into [caller] at the given call instruction:

     pre:  ... instrs before call        (original block, preds unchanged)
           goto callee_entry'
     callee blocks (fresh ids; Param i replaced by the call's i-th argument;
           every Return v becomes a goto to post)
     post: call_vid = phi [(ret_block, v); ...]   <- the call's id is REUSED
           ... instrs after the call
           original terminator

   Reusing the call's vid for the join phi means no use of the call result
   anywhere in the caller needs rewriting. Successor blocks' phi edges are
   renamed from the original block to [post] because the original
   terminator moved there.

   Returns the id remapping so the inliner can re-anchor call-tree children
   (callee-local callsite vids -> caller vids). *)

open Types

(* The maps are indexed by callee id, which is dense; [unmapped] marks
   an id with no counterpart (dead, or in an unreachable block). *)
type remap = {
  vmap : vid array;  (* callee vid -> caller vid *)
  bmap : bid array;  (* callee bid -> caller bid *)
  post : bid;        (* the join block in the caller *)
}

let unmapped = -1

let inline_call ~(caller : fn) ~(call_vid : vid) ~(callee : fn) : remap =
  let call_args, rty =
    match Fn.kind caller call_vid with
    | Call { args; rty; _ } -> (Array.of_list args, rty)
    | _ -> invalid_arg "Splice.inline_call: not a call instruction"
  in
  (* 1. Split the containing block: the call heads [post]. *)
  let call_block = Fn.block_of caller call_vid in
  let post = Fn.split_block caller call_vid in
  (* 2. Copy callee blocks and instructions (reachable only). *)
  let reachable = Fn.reachable callee in
  let bmap = Array.make (Support.Vec.length callee.blocks) unmapped in
  let vmap = Array.make (Support.Vec.length callee.instrs) unmapped in
  Fn.iter_blocks
    (fun b -> if reachable b.b_id then bmap.(b.b_id) <- Fn.add_block caller)
    callee;
  (* pass 1: allocate ids; params map directly to arguments *)
  Fn.iter_blocks
    (fun b ->
      if reachable b.b_id then
        List.iter
          (fun v ->
            match Fn.kind callee v with
            | Param i ->
                if i >= Array.length call_args then
                  invalid_arg "Splice.inline_call: arity mismatch";
                vmap.(v) <- call_args.(i)
            | _ ->
                let fresh = Fn.fresh_instr caller (Const Cunit) (* placeholder kind *) in
                vmap.(v) <- fresh.id)
          b.instrs)
    callee;
  let mv v =
    if v >= 0 && v < Array.length vmap && vmap.(v) <> unmapped then vmap.(v)
    else invalid_arg (Printf.sprintf "Splice.inline_call: unmapped callee value v%d" v)
  in
  let mb b =
    if b >= 0 && b < Array.length bmap && bmap.(b) <> unmapped then bmap.(b)
    else invalid_arg (Printf.sprintf "Splice.inline_call: unmapped callee block b%d" b)
  in
  (* pass 2: fill kinds with remapped operands and build block contents *)
  let returns = ref [] in
  Fn.iter_blocks
    (fun b ->
      if reachable b.b_id then begin
        let nb = mb b.b_id in
        Fn.place caller nb
          (List.filter_map
             (fun v ->
               match Fn.kind callee v with
               | Param _ -> None
               | k ->
                   let nk =
                     match k with
                     | Phi { ty; inputs } ->
                         Phi
                           {
                             ty;
                             inputs =
                               List.filter_map
                                 (fun (pb, pv) ->
                                   if reachable pb then Some (mb pb, mv pv) else None)
                                 inputs;
                           }
                     | k -> Instr.map_operands mv k
                   in
                   Fn.set_kind caller (mv v) nk;
                   Some (mv v))
             b.instrs);
        Fn.set_term caller nb
          (match b.term with
          | Goto t -> Goto (mb t)
          | If { cond; site; tb; fb } -> If { cond = mv cond; site; tb = mb tb; fb = mb fb }
          | Return v ->
              returns := (nb, mv v) :: !returns;
              Goto post
          | Unreachable -> Unreachable)
      end)
    callee;
  (* 3. Wire control into the callee and materialize the join phi. *)
  Fn.set_term caller call_block (Goto (mb callee.entry));
  Fn.set_kind caller call_vid (Phi { ty = rty; inputs = List.rev !returns });
  { vmap; bmap; post }
