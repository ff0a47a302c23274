(* CFG cleanup: unreachable-block removal, phi pruning and trivial-phi
   elimination, and straight-line block merging. Runs after passes that
   rewrite terminators (branch pruning, inlining) to restore a minimal
   CFG, which keeps the paper's |ir| size metric honest. *)

open Ir.Types

type replaced = old_v:vid -> new_v:vid -> unit

let no_hook : replaced = fun ~old_v:_ ~new_v:_ -> ()

(* Removes blocks unreachable from the entry, pruning the phi inputs of the
   survivors. Returns true when anything changed. *)
let remove_unreachable ?(pruned = ignore) (fn : fn) : bool =
  let reachable = Ir.Fn.reachable fn in
  let changed = ref false in
  (* prune phi edges coming from dead predecessors *)
  Ir.Fn.iter_blocks
    (fun blk ->
      if reachable blk.b_id then
        List.iter
          (fun v ->
            match Ir.Fn.kind fn v with
            | Phi { inputs; _ } when not (List.for_all (fun (pb, _) -> reachable pb) inputs) ->
                Ir.Fn.set_phi_inputs fn v (List.filter (fun (pb, _) -> reachable pb) inputs);
                pruned v;
                changed := true
            | _ -> ())
          blk.instrs)
    fn;
  let dead = ref [] in
  Ir.Fn.iter_blocks
    (fun blk -> if not (reachable blk.b_id) then dead := blk.b_id :: !dead)
    fn;
  List.iter
    (fun b ->
      Ir.Fn.delete_block fn b;
      changed := true)
    !dead;
  !changed

(* The one value other than [self] among a phi's inputs: -1 when there is
   none, -2 when there are several. *)
let rec sole_input ~self acc = function
  | [] -> acc
  | (_, v) :: rest ->
      if v = self || v = acc then sole_input ~self acc rest
      else if acc = -1 then sole_input ~self v rest
      else -2

(* Replaces phis whose inputs are all the same value (ignoring self) with
   that value. Phis head their blocks, so a sweep reads only the heads:
   the last block's last phi first, each as it stands when its turn
   comes. Returns true when anything changed. *)
let remove_trivial_phis ?(replaced = no_hook) (fn : fn) : bool =
  let changed = ref false in
  let progress = ref true in
  let visit v =
    if Ir.Fn.instr_live fn v then
      match Ir.Fn.kind fn v with
      | Phi { inputs; _ } ->
          let w = sole_input ~self:v (-1) inputs in
          if w >= 0 then begin
            replaced ~old_v:v ~new_v:w;
            Ir.Fn.replace_uses fn ~old_v:v ~new_v:w;
            Ir.Fn.delete_instr fn v;
            progress := true;
            changed := true
          end
      | _ -> ()
  in
  (* a block's phis, last first *)
  let rec phis_backwards = function
    | v :: rest when Ir.Instr.is_phi (Ir.Fn.kind fn v) ->
        phis_backwards rest;
        visit v
    | _ -> ()
  in
  while !progress do
    progress := false;
    for b = Support.Vec.length fn.blocks - 1 downto 0 do
      if Ir.Fn.block_live fn b then phis_backwards (Ir.Fn.block fn b).instrs
    done
  done;
  !changed

(* Merges a block with its unique successor when that successor has no
   other predecessor. Phis in the successor are trivial in that situation
   and must have been removed first. One sweep collapses each chain into
   its head; the result is the same whichever link of a chain merges
   first. Returns true when anything changed. *)
let merge_blocks ?(replaced = no_hook) (fn : fn) : bool =
  let changed = ref false in
  (* predecessor edges per block, as the graph stood before the first
     merge; absorbing [s] hands its out-edges to its only predecessor, so
     no other block's count changes *)
  let preds = Ir.Fn.preds fn in
  let single_pred s = match preds.(s) with [ _ ] -> true | _ -> false in
  let rec absorb (b : bid) =
    match Ir.Fn.term fn b with
    | Goto s when s <> fn.entry && s <> b && single_pred s ->
        (* any phi here must be single-input; resolve it *)
        List.iter
          (fun v ->
            match Ir.Fn.kind fn v with
            | Phi { inputs = [ (_, pv) ]; _ } ->
                replaced ~old_v:v ~new_v:pv;
                Ir.Fn.replace_uses fn ~old_v:v ~new_v:pv;
                Ir.Fn.delete_instr fn v
            | Phi _ -> invalid_arg "Simplify.merge_blocks: non-trivial phi in merge target"
            | _ -> ())
          (Ir.Fn.block fn s).instrs;
        Ir.Fn.merge_blocks fn ~pred:b ~succ:s;
        changed := true;
        absorb b
    | _ -> ()
  in
  (* highest id first: in a cycle of single-predecessor blocks, which only
     an unreachable region can form, the highest id survives *)
  for b = Support.Vec.length fn.blocks - 1 downto 0 do
    if Ir.Fn.block_live fn b then absorb b
  done;
  !changed

let cleanup ?pruned ?replaced (fn : fn) : bool =
  let a = remove_unreachable ?pruned fn in
  let b = remove_trivial_phis ?replaced fn in
  let c = merge_blocks ?replaced fn in
  a || b || c
