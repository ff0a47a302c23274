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
            | Phi { inputs; _ } ->
                let keep = List.filter (fun (pb, _) -> reachable pb) inputs in
                if List.length keep <> List.length inputs then begin
                  Ir.Fn.set_phi_inputs fn v keep;
                  pruned v;
                  changed := true
                end
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

(* Replaces phis whose inputs are all the same value (ignoring self) with
   that value. Returns true when anything changed. *)
let remove_trivial_phis ?(replaced = no_hook) (fn : fn) : bool =
  let changed = ref false in
  let progress = ref true in
  while !progress do
    progress := false;
    let phis = ref [] in
    Ir.Fn.iter_instrs
      (fun i -> match i.kind with Phi _ -> phis := i :: !phis | _ -> ())
      fn;
    List.iter
      (fun (i : instr) ->
        if Ir.Fn.instr_live fn i.id then
          match i.kind with
          | Phi { inputs; _ } -> (
              let ops =
                List.map snd inputs
                |> List.filter (fun v -> v <> i.id)
                |> List.sort_uniq compare
              in
              match ops with
              | [ v ] ->
                  replaced ~old_v:i.id ~new_v:v;
                  Ir.Fn.replace_uses fn ~old_v:i.id ~new_v:v;
                  Ir.Fn.delete_instr fn i.id;
                  progress := true;
                  changed := true
              | _ -> ())
          | _ -> ())
      !phis
  done;
  !changed

(* Merges a block with its unique successor when that successor has no
   other predecessor. Phis in the successor are trivial in that situation
   and must have been removed first. One sweep collapses each chain into
   its head; the result is the same whichever link of a chain merges
   first. Returns true when anything changed. *)
let merge_blocks ?(replaced = no_hook) (fn : fn) : bool =
  let changed = ref false in
  (* predecessor edges per block; absorbing [s] hands its out-edges to
     its only predecessor, so no other block's count changes *)
  let npreds = Array.make (Support.Vec.length fn.blocks) 0 in
  Ir.Fn.iter_blocks
    (fun blk -> List.iter (fun s -> npreds.(s) <- npreds.(s) + 1) (Ir.Fn.succs_of_term blk.term))
    fn;
  let rec absorb (b : bid) =
    match Ir.Fn.term fn b with
    | Goto s when s <> fn.entry && s <> b && npreds.(s) = 1 ->
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
