(* CFG cleanup: unreachable-block removal, phi pruning and trivial-phi
   elimination, and straight-line block merging. Runs after passes that
   rewrite terminators (branch pruning, inlining) to restore a minimal
   CFG, which keeps the paper's |ir| size metric honest. *)

open Ir.Types

(* Removes blocks unreachable from the entry, pruning the phi inputs of the
   survivors. Returns true when anything changed. *)
let remove_unreachable (fn : fn) : bool =
  let reachable = Ir.Fn.reachable fn in
  let changed = ref false in
  (* prune phi edges coming from dead predecessors *)
  Ir.Fn.iter_blocks
    (fun blk ->
      if Hashtbl.mem reachable blk.b_id then
        List.iter
          (fun v ->
            match Ir.Fn.kind fn v with
            | Phi p ->
                let keep = List.filter (fun (pb, _) -> Hashtbl.mem reachable pb) p.inputs in
                if List.length keep <> List.length p.inputs then begin
                  p.inputs <- keep;
                  changed := true
                end
            | _ -> ())
          blk.instrs)
    fn;
  let dead = ref [] in
  Ir.Fn.iter_blocks
    (fun blk -> if not (Hashtbl.mem reachable blk.b_id) then dead := blk.b_id :: !dead)
    fn;
  List.iter
    (fun b ->
      Ir.Fn.delete_block fn b;
      changed := true)
    !dead;
  !changed

(* Replaces phis whose inputs are all the same value (ignoring self) with
   that value. Returns true when anything changed. *)
let remove_trivial_phis (fn : fn) : bool =
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
   its head, keeping the predecessor map current as blocks merge; the
   result is the same whichever link of a chain merges first. Returns true
   when anything changed. *)
let merge_blocks (fn : fn) : bool =
  let changed = ref false in
  let preds = Ir.Fn.preds fn in
  let rec absorb (b : bid) =
    let blk = Ir.Fn.block fn b in
    match blk.term with
    | Goto s when s <> fn.entry && s <> b && Hashtbl.find_opt preds s = Some [ b ] ->
        let sblk = Ir.Fn.block fn s in
        (* any phi here must be single-input; resolve it *)
        List.iter
          (fun v ->
            match Ir.Fn.kind fn v with
            | Phi { inputs = [ (_, pv) ]; _ } ->
                Ir.Fn.replace_uses fn ~old_v:v ~new_v:pv;
                Ir.Fn.delete_instr fn v
            | Phi _ -> invalid_arg "Simplify.merge_blocks: non-trivial phi in merge target"
            | _ -> ())
          sblk.instrs;
        blk.instrs <- blk.instrs @ sblk.instrs;
        blk.term <- sblk.term;
        (* successors' phis and predecessor lists must now name [b] *)
        let rename pb = if pb = s then b else pb in
        List.iter
          (fun succ ->
            Hashtbl.replace preds succ (List.map rename (Hashtbl.find preds succ));
            List.iter
              (fun v ->
                match Ir.Fn.kind fn v with
                | Phi p -> p.inputs <- List.map (fun (pb, pv) -> (rename pb, pv)) p.inputs
                | _ -> ())
              (Ir.Fn.block fn succ).instrs)
          (Ir.Fn.succs_of_term sblk.term);
        sblk.instrs <- [];
        Ir.Fn.delete_block fn s;
        Hashtbl.remove preds s;
        changed := true;
        absorb b
    | _ -> ()
  in
  (* highest id first: in a cycle of single-predecessor blocks, which only
     an unreachable region can form, the highest id survives *)
  List.iter (fun b -> if Ir.Fn.block_live fn b then absorb b) (List.rev (Ir.Fn.block_ids fn));
  !changed

let cleanup (fn : fn) : bool =
  let a = remove_unreachable fn in
  let b = remove_trivial_phis fn in
  let c = merge_blocks fn in
  a || b || c
