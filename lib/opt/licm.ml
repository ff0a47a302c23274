(* Loop-invariant code motion.

   Hoists pure computations whose operands are defined outside a natural
   loop (or are themselves invariant) into a preheader block, so hot loop
   bodies — the place the inliner deliberately grows — shrink back. The
   flagship case in this substrate is the `i < arr.length` bound of every
   collection loop: array lengths are immutable, so the ArrayLen hoists.

   Safety:
   - only pure, non-phi instructions move; loads/stores/calls never do;
   - ArrayLen additionally requires its array operand to be invariant
     (lengths are immutable, and a dead hoisted length of a null array
     only removes a trap, consistent with DCE's treatment of dead loads);
   - trapping arithmetic (Div/Rem) and trapping intrinsics (Istr_get) are
     excluded: hoisting would execute them on iterations (or zero
     iterations) that never reached them;
   - a fresh preheader is created per processed loop: entry edges are
     redirected to it, and header phis over multiple entry predecessors
     are split into a preheader phi plus a two-source header phi. *)

open Ir.Types

let hoistable (k : instr_kind) : bool =
  match k with
  | Binop ((Div | Rem), _, _) -> false
  | Unop _ | Binop _ | Const _ | TypeTest _ -> true
  | ArrayLen _ -> true
  | Intrinsic ((Istr_len | Istr_eq | Iabs | Imin | Imax), _) -> true
  | _ -> false

(* Creates a preheader for [l]: a new block between the entry predecessors
   and the header. Returns its id, or None when the header has no entry
   predecessors (unreachable loop). *)
let make_preheader (fn : fn) (l : Ir.Loops.loop) : bid option =
  let header_preds = (Ir.Fn.preds fn).(l.header) in
  let entry_preds = List.filter (fun p -> not (Hashtbl.mem l.body p)) header_preds in
  match entry_preds with
  | [] -> None
  | _ ->
      let ph = Ir.Fn.add_block fn in
      Ir.Fn.set_term fn ph (Goto l.header);
      (* redirect entry edges *)
      List.iter
        (fun p ->
          let redirect b = if b = l.header then ph else b in
          Ir.Fn.set_term fn p
            (match Ir.Fn.term fn p with
            | Goto t -> Goto (redirect t)
            | If ({ tb; fb; _ } as r) -> If { r with tb = redirect tb; fb = redirect fb }
            | t -> t))
        entry_preds;
      (* split header phis: entry inputs merge in the preheader *)
      List.iter
        (fun v ->
          match Ir.Fn.kind fn v with
          | Phi { ty; inputs } -> (
              let entry_inputs, latch_inputs =
                List.partition (fun (pb, _) -> List.mem pb entry_preds) inputs
              in
              match entry_inputs with
              | [] -> ()
              | [ (_, only) ] -> Ir.Fn.set_phi_inputs fn v ((ph, only) :: latch_inputs)
              | _ ->
                  let merged = Ir.Fn.prepend fn ph (Phi { ty; inputs = entry_inputs }) in
                  Ir.Fn.set_phi_inputs fn v ((ph, merged) :: latch_inputs))
          | _ -> ())
        (Ir.Fn.block fn l.header).instrs;
      Some ph

(* Hoists invariant instructions of one loop; returns how many moved. *)
let hoist_loop (fn : fn) (l : Ir.Loops.loop) : int =
  let in_loop_def v = Hashtbl.mem l.body (Ir.Fn.block_of fn v) in
  (* fixpoint: invariant = hoistable and all operands defined outside or
     invariant *)
  let invariant : (vid, unit) Hashtbl.t = Hashtbl.create 8 in
  let outside_or_invariant o = (not (in_loop_def o)) || Hashtbl.mem invariant o in
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun b () ->
        List.iter
          (fun v ->
            if not (Hashtbl.mem invariant v) then
              let k = Ir.Fn.kind fn v in
              if hoistable k && Ir.Instr.for_all_operands outside_or_invariant k then begin
                Hashtbl.replace invariant v ();
                changed := true
              end)
          (Ir.Fn.block fn b).instrs)
      l.body
  done;
  if Hashtbl.length invariant = 0 then 0
  else
    match make_preheader fn l with
    | None -> 0
    | Some ph ->
        (* move in an order where operands precede users: repeatedly take
           instructions whose invariant operands have already moved *)
        let moved : (vid, unit) Hashtbl.t = Hashtbl.create 8 in
        let ready o = (not (Hashtbl.mem invariant o)) || Hashtbl.mem moved o in
        let progress = ref true in
        while !progress do
          progress := false;
          Hashtbl.iter
            (fun b () ->
              List.iter
                (fun v ->
                  if Hashtbl.mem invariant v && not (Hashtbl.mem moved v) then
                    let k = Ir.Fn.kind fn v in
                    if Ir.Instr.for_all_operands ready k then begin
                      Ir.Fn.unplace fn v;
                      Ir.Fn.place fn ph [ v ];
                      Hashtbl.replace moved v ();
                      progress := true
                    end)
                (Ir.Fn.block fn b).instrs)
            l.body
        done;
        Hashtbl.length moved

let run (fn : fn) : int =
  (* a loop that hoisted anything got a preheader, which changes the CFG:
     only then is the loop set recomputed *)
  let total = ref 0 in
  let continue_ = ref true in
  let processed : (bid, unit) Hashtbl.t = Hashtbl.create 8 in
  let loops = ref (Ir.Loops.compute fn).loops in
  while !continue_ do
    match
      List.find_opt (fun (l : Ir.Loops.loop) -> not (Hashtbl.mem processed l.header)) !loops
    with
    | None -> continue_ := false
    | Some l ->
        Hashtbl.replace processed l.header ();
        let hoisted = hoist_loop fn l in
        if hoisted > 0 then begin
          total := !total + hoisted;
          loops := (Ir.Loops.compute fn).loops
        end
  done;
  !total
