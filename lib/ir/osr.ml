(* Loop extraction for on-stack replacement.

   [extract_loop fn ~header] outlines the continuation of [fn] at a loop
   header into a standalone function: every block reachable from [header]
   (the loop body, its exits and everything after them) is kept, and a new
   entry block binds the frame state the continuation needs as parameters.
   Running the extracted function with those parameters is equivalent to
   resuming the original activation at the header — it executes the
   remaining iterations *and* the post-loop tail, returning the original
   function's result, so an OSR transfer is one-way: the caller returns
   whatever the extracted method returns.

   Frame mapping: the parameters come in two runs.
   - One per *live-in*: a value used in the region whose slot is already
     populated when a frame sits at the header. Two shapes qualify. A
     definition *outside* the region dominates every region use through
     the header (SSA dominance), so the slot holds the value — the
     transfer just reads it out. A definition *inside* the region that
     dominates the header in the source function (state of an enclosing
     loop, when [header] is an inner header: the region walk wraps around
     the enclosing backedge and captures the outer header) is also
     populated — but entering at [header] skips it, so its uses need
     repair: the extracted body gains a fresh phi at the header that
     merges the parameter (entry edge) with the region definition (edges
     the definition dominates in the extracted body) and itself (edges it
     does not — inner backedges), and uses no longer dominated by the
     definition are rerouted to that phi. The phi is the only merge point
     iff every path that re-executes the definition re-crosses the header
     before the next rerouted read — true for the structured flow the
     lowerer emits, but not necessarily after inlining has reshaped the
     CFG. The repair therefore *checks* it: if any rerouted reader is
     reachable from the definition without passing the header, the value
     would be stale there and extraction refuses ([Not_extractable])
     instead of producing wrong code.
   - One per *header phi*: the loop-carried values. At a backedge the
     interpreter has just evaluated the header's phis, so their slots hold
     the current iteration's values; they seed the extracted phis through
     the new entry edge.

   [x_live_ins] and [x_phis] record the original function's vids in
   parameter order ([Fn.copy] preserves ids, so they are also valid in the
   extracted body). The arrays are the explicit frame-mapping metadata: a
   backend transfers a frame by reading exactly those slots, in order. *)

open Types

type extraction = {
  x_fn : fn;
  x_live_ins : vid array;
  x_phis : vid array;
}

exception Not_extractable of string

let extract_loop (fn0 : fn) ~(header : bid) : extraction =
  if not (Fn.block_live fn0 header) then
    raise (Not_extractable (Printf.sprintf "block b%d is dead" header));
  let f = Fn.copy fn0 in
  (* The region: every block reachable from the header. *)
  let region : (bid, unit) Hashtbl.t = Hashtbl.create 16 in
  let rec walk b =
    if not (Hashtbl.mem region b) then begin
      Hashtbl.replace region b ();
      List.iter walk (Fn.succs f b)
    end
  in
  walk header;
  let in_region b = Hashtbl.mem region b in
  (* A [Param] instruction inside the region would re-read the argument
     array — but the extracted method's arguments are the live-ins/phis,
     not the source function's. Refuse rather than remap: headers
     reachable from a parameter read are vanishingly rare (the entry
     block would have to sit inside the loop). *)
  Fn.iter_blocks
    (fun b ->
      if in_region b.b_id then
        List.iter
          (fun v ->
            match Fn.kind f v with
            | Param _ ->
                raise
                  (Not_extractable
                     (Printf.sprintf "parameter read v%d inside the region" v))
            | _ -> ())
          b.instrs)
    f;
  (* Values defined inside the region, with their defining block. *)
  let region_defs : (vid, bid) Hashtbl.t = Hashtbl.create 64 in
  Fn.iter_blocks
    (fun b ->
      if in_region b.b_id then
        List.iter (fun v -> Hashtbl.replace region_defs v b.b_id) b.instrs)
    f;
  (* Source-function dominators, while [f] is still an exact copy. *)
  let dom0 = Dominators.compute f in
  (* Header phis, in block order: the loop-carried state. *)
  let header_phis =
    List.filter (fun v -> Instr.is_phi (Fn.kind f v)) (Fn.block f header).instrs
  in
  let is_header_phi = Hashtbl.create 8 in
  List.iter (fun v -> Hashtbl.replace is_header_phi v ()) header_phis;
  (* Live-ins: used in the region (instruction operands along region edges,
     If conditions, Return values) and populated at the header — defined
     outside the region, or inside it at a block that dominates the header
     in the source function ("pinned": enclosing-loop state whose uses are
     repaired below). Header-phi references are loop-carried state, not
     live-ins. *)
  let live_in : (vid, unit) Hashtbl.t = Hashtbl.create 16 in
  let pinned : (vid, bid) Hashtbl.t = Hashtbl.create 8 in
  let note v =
    if not (Hashtbl.mem is_header_phi v) then
      match Hashtbl.find_opt region_defs v with
      | None -> Hashtbl.replace live_in v ()
      | Some d ->
          if d <> header && Dominators.dominates dom0 ~a:d ~b:header then begin
            Hashtbl.replace live_in v ();
            Hashtbl.replace pinned v d
          end
  in
  Fn.iter_blocks
    (fun b ->
      if in_region b.b_id then begin
        List.iter
          (fun v ->
            match Fn.kind f v with
            | Phi { inputs; _ } ->
                (* only inputs along edges that survive extraction *)
                List.iter (fun (p, src) -> if in_region p then note src) inputs
            | k -> List.iter note (Instr.operands k))
          b.instrs;
        match b.term with
        | If { cond; _ } -> note cond
        | Return v -> note v
        | Goto _ | Unreachable -> ()
      end)
    f;
  let live_ins = List.sort compare (Hashtbl.fold (fun v () a -> v :: a) live_in []) in
  (* Record parameter types before any definition is deleted. *)
  let ty_of v = Fn.result_ty f (Fn.kind f v) in
  let param_tys =
    Array.of_list (List.map ty_of live_ins @ List.map ty_of header_phis)
  in
  (* New entry: one Param per live-in, one per header phi, then jump to the
     header. *)
  let e = Fn.add_block f in
  let live_params = List.mapi (fun k v -> (v, Fn.append f e (Param k))) live_ins in
  let n = List.length live_ins in
  let phi_params =
    List.mapi (fun j v -> (v, Fn.append f e (Param (n + j)))) header_phis
  in
  Fn.set_term f e (Goto header);
  f.entry <- e;
  (* Route every ordinary live-in use through its parameter. This also
     rewrites uses in blocks about to be deleted and phi inputs about to
     be filtered; both are harmless. Pinned live-ins keep their uses for
     now — the repair below reroutes only the uses their definition no
     longer dominates. *)
  List.iter
    (fun (v, p) ->
      if not (Hashtbl.mem pinned v) then Fn.replace_uses f ~old_v:v ~new_v:p)
    live_params;
  (* Patch phis: drop inputs along edges from outside the region (those
     edges no longer exist); header phis additionally gain the entry edge
     carrying their parameter. *)
  Fn.iter_blocks
    (fun b ->
      if in_region b.b_id then
        List.iter
          (fun v ->
            match Fn.kind f v with
            | Phi { inputs; _ } ->
                let kept = List.filter (fun (p, _) -> in_region p) inputs in
                let kept =
                  match List.assoc_opt v phi_params with
                  | Some p -> (e, p) :: kept
                  | None -> kept
                in
                Fn.set_phi_inputs f v kept
            | _ -> ())
          b.instrs)
    f;
  (* Repair pinned live-ins. Entering at the header skips their in-region
     definition, so a fresh phi at the header merges the parameter (entry
     edge), the definition (edges it still dominates — the path around the
     enclosing loop), and itself (edges it does not — inner backedges);
     uses the definition no longer dominates read the phi instead. *)
  if Hashtbl.length pinned > 0 then begin
    let domx = Dominators.compute f in
    let header_preds = List.filter (fun p -> p = e || in_region p) (Fn.preds f).(header) in
    List.iter
      (fun (v, pv) ->
        match Hashtbl.find_opt pinned v with
        | None -> ()
        | Some d ->
            let dominated b = Dominators.dominates domx ~a:d ~b in
            (* Safety: a reader rerouted to the merge phi sees the value
               as of the last header crossing. If such a reader can be
               reached from [d] without crossing the header, [d] may
               have re-executed since, making that value stale. *)
            let tainted = Hashtbl.create 16 in
            let rec taint b =
              if b <> header && not (Hashtbl.mem tainted b) then begin
                Hashtbl.replace tainted b ();
                List.iter taint (Fn.succs f b)
              end
            in
            List.iter taint (Fn.succs f d);
            let refuse u =
              raise
                (Not_extractable
                   (Printf.sprintf
                      "pinned live-in v%d reaches its reader in b%d around \
                       the header" v u))
            in
            let check_edge p = if p <> e && not (dominated p) && Hashtbl.mem tainted p then refuse p in
            List.iter check_edge header_preds;
            Fn.iter_blocks
              (fun b ->
                if in_region b.b_id then begin
                  List.iter
                    (fun u ->
                      match Fn.kind f u with
                      | Phi { inputs; _ } ->
                          List.iter
                            (fun (p, src) -> if src = v then check_edge p)
                            inputs
                      | k ->
                          if
                            (not (dominated b.b_id))
                            && Hashtbl.mem tainted b.b_id
                            && List.mem v (Instr.operands k)
                          then refuse b.b_id)
                    b.instrs;
                  if (not (dominated b.b_id)) && Hashtbl.mem tainted b.b_id
                  then
                    match b.term with
                    | If { cond; _ } when cond = v -> refuse b.b_id
                    | Return rv when rv = v -> refuse b.b_id
                    | Goto _ | Unreachable | If _ | Return _ -> ()
                end)
              f;
            let vphi = Fn.prepend f header (Phi { ty = ty_of v; inputs = [] }) in
            Fn.set_phi_inputs f vphi
              (List.map
                 (fun p ->
                   if p = e then (p, pv) else if dominated p then (p, v) else (p, vphi))
                 header_preds);
            Fn.iter_blocks
              (fun b ->
                if in_region b.b_id then begin
                  List.iter
                    (fun u ->
                      if u <> vphi then
                        match Fn.kind f u with
                        | Phi { inputs; _ } ->
                            Fn.set_phi_inputs f u
                              (List.map
                                 (fun (p, src) ->
                                   if src = v && p <> e && not (dominated p)
                                   then (p, vphi)
                                   else (p, src))
                                 inputs)
                        | k ->
                            if not (dominated b.b_id) then
                              Fn.set_kind f u
                                (Instr.map_operands
                                   (fun s -> if s = v then vphi else s)
                                   k))
                    b.instrs;
                  if not (dominated b.b_id) then
                    match b.term with
                    | If ({ cond; _ } as r) when cond = v ->
                        Fn.set_term f b.b_id (If { r with cond = vphi })
                    | Return rv when rv = v -> Fn.set_term f b.b_id (Return vphi)
                    | Goto _ | Unreachable | If _ | Return _ -> ()
                end)
              f)
      live_params
  end;
  (* Drop everything outside the region (the new entry stays). *)
  let dead =
    Fn.fold_blocks
      (fun acc b ->
        if in_region b.b_id || b.b_id = e then acc else b.b_id :: acc)
      [] f
  in
  List.iter (Fn.delete_block f) dead;
  f.param_tys <- param_tys;
  f.spec_tys <- Array.copy param_tys;
  {
    x_fn = f;
    x_live_ins = Array.of_list live_ins;
    x_phis = Array.of_list header_phis;
  }
