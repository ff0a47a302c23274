(* First-iteration loop peeling.

   The paper (Section IV, "Other optimizations"): "we also apply peeling on
   a loop's first iteration if we detect that the loop contains a ϕ-node
   (i.e. a variable) whose type is more specific in that first iteration."
   After peeling, the first iteration sees the precise entry type, so
   canonicalization can devirtualize / fold type tests inside it.

   To avoid general SSA reconstruction we only peel loops with a single
   exit block whose predecessors all lie inside the loop — the shape every
   structured Sel `while` produces. The body is copied; entry edges are
   redirected into the copy; the copy's back edges continue into the
   original header; loop-defined values used after the loop get a merging
   phi in the exit block. *)

open Ir.Types

type loop_info = {
  header : bid;
  body : (bid, unit) Hashtbl.t;
  exit_block : bid;      (* unique successor outside the loop *)
  exit_preds : bid list; (* in-loop predecessors of [exit_block] *)
}

let eligible_loops (fn : fn) : loop_info list =
  let preds = Ir.Fn.preds fn in
  let loops = (Ir.Loops.compute fn).loops in
  List.filter_map
    (fun (l : Ir.Loops.loop) ->
      let exits = ref [] in
      Hashtbl.iter
        (fun b () ->
          List.iter
            (fun s -> if not (Hashtbl.mem l.body s) then exits := (b, s) :: !exits)
            (Ir.Fn.succs fn b))
        l.body;
      match List.sort_uniq compare (List.map snd !exits) with
      | [ exit_block ]
        when List.for_all
               (fun p -> Hashtbl.mem l.body p)
               (try Hashtbl.find preds exit_block with Not_found -> []) ->
          Some
            {
              header = l.header;
              body = l.body;
              exit_block;
              exit_preds = List.sort_uniq compare (List.map fst !exits);
            }
      | _ -> None)
    loops

(* Profitability per the paper: some header phi's entry-edge value type is
   strictly more precise than the phi's merged type. [env] holds the type
   facts of [fn] as it stands. *)
let worth_peeling (prog : program) (env : Tyinfer.env) (fn : fn) (l : loop_info) : bool =
  let hdr = Ir.Fn.block fn l.header in
  List.exists
    (fun v ->
      match Ir.Fn.kind fn v with
      | Phi { inputs; _ } ->
          let entry_inputs =
            List.filter (fun (pb, _) -> not (Hashtbl.mem l.body pb)) inputs
          in
          let entry_vt =
            List.fold_left
              (fun acc (_, pv) -> Tyinfer.join prog acc (Tyinfer.value_type env pv))
              Tyinfer.Vt_bot entry_inputs
          in
          entry_inputs <> [] && Tyinfer.lt prog entry_vt (Tyinfer.value_type env v)
      | _ -> false)
    hdr.instrs

let peel (fn : fn) (l : loop_info) : unit =
  let in_body b = Hashtbl.mem l.body b in
  let doms = Ir.Dominators.compute fn in
  let preds0 = Ir.Fn.preds fn in
  let entry_preds =
    (try Hashtbl.find preds0 l.header with Not_found -> [])
    |> List.filter (fun p -> not (in_body p))
  in
  let latches =
    (try Hashtbl.find preds0 l.header with Not_found -> []) |> List.filter in_body
  in
  (* ---- pass 1: allocate copies ---- *)
  let bmap : (bid, bid) Hashtbl.t = Hashtbl.create 8 in
  let copies : (bid, unit) Hashtbl.t = Hashtbl.create 8 in
  let vmap : (vid, vid) Hashtbl.t = Hashtbl.create 32 in
  Hashtbl.iter
    (fun b () ->
      let nb = Ir.Fn.add_block fn in
      Hashtbl.replace bmap b nb;
      Hashtbl.replace copies nb ())
    l.body;
  let mb b = match Hashtbl.find_opt bmap b with Some b' -> b' | None -> b in
  Hashtbl.iter
    (fun b () ->
      List.iter
        (fun v -> Hashtbl.replace vmap v (Ir.Fn.fresh_instr fn (Ir.Fn.kind fn v)).id)
        (Ir.Fn.block fn b).instrs)
    l.body;
  (* ---- pass 1b: collapse single-entry header phis in the copy BEFORE any
     kind is remapped, so every later [mv] sees the final mapping ---- *)
  let collapsed : (vid, unit) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun v ->
      match Ir.Fn.kind fn v with
      | Phi { inputs; _ } -> (
          let entry_inputs = List.filter (fun (pb, _) -> not (in_body pb)) inputs in
          match entry_inputs with
          | [ (_, only) ] ->
              Ir.Fn.delete_instr fn (Hashtbl.find vmap v);
              Hashtbl.replace vmap v only;
              Hashtbl.replace collapsed v ()
          | _ -> ())
      | _ -> ())
    (Ir.Fn.block fn l.header).instrs;
  let mv v = match Hashtbl.find_opt vmap v with Some v' -> v' | None -> v in
  (* ---- pass 2: fill copied kinds and terminators ---- *)
  Hashtbl.iter
    (fun b () ->
      let blk = Ir.Fn.block fn b in
      let nb = Ir.Fn.block fn (mb b) in
      nb.instrs <-
        List.filter_map
          (fun v ->
            if Hashtbl.mem collapsed v then None
            else begin
              let k = Ir.Fn.kind fn v in
              let nk =
                match k with
                | Phi { ty; inputs } when b = l.header ->
                    Phi
                      {
                        ty;
                        inputs =
                          List.filter_map
                            (fun (pb, pv) ->
                              if in_body pb then None else Some (pb, mv pv))
                            inputs;
                      }
                | Phi { ty; inputs } ->
                    Phi { ty; inputs = List.map (fun (pb, pv) -> (mb pb, mv pv)) inputs }
                | k -> Ir.Instr.map_operands mv k
              in
              (Ir.Fn.instr fn (mv v)).kind <- nk;
              Some (mv v)
            end)
          blk.instrs;
      (* a copied edge back to the header continues into the ORIGINAL loop *)
      nb.term <-
        (match blk.term with
        | Goto t -> Goto (if t = l.header then l.header else mb t)
        | If ({ tb; fb; cond; _ } as r) ->
            If
              {
                r with
                cond = mv cond;
                tb = (if tb = l.header then l.header else mb tb);
                fb = (if fb = l.header then l.header else mb fb);
              }
        | Return v -> Return (mv v)
        | Unreachable -> Unreachable))
    l.body;
  (* ---- original header phis: entry inputs are replaced by the values the
     peeled iteration produces along the copied back edges ---- *)
  List.iter
    (fun v ->
      match Ir.Fn.kind fn v with
      | Phi p ->
          let latch_inputs = List.filter (fun (pb, _) -> List.mem pb latches) p.inputs in
          let copied = List.map (fun (pb, pv) -> (mb pb, mv pv)) latch_inputs in
          p.inputs <- latch_inputs @ copied
      | _ -> ())
    (Ir.Fn.block fn l.header).instrs;
  (* ---- redirect entry edges into the copy ---- *)
  List.iter
    (fun p ->
      let blk = Ir.Fn.block fn p in
      blk.term <-
        (match blk.term with
        | Goto t -> Goto (if t = l.header then mb l.header else t)
        | If ({ tb; fb; _ } as r) ->
            If
              {
                r with
                tb = (if tb = l.header then mb l.header else tb);
                fb = (if fb = l.header then mb l.header else fb);
              }
        | t -> t))
    entry_preds;
  (* ---- exit block ---- *)
  let exit_blk = Ir.Fn.block fn l.exit_block in
  (* existing exit phis: the copied predecessors contribute copied values *)
  List.iter
    (fun v ->
      match Ir.Fn.kind fn v with
      | Phi p ->
          let extra =
            List.filter_map
              (fun (pb, pv) -> if in_body pb then Some (mb pb, mv pv) else None)
              p.inputs
          in
          p.inputs <- p.inputs @ extra
      | _ -> ())
    exit_blk.instrs;
  (* loop-defined values used after the loop: merge the two copies with a
     phi. Such a value must dominate every exit predecessor (otherwise it
     could not dominate any post-loop use). *)
  let is_copy b = Hashtbl.mem copies b in
  let outside_users (v : vid) : bool =
    let found = ref false in
    Ir.Fn.iter_blocks
      (fun blk ->
        if (not (in_body blk.b_id)) && not (is_copy blk.b_id) then begin
          List.iter
            (fun u ->
              match Ir.Fn.kind fn u with
              | Phi { inputs; _ } ->
                  if
                    List.exists
                      (fun (pb, pv) -> pv = v && (not (in_body pb)) && not (is_copy pb))
                      inputs
                  then found := true
              | k -> if List.mem v (Ir.Instr.operands k) then found := true)
            blk.instrs;
          match blk.term with
          | If { cond; _ } when cond = v -> found := true
          | Return rv when rv = v -> found := true
          | _ -> ()
        end)
      fn;
    !found
  in
  let candidates = ref [] in
  Hashtbl.iter
    (fun b () ->
      if List.for_all (fun p -> Ir.Dominators.dominates doms ~a:b ~b:p) l.exit_preds then
        List.iter
          (fun v -> if outside_users v then candidates := v :: !candidates)
          (Ir.Fn.block fn b).instrs)
    l.body;
  List.iter
    (fun v ->
      let ty = Ir.Fn.result_ty fn (Ir.Fn.kind fn v) in
      let inputs =
        List.concat_map (fun p -> [ (p, v); (mb p, mv v) ]) l.exit_preds
      in
      let phi = Ir.Fn.prepend fn l.exit_block (Phi { ty; inputs }) in
      Ir.Fn.iter_blocks
        (fun blk ->
          if (not (in_body blk.b_id)) && not (is_copy blk.b_id) then begin
            List.iter
              (fun u ->
                if u <> phi then
                  let i = Ir.Fn.instr fn u in
                  match i.kind with
                  | Phi p ->
                      p.inputs <-
                        List.map
                          (fun (pb, pv) ->
                            if pv = v && (not (in_body pb)) && not (is_copy pb) then
                              (pb, phi)
                            else (pb, pv))
                          p.inputs
                  | k ->
                      i.kind <- Ir.Instr.map_operands (fun x -> if x = v then phi else x) k)
              blk.instrs;
            match blk.term with
            | If ({ cond; _ } as r) when cond = v -> blk.term <- If { r with cond = phi }
            | Return rv when rv = v -> blk.term <- Return phi
            | _ -> ()
          end)
        fn)
    !candidates

(* Peels every profitable loop once; returns how many loops were peeled.
   One type inference serves every profitability check until a loop is
   actually peeled. *)
let run (prog : program) (fn : fn) : int =
  let peeled = ref 0 in
  let env = ref None in
  let types () =
    match !env with
    | Some e -> e
    | None ->
        let e = Tyinfer.infer prog fn in
        env := Some e;
        e
  in
  let ls = eligible_loops fn in
  List.iter
    (fun l ->
      if Ir.Fn.block_live fn l.header && worth_peeling prog (types ()) fn l then begin
        peel fn l;
        env := None;
        incr peeled
      end)
    ls;
  if !peeled > 0 then ignore (Simplify.cleanup fn);
  !peeled
