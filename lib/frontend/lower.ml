(* Lowering from the typed AST to SSA IR, using Braun et al.'s on-the-fly
   SSA construction (CC 2013): mutable locals are numbered slots; reads
   resolve through per-block definition tables; phis are created on demand
   in join blocks, incomplete phis are completed when a block is sealed
   (i.e., when all its predecessors are known), and trivial phis are
   removed as they are discovered.

   Every Call and If receives a site key (method id, ordinal) here, exactly
   once per source-level callsite/branch; all later copies of the IR keep
   the keys, which is what lets profiles survive inlining. *)

open Ir.Types
open Tast

type state = {
  fn : fn;
  mid : meth_id;
  mutable site_counter : int;
  mutable cur : bid;                       (* block under construction *)
  defs : (int * bid, vid) Hashtbl.t;       (* (slot, block) -> value *)
  sealed : (bid, unit) Hashtbl.t;
  incomplete : (bid, (int * vid) list ref) Hashtbl.t;
  preds : (bid, bid list ref) Hashtbl.t;   (* maintained as edges are added *)
  slot_ty : (int, ty) Hashtbl.t;
  mutable next_slot : int;
}

let next_site st =
  let s = { sm = st.mid; sidx = st.site_counter } in
  st.site_counter <- st.site_counter + 1;
  s

let fresh_slot st ty =
  let s = st.next_slot in
  st.next_slot <- s + 1;
  Hashtbl.replace st.slot_ty s ty;
  s

let preds_of st b = match Hashtbl.find_opt st.preds b with Some r -> !r | None -> []

let link st ~pred ~succ =
  let r =
    match Hashtbl.find_opt st.preds succ with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.replace st.preds succ r;
        r
  in
  r := !r @ [ pred ]

let new_block st = Ir.Fn.add_block st.fn

let emit st k = Ir.Fn.append st.fn st.cur k

let terminate st (t : terminator) =
  Ir.Fn.set_term st.fn st.cur t;
  List.iter (fun s -> link st ~pred:st.cur ~succ:s) (Ir.Fn.succs_of_term t)

(* ---- Braun construction ---- *)

let write_var st slot v = Hashtbl.replace st.defs (slot, st.cur) v

let write_var_in st slot b v = Hashtbl.replace st.defs (slot, b) v

let rec read_var_in st slot b : vid =
  match Hashtbl.find_opt st.defs (slot, b) with
  | Some v -> v
  | None -> read_var_recursive st slot b

and read_var_recursive st slot b : vid =
  let ty =
    match Hashtbl.find_opt st.slot_ty slot with
    | Some t -> t
    | None -> invalid_arg (Printf.sprintf "Lower: read of undeclared slot %d" slot)
  in
  if not (Hashtbl.mem st.sealed b) then begin
    (* incomplete phi: operands filled at seal time *)
    let phi = Ir.Fn.prepend st.fn b (Phi { ty; inputs = [] }) in
    let r =
      match Hashtbl.find_opt st.incomplete b with
      | Some r -> r
      | None ->
          let r = ref [] in
          Hashtbl.replace st.incomplete b r;
          r
    in
    r := (slot, phi) :: !r;
    write_var_in st slot b phi;
    phi
  end
  else
    match preds_of st b with
    | [ p ] ->
        let v = read_var_in st slot p in
        write_var_in st slot b v;
        v
    | ps ->
        let phi = Ir.Fn.prepend st.fn b (Phi { ty; inputs = [] }) in
        write_var_in st slot b phi;
        add_phi_operands st slot phi ps

and add_phi_operands st slot phi ps : vid =
  let inputs = List.map (fun p -> (p, read_var_in st slot p)) ps in
  Ir.Fn.set_phi_inputs st.fn phi inputs;
  try_remove_trivial st phi

(* A phi whose operands are all equal (ignoring self-references) is a copy;
   replace it and its uses with the unique operand. *)
and try_remove_trivial st phi : vid =
  match Ir.Fn.kind st.fn phi with
  | Phi { inputs; _ } -> (
      let ops =
        List.map snd inputs |> List.filter (fun v -> v <> phi) |> List.sort_uniq compare
      in
      match ops with
      | [ v ] ->
          Ir.Fn.replace_uses st.fn ~old_v:phi ~new_v:v;
          Hashtbl.iter
            (fun key dv -> if dv = phi then Hashtbl.replace st.defs key v)
            (Hashtbl.copy st.defs);
          Ir.Fn.delete_instr st.fn phi;
          v
      | _ -> phi)
  | _ -> phi

let read_var st slot = read_var_in st slot st.cur

let seal st b =
  if not (Hashtbl.mem st.sealed b) then begin
    Hashtbl.replace st.sealed b ();
    match Hashtbl.find_opt st.incomplete b with
    | None -> ()
    | Some r ->
        List.iter (fun (slot, phi) -> ignore (add_phi_operands st slot phi (preds_of st b))) !r;
        Hashtbl.remove st.incomplete b
  end

(* ---- expression lowering ---- *)

let rec lower_expr st (e : texpr) : vid =
  match e.k with
  | Tconst c -> emit st (Const c)
  | Tlocal slot -> read_var st slot
  | Tgetfield (obj, slot, fname, fty) ->
      let o = lower_expr st obj in
      emit st (GetField { obj = o; slot; fname; fty })
  | Tstatic (m, args) ->
      let args = List.map (lower_expr st) args in
      emit st (Call { callee = Direct m; args; site = next_site st; rty = e.ty })
  | Tvirtual (recv, sel, args, rty) ->
      let r = lower_expr st recv in
      let args = List.map (lower_expr st) args in
      emit st (Call { callee = Virtual sel; args = r :: args; site = next_site st; rty })
  | Tintrinsic (i, args) ->
      let args = List.map (lower_expr st) args in
      emit st (Intrinsic (i, args))
  | Tnew (c, init, args) ->
      let obj = emit st (New c) in
      let args = List.map (lower_expr st) args in
      let _ =
        emit st
          (Call { callee = Direct init; args = obj :: args; site = next_site st; rty = Tunit })
      in
      obj
  | Tnewarr (ety, len) ->
      let l = lower_expr st len in
      emit st (NewArray { ety; len = l })
  | Tif (cond, then_, else_) -> lower_if st e.ty cond then_ else_
  | Twhile (cond, body) -> lower_while st cond body
  | Tblock stmts ->
      let last = ref None in
      List.iter
        (fun s ->
          match s with
          | TSexpr te -> last := Some (lower_expr st te)
          | TSlet (slot, init) ->
              Hashtbl.replace st.slot_ty slot init.ty;
              st.next_slot <- max st.next_slot (slot + 1);
              let v = lower_expr st init in
              write_var st slot v;
              last := None)
        stmts;
      (match !last with Some v -> v | None -> emit st (Const Cunit))
  | Tassignlocal (slot, rhs) ->
      let v = lower_expr st rhs in
      write_var st slot v;
      emit st (Const Cunit)
  | Tassignfield (obj, slot, fname, rhs) ->
      let o = lower_expr st obj in
      let v = lower_expr st rhs in
      ignore (emit st (SetField { obj = o; slot; fname; value = v }));
      emit st (Const Cunit)
  | Tassignindex (arr, idx, rhs) ->
      let a = lower_expr st arr in
      let i = lower_expr st idx in
      let v = lower_expr st rhs in
      ignore (emit st (ArraySet { arr = a; idx = i; value = v }));
      emit st (Const Cunit)
  | Tbinop (op, a, b) ->
      let va = lower_expr st a in
      let vb = lower_expr st b in
      emit st (Binop (op, va, vb))
  | Tunop (op, a) ->
      let va = lower_expr st a in
      emit st (Unop (op, va))
  | Tindex (arr, idx, ety) ->
      let a = lower_expr st arr in
      let i = lower_expr st idx in
      emit st (ArrayGet { arr = a; idx = i; ety })
  | Tarraylen a ->
      let va = lower_expr st a in
      emit st (ArrayLen va)

and lower_if st (ty : ty) cond then_ else_ : vid =
  let cv = lower_expr st cond in
  let bt = new_block st in
  let join = new_block st in
  let has_value = ty <> Tunit && else_ <> None in
  let tmp = if has_value then Some (fresh_slot st ty) else None in
  (match else_ with
  | None ->
      terminate st (If { cond = cv; site = next_site st; tb = bt; fb = join });
      seal st bt;
      st.cur <- bt;
      let _ = lower_expr st then_ in
      terminate st (Goto join);
      seal st join
  | Some else_e ->
      let bf = new_block st in
      terminate st (If { cond = cv; site = next_site st; tb = bt; fb = bf });
      seal st bt;
      seal st bf;
      st.cur <- bt;
      let tv = lower_expr st then_ in
      (match tmp with Some s -> write_var st s tv | None -> ());
      terminate st (Goto join);
      st.cur <- bf;
      let ev = lower_expr st else_e in
      (match tmp with Some s -> write_var st s ev | None -> ());
      terminate st (Goto join);
      seal st join);
  st.cur <- join;
  match tmp with Some s -> read_var st s | None -> emit st (Const Cunit)

and lower_while st cond body : vid =
  let header = new_block st in
  terminate st (Goto header);
  st.cur <- header;
  (* the header is sealed only after the back edge exists *)
  let cv = lower_expr st cond in
  let bbody = new_block st in
  let exit = new_block st in
  terminate st (If { cond = cv; site = next_site st; tb = bbody; fb = exit });
  seal st bbody;
  seal st exit;
  st.cur <- bbody;
  let _ = lower_expr st body in
  terminate st (Goto header);
  seal st header;
  st.cur <- exit;
  emit st (Const Cunit)

(* ---- method lowering ---- *)

let lower_method (prog : program) (tm : tmethod) : unit =
  let m = Ir.Program.meth prog tm.tm_id in
  let fn = Ir.Fn.create ~fname:m.m_name ~param_tys:(Array.copy m.m_param_tys) ~rty:m.m_rty in
  let entry = Ir.Fn.add_block fn in
  fn.entry <- entry;
  let st =
    {
      fn;
      mid = tm.tm_id;
      site_counter = 0;
      cur = entry;
      defs = Hashtbl.create 64;
      sealed = Hashtbl.create 16;
      incomplete = Hashtbl.create 8;
      preds = Hashtbl.create 16;
      slot_ty = Hashtbl.create 16;
      next_slot = tm.nslots;
    }
  in
  Hashtbl.replace st.sealed entry ();
  Array.iteri
    (fun i ty ->
      Hashtbl.replace st.slot_ty i ty;
      let v = emit st (Param i) in
      write_var st i v)
    m.m_param_tys;
  let rv = lower_expr st tm.body in
  let rv = if m.m_rty = Tunit then emit st (Const Cunit) else rv in
  terminate st (Return rv);
  Ir.Program.set_body prog tm.tm_id fn

let lower_program (prog : program) (tms : tmethod list) : unit =
  List.iter (lower_method prog) tms
