(* Flow-insensitive value-type inference on SSA values.

   The lattice refines static types with exactness and non-nullness, which
   is what type-check folding and devirtualization need:

       Vt_top
         |        (object types ordered by the class hierarchy)
       Vt_obj {cls; exact=false; nonnull}
         |
       Vt_obj {cls; exact=true; nonnull}
         |
       Vt_bot (unreached)

   Parameters read [fn.spec_tys], the callsite-refined parameter types that
   deep inlining trials install, so specializing a callee immediately
   sharpens every receiver derived from its parameters. *)

open Ir.Types

type vt =
  | Vt_bot
  | Vt_prim of ty                               (* Tint/Tbool/Tunit/Tstring *)
  | Vt_null
  | Vt_obj of { cls : class_id; exact : bool; nonnull : bool }
  | Vt_arr of ty
  | Vt_top

(* One shared value per primitive lattice point, so typing a primitive
   value allocates nothing. *)
let vt_int = Vt_prim Tint
let vt_bool = Vt_prim Tbool
let vt_unit = Vt_prim Tunit
let vt_string = Vt_prim Tstring

let of_ty (t : ty) : vt =
  match t with
  | Tint -> vt_int
  | Tbool -> vt_bool
  | Tunit -> vt_unit
  | Tstring -> vt_string
  | Tarray e -> Vt_arr e
  | Tobj c when c < 0 -> Vt_null
  | Tobj c -> Vt_obj { cls = c; exact = false; nonnull = false }

let rec lca (prog : program) (a : class_id) (b : class_id) : class_id option =
  if a = b then Some a
  else if Ir.Program.is_subclass prog ~sub:a ~sup:b then Some b
  else if Ir.Program.is_subclass prog ~sub:b ~sup:a then Some a
  else
    match (Ir.Program.cls prog a).parent with
    | Some p -> lca prog p b
    | None -> None

let join (prog : program) (a : vt) (b : vt) : vt =
  match (a, b) with
  | Vt_bot, x | x, Vt_bot -> x
  | Vt_top, _ | _, Vt_top -> Vt_top
  | Vt_prim t1, Vt_prim t2 -> if t1 = t2 then a else Vt_top
  | Vt_null, Vt_null -> Vt_null
  | Vt_null, Vt_obj o | Vt_obj o, Vt_null -> Vt_obj { o with nonnull = false }
  | Vt_null, Vt_arr e | Vt_arr e, Vt_null -> Vt_arr e
  | Vt_arr e1, Vt_arr e2 -> if e1 = e2 then a else Vt_top
  | Vt_obj o1, Vt_obj o2 -> (
      match lca prog o1.cls o2.cls with
      | Some c ->
          Vt_obj
            {
              cls = c;
              exact = o1.exact && o2.exact && o1.cls = o2.cls;
              nonnull = o1.nonnull && o2.nonnull;
            }
      | None -> Vt_top)
  | _ -> Vt_top

(* Dense per-vid table; [Vt_bot] marks a value not (yet) typed. *)
type env = { mutable vts : vt array }

let get (env : env) (v : vid) : vt = if v < Array.length env.vts then env.vts.(v) else Vt_bot

let transfer (prog : program) (fn : fn) (env : env) (i : instr) : vt =
  match i.kind with
  | Const (Cint _) -> vt_int
  | Const (Cbool _) -> vt_bool
  | Const (Cstring _) -> vt_string
  | Const Cunit -> vt_unit
  | Const Cnull -> Vt_null
  | Param k ->
      if k < Array.length fn.spec_tys then of_ty fn.spec_tys.(k) else Vt_top
  | Unop (op, _) -> of_ty (Ir.Instr.unop_ty op)
  | Binop (op, _, _) -> of_ty (Ir.Instr.binop_ty op)
  | Phi { inputs; _ } ->
      List.fold_left (fun acc (_, v) -> join prog acc (get env v)) Vt_bot inputs
  | Call { rty; _ } -> of_ty rty
  | New c -> Vt_obj { cls = c; exact = true; nonnull = true }
  | GetField { fty; _ } -> of_ty fty
  | SetField _ -> vt_unit
  | NewArray { ety; _ } -> Vt_arr ety
  | ArrayGet { ety; _ } -> of_ty ety
  | ArraySet _ -> vt_unit
  | ArrayLen _ -> vt_int
  | TypeTest _ -> vt_bool
  | Intrinsic (f, _) -> of_ty (Ir.Instr.intrinsic_ty f)

(* One sweep types every instruction; a non-phi's type depends only on its
   kind, so after it only phis can still rise, and they are re-joined from
   a worklist fed by the phi users of values whose type rose. The lattice
   has finite height (class hierarchy depth), so this terminates quickly. *)
let infer (prog : program) (fn : fn) : env =
  let env = { vts = Array.make (Support.Vec.length fn.instrs) Vt_bot } in
  let work = Queue.create () in
  let queue_phi u = if Ir.Instr.is_phi (Ir.Fn.kind fn u) then Queue.add u work in
  let raise_to (i : instr) =
    let ov = env.vts.(i.id) in
    let joined = join prog ov (transfer prog fn env i) in
    if joined <> ov then begin
      env.vts.(i.id) <- joined;
      List.iter queue_phi (Ir.Fn.users fn i.id)
    end
  in
  Ir.Fn.iter_instrs raise_to fn;
  while not (Queue.is_empty work) do
    let i = Ir.Fn.instr fn (Queue.pop work) in
    if i.block >= 0 then raise_to i
  done;
  env

(* Re-types after an edit. [seeds] are values whose kind or phi inputs
   changed, and new values. A non-phi's type depends only on its kind, so
   a change travels only through phi users: every phi that depends on a
   changed seed is reset to unreached and re-solved to its least fixpoint,
   which is what [infer] computes over the whole function. Returns the
   values whose type changed. *)
let retype (prog : program) (fn : fn) (env : env) (seeds : vid list) : vid list =
  let n = Support.Vec.length fn.instrs in
  if Array.length env.vts < n then begin
    let vts = Array.make (max n (2 * Array.length env.vts)) Vt_bot in
    Array.blit env.vts 0 vts 0 (Array.length env.vts);
    env.vts <- vts
  end;
  let is_phi v = Ir.Instr.is_phi (Ir.Fn.kind fn v) in
  let old : (vid, vt) Hashtbl.t = Hashtbl.create 8 in
  let region = ref [] in
  let enter v ty =
    Hashtbl.replace old v env.vts.(v);
    region := v :: !region;
    env.vts.(v) <- ty
  in
  let rec add_phi v =
    if Ir.Fn.block_of fn v >= 0 && not (Hashtbl.mem old v) then begin
      enter v Vt_bot;
      add_users v
    end
  and add_users v = List.iter (fun u -> if is_phi u then add_phi u) (Ir.Fn.users fn v) in
  List.iter
    (fun v ->
      if Ir.Fn.block_of fn v >= 0 && not (Hashtbl.mem old v) then
        if is_phi v then add_phi v
        else
          let ty = transfer prog fn env (Ir.Fn.instr fn v) in
          if ty <> env.vts.(v) then begin
            enter v ty;
            add_users v
          end)
    seeds;
  let region = List.rev !region in
  let work = Queue.create () in
  List.iter (fun v -> if is_phi v then Queue.add v work) region;
  while not (Queue.is_empty work) do
    let p = Queue.pop work in
    let nv = transfer prog fn env (Ir.Fn.instr fn p) in
    if nv <> env.vts.(p) then begin
      env.vts.(p) <- nv;
      List.iter (fun u -> if Hashtbl.mem old u && is_phi u then Queue.add u work) (Ir.Fn.users fn p)
    end
  done;
  List.filter (fun v -> env.vts.(v) <> Hashtbl.find old v) region

let same_type (env : env) (a : vid) (b : vid) : bool = get env a = get env b

(* An untyped value (dead, or only reachable through itself) is unknown. *)
let value_type (env : env) (v : vid) : vt =
  match get env v with Vt_bot -> Vt_top | x -> x

(* The receiver class when a virtual call can be devirtualized:
   - exact receiver type: resolve on it;
   - otherwise class-hierarchy analysis: a unique concrete implementation
     below the static bound also suffices. *)
let devirt_target (prog : program) (env : env) (recv : vid) (sel : string) : meth_id option =
  match value_type env recv with
  | Vt_obj { cls; exact = true; _ } -> Ir.Program.resolve prog cls sel
  | Vt_obj { cls; exact = false; _ } -> (
      match Ir.Program.concrete_subtypes prog cls with
      | [] -> None
      | first :: rest -> (
          match Ir.Program.resolve prog first sel with
          | None -> None
          | Some m ->
              if
                List.for_all
                  (fun c -> Ir.Program.resolve prog c sel = Some m)
                  rest
              then Some m
              else None))
  | _ -> None

(* Three-valued type-test evaluation. *)
let typetest_result (prog : program) (env : env) (obj : vid) (target : class_id) :
    bool option =
  match value_type env obj with
  | Vt_null -> Some false
  | Vt_obj { cls; exact = true; nonnull = true } ->
      Some (Ir.Program.is_subclass prog ~sub:cls ~sup:target)
  | Vt_obj { cls; exact = true; nonnull = false } ->
      (* a null value fails the test, so only the negative case folds *)
      if Ir.Program.is_subclass prog ~sub:cls ~sup:target then None else Some false
  | Vt_obj { cls; exact = false; nonnull } -> (
      let possible =
        List.exists
          (fun c -> Ir.Program.is_subclass prog ~sub:c ~sup:target)
          (Ir.Program.concrete_subtypes prog cls)
      in
      let all =
        Ir.Program.concrete_subtypes prog cls <> []
        && List.for_all
             (fun c -> Ir.Program.is_subclass prog ~sub:c ~sup:target)
             (Ir.Program.concrete_subtypes prog cls)
      in
      match (possible, all, nonnull) with
      | false, _, _ -> Some false
      | _, true, true -> Some true
      | _ -> None)
  | _ -> None
