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

let of_ty (t : ty) : vt =
  match t with
  | Tint | Tbool | Tunit | Tstring -> Vt_prim t
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

type env = (vid, vt) Hashtbl.t

let transfer (prog : program) (fn : fn) (env : env) (i : instr) : vt =
  let get v = match Hashtbl.find_opt env v with Some x -> x | None -> Vt_bot in
  match i.kind with
  | Const (Cint _) -> Vt_prim Tint
  | Const (Cbool _) -> Vt_prim Tbool
  | Const (Cstring _) -> Vt_prim Tstring
  | Const Cunit -> Vt_prim Tunit
  | Const Cnull -> Vt_null
  | Param k ->
      if k < Array.length fn.spec_tys then of_ty fn.spec_tys.(k) else Vt_top
  | Unop _ | Binop _ -> of_ty (Ir.Fn.result_ty fn i.kind)
  | Phi { inputs; _ } ->
      List.fold_left (fun acc (_, v) -> join prog acc (get v)) Vt_bot inputs
  | Call { rty; _ } -> of_ty rty
  | New c -> Vt_obj { cls = c; exact = true; nonnull = true }
  | GetField { fty; _ } -> of_ty fty
  | SetField _ -> Vt_prim Tunit
  | NewArray { ety; _ } -> Vt_arr ety
  | ArrayGet { ety; _ } -> of_ty ety
  | ArraySet _ -> Vt_prim Tunit
  | ArrayLen _ -> Vt_prim Tint
  | TypeTest _ -> Vt_prim Tbool
  | Intrinsic _ -> of_ty (Ir.Fn.result_ty fn i.kind)

(* Iterates to a fixpoint; the lattice has finite height (class hierarchy
   depth), so this terminates quickly. *)
let infer (prog : program) (fn : fn) : env =
  let env : env = Hashtbl.create 64 in
  let changed = ref true in
  while !changed do
    changed := false;
    Ir.Fn.iter_instrs
      (fun i ->
        let nv = transfer prog fn env i in
        let ov = match Hashtbl.find_opt env i.id with Some x -> x | None -> Vt_bot in
        let joined = join prog ov nv in
        if joined <> ov then begin
          Hashtbl.replace env i.id joined;
          changed := true
        end)
      fn
  done;
  env

let value_type (env : env) (v : vid) : vt =
  match Hashtbl.find_opt env v with Some x -> x | None -> Vt_top

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
