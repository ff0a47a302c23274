(* Operations over individual instructions. *)

open Types

let operands (k : instr_kind) : vid list =
  match k with
  | Const _ | Param _ | New _ -> []
  | Unop (_, a) -> [ a ]
  | Binop (_, a, b) -> [ a; b ]
  | Phi { inputs; _ } -> List.map snd inputs
  | Call { args; _ } -> args
  | GetField { obj; _ } -> [ obj ]
  | SetField { obj; value; _ } -> [ obj; value ]
  | NewArray { len; _ } -> [ len ]
  | ArrayGet { arr; idx; _ } -> [ arr; idx ]
  | ArraySet { arr; idx; value; _ } -> [ arr; idx; value ]
  | ArrayLen a -> [ a ]
  | TypeTest { obj; _ } -> [ obj ]
  | Intrinsic (_, args) -> args

let rec iter_inputs f = function
  | [] -> ()
  | (_, v) :: tl ->
      f v;
      iter_inputs f tl

(* Calls [f] on each operand, in [operands] order, without allocating. *)
let iter_operands (f : vid -> unit) (k : instr_kind) : unit =
  match k with
  | Const _ | Param _ | New _ -> ()
  | Unop (_, a) | GetField { obj = a; _ } | NewArray { len = a; _ } | ArrayLen a
  | TypeTest { obj = a; _ } ->
      f a
  | Binop (_, a, b) | SetField { obj = a; value = b; _ } | ArrayGet { arr = a; idx = b; _ } ->
      f a;
      f b
  | ArraySet { arr; idx; value } ->
      f arr;
      f idx;
      f value
  | Phi { inputs; _ } -> iter_inputs f inputs
  | Call { args; _ } | Intrinsic (_, args) -> List.iter f args

let rec for_all_inputs p = function [] -> true | (_, v) :: tl -> p v && for_all_inputs p tl

(* [List.for_all p (operands k)], in the same order, without allocating. *)
let for_all_operands (p : vid -> bool) (k : instr_kind) : bool =
  match k with
  | Const _ | Param _ | New _ -> true
  | Unop (_, a) | GetField { obj = a; _ } | NewArray { len = a; _ } | ArrayLen a
  | TypeTest { obj = a; _ } ->
      p a
  | Binop (_, a, b) | SetField { obj = a; value = b; _ } | ArrayGet { arr = a; idx = b; _ } ->
      p a && p b
  | ArraySet { arr; idx; value } -> p arr && p idx && p value
  | Phi { inputs; _ } -> for_all_inputs p inputs
  | Call { args; _ } | Intrinsic (_, args) -> List.for_all p args

(* Rewrites every operand through [f], preserving structure. *)
let map_operands (f : vid -> vid) (k : instr_kind) : instr_kind =
  match k with
  | Const _ | Param _ | New _ -> k
  | Unop (op, a) -> Unop (op, f a)
  | Binop (op, a, b) -> Binop (op, f a, f b)
  | Phi { ty; inputs } -> Phi { ty; inputs = List.map (fun (b, v) -> (b, f v)) inputs }
  | Call { callee; args; site; rty } -> Call { callee; args = List.map f args; site; rty }
  | GetField g -> GetField { g with obj = f g.obj }
  | SetField s -> SetField { s with obj = f s.obj; value = f s.value }
  | NewArray n -> NewArray { n with len = f n.len }
  | ArrayGet a -> ArrayGet { a with arr = f a.arr; idx = f a.idx }
  | ArraySet a -> ArraySet { arr = f a.arr; idx = f a.idx; value = f a.value }
  | ArrayLen a -> ArrayLen (f a)
  | TypeTest t -> TypeTest { t with obj = f t.obj }
  | Intrinsic (i, args) -> Intrinsic (i, List.map f args)

(* Pure instructions may be removed when unused and are eligible for value
   numbering. Loads ([GetField], [ArrayGet], [ArrayLen]) are *not* pure:
   they can trap on null/bounds and read mutable state. [New]/[NewArray]
   observe no state but have an identity; they are removable-when-unused
   but not numberable, so they get their own predicate. *)
let is_pure (k : instr_kind) : bool =
  match k with
  | Const _ | Param _ | Unop _ | Binop _ | Phi _ | TypeTest _ -> true
  | Intrinsic (i, _) -> (
      match i with
      | Istr_len | Istr_get | Istr_eq | Iabs | Imin | Imax -> true
      | Iprint_int | Iprint_str | Iprint_bool -> false)
  | Call _ | New _ | GetField _ | SetField _ | NewArray _ | ArrayGet _
  | ArraySet _ | ArrayLen _ ->
      false

(* May this instruction be deleted if its result is unused? Effect-free
   except for allocation, which is unobservable when the object is dead. *)
let is_removable (k : instr_kind) : bool =
  match k with
  | New _ | NewArray _ -> true
  | GetField _ | ArrayGet _ | ArrayLen _ ->
      (* Loads can trap (null receiver / bounds), but deleting a dead load
         only removes a potential trap, which our semantics treats as a
         program error anyway; removing them is standard and safe here. *)
      true
  | k -> is_pure k

let has_side_effect (k : instr_kind) : bool = not (is_removable k)

let unop_ty : unop -> ty = function Neg -> Tint | Not -> Tbool

let binop_ty : binop -> ty = function
  | Add | Sub | Mul | Div | Rem | Shl | Shr | Band | Bor | Bxor -> Tint
  | Lt | Le | Gt | Ge | Eq | Ne | Andb | Orb | Xorb | Eqb -> Tbool

let intrinsic_ty : intrinsic -> ty = function
  | Iprint_int | Iprint_str | Iprint_bool -> Tunit
  | Istr_len | Istr_get | Iabs | Imin | Imax -> Tint
  | Istr_eq -> Tbool

(* Result type of an instruction. [spec_tys] supplies parameter types;
   most kinds carry enough type information themselves. *)
let result_ty ~(param_ty : int -> ty) (k : instr_kind) : ty =
  match k with
  | Const (Cint _) -> Tint
  | Const (Cbool _) -> Tbool
  | Const (Cstring _) -> Tstring
  | Const Cunit -> Tunit
  | Const Cnull -> Tobj (-1)  (* bottom-ish object type; refined by inference *)
  | Param i -> param_ty i
  | Unop (op, _) -> unop_ty op
  | Binop (op, _, _) -> binop_ty op
  | Phi { ty; _ } -> ty
  | Call { rty; _ } -> rty
  | New c -> Tobj c
  | GetField { fty; _ } -> fty
  | SetField _ -> Tunit
  | NewArray { ety; _ } -> Tarray ety
  | ArrayGet { ety; _ } -> ety
  | ArraySet _ -> Tunit
  | ArrayLen _ -> Tint
  | TypeTest _ -> Tbool
  | Intrinsic (i, _) -> intrinsic_ty i

let is_call (k : instr_kind) : bool =
  match k with Call _ -> true | _ -> false

let is_phi (k : instr_kind) : bool =
  match k with Phi _ -> true | _ -> false
