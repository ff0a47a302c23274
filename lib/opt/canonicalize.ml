(* Canonicalization: the "simple optimizations" the paper's deep inlining
   trials count and that Graal's canonicalizer performs — constant folding,
   algebraic simplification, strength reduction, branch pruning, type-check
   folding, and (type-driven) devirtualization.

   The rewrites are local functions in the shape of dex-lang's
   [peepholeOp]: [peephole] maps one instruction to an existing value or
   to a simpler op, and [prune_branch] rewrites one block's terminator.
   [Driver.simplify] applies them from a worklist; the number it applies
   is the inliner's N_s metric. *)

open Ir.Types

let is_pow2 n = n > 1 && n land (n - 1) = 0

let log2 n =
  let rec go k m = if m >= n then k else go (k + 1) (m * 2) in
  go 0 1

let fold_binop (op : binop) (a : const) (b : const) : const option =
  match (op, a, b) with
  | Add, Cint x, Cint y -> Some (Cint (x + y))
  | Sub, Cint x, Cint y -> Some (Cint (x - y))
  | Mul, Cint x, Cint y -> Some (Cint (x * y))
  | Div, Cint x, Cint y when y <> 0 -> Some (Cint (x / y))
  | Rem, Cint x, Cint y when y <> 0 -> Some (Cint (x mod y))
  | Shl, Cint x, Cint y -> Some (Cint (x lsl (y land 63)))
  | Shr, Cint x, Cint y -> Some (Cint (x asr (y land 63)))
  | Band, Cint x, Cint y -> Some (Cint (x land y))
  | Bor, Cint x, Cint y -> Some (Cint (x lor y))
  | Bxor, Cint x, Cint y -> Some (Cint (x lxor y))
  | Lt, Cint x, Cint y -> Some (Cbool (x < y))
  | Le, Cint x, Cint y -> Some (Cbool (x <= y))
  | Gt, Cint x, Cint y -> Some (Cbool (x > y))
  | Ge, Cint x, Cint y -> Some (Cbool (x >= y))
  | Eq, Cint x, Cint y -> Some (Cbool (x = y))
  | Ne, Cint x, Cint y -> Some (Cbool (x <> y))
  | Eq, Cnull, Cnull -> Some (Cbool true)
  | Ne, Cnull, Cnull -> Some (Cbool false)
  | Andb, Cbool x, Cbool y -> Some (Cbool (x && y))
  | Orb, Cbool x, Cbool y -> Some (Cbool (x || y))
  | Xorb, Cbool x, Cbool y -> Some (Cbool (x <> y))
  | Eqb, Cbool x, Cbool y -> Some (Cbool (x = y))
  | _ -> None

let fold_unop (op : unop) (a : const) : const option =
  match (op, a) with
  | Neg, Cint x -> Some (Cint (-x))
  | Not, Cbool b -> Some (Cbool (not b))
  | _ -> None

let fold_intrinsic (intr : intrinsic) (args : const option list) : const option =
  match (intr, args) with
  | Istr_len, [ Some (Cstring s) ] -> Some (Cint (String.length s))
  | Istr_eq, [ Some (Cstring a); Some (Cstring b) ] -> Some (Cbool (a = b))
  | Istr_get, [ Some (Cstring s); Some (Cint i) ] when i >= 0 && i < String.length s ->
      Some (Cint (Char.code s.[i]))
  | Iabs, [ Some (Cint a) ] -> Some (Cint (abs a))
  | Imin, [ Some (Cint a); Some (Cint b) ] -> Some (Cint (min a b))
  | Imax, [ Some (Cint a); Some (Cint b) ] -> Some (Cint (max a b))
  | _ -> None

type rewrite =
  | Value of vid  (* the instruction computes this existing value *)
  | Op of instr_kind  (* the instruction becomes this op; a [Const] for a fold *)

let const_of fn v = match Ir.Fn.kind fn v with Const c -> Some c | _ -> None
let folded c = Some (Op (Const c))

(* The peephole rewrite of one instruction, or [None]. [const c]
   materializes a constant right before the instruction (the shift amount
   of a strength-reduced multiply). *)
let peephole (prog : program) (env : Tyinfer.env) (fn : fn) ~(const : const -> vid)
    (i : instr) : rewrite option =
  match i.kind with
  | Binop (op, a, b) -> (
      match (const_of fn a, const_of fn b) with
      | Some ca, Some cb -> Option.bind (fold_binop op ca cb) folded
      | ca, cb -> (
          match (op, ca, cb) with
          | Add, Some (Cint 0), _ -> Some (Value b)
          | Add, _, Some (Cint 0) -> Some (Value a)
          | Sub, _, Some (Cint 0) -> Some (Value a)
          | Mul, Some (Cint 1), _ -> Some (Value b)
          | Mul, _, Some (Cint 1) -> Some (Value a)
          | (Mul, Some (Cint 0), _ | Mul, _, Some (Cint 0)) -> folded (Cint 0)
          | Div, _, Some (Cint 1) -> Some (Value a)
          | (Band, Some (Cint 0), _ | Band, _, Some (Cint 0)) -> folded (Cint 0)
          | Bor, Some (Cint 0), _ -> Some (Value b)
          | Bor, _, Some (Cint 0) -> Some (Value a)
          | Bxor, _, Some (Cint 0) -> Some (Value a)
          | (Shl, _, Some (Cint 0) | Shr, _, Some (Cint 0)) -> Some (Value a)
          | Andb, Some (Cbool true), _ -> Some (Value b)
          | Andb, _, Some (Cbool true) -> Some (Value a)
          | (Andb, Some (Cbool false), _ | Andb, _, Some (Cbool false)) ->
              folded (Cbool false)
          | Orb, Some (Cbool false), _ -> Some (Value b)
          | Orb, _, Some (Cbool false) -> Some (Value a)
          | (Orb, Some (Cbool true), _ | Orb, _, Some (Cbool true)) -> folded (Cbool true)
          | Mul, _, Some (Cint n) when is_pow2 n ->
              (* strength reduction: x * 2^k  ->  x << k *)
              Some (Op (Binop (Shl, a, const (Cint (log2 n)))))
          | Mul, Some (Cint n), _ when is_pow2 n ->
              Some (Op (Binop (Shl, b, const (Cint (log2 n)))))
          | (Eq, _, _ | Le, _, _ | Ge, _, _ | Eqb, _, _) when a = b ->
              (* the same SSA value compares equal to itself *)
              folded (Cbool true)
          | (Ne, _, _ | Lt, _, _ | Gt, _, _ | Xorb, _, _) when a = b -> folded (Cbool false)
          | Sub, _, _ when a = b -> folded (Cint 0)
          | _ -> None))
  | Unop (op, a) -> (
      match const_of fn a with
      | Some ca -> Option.bind (fold_unop op ca) folded
      | None -> (
          (* double negation *)
          match (op, Ir.Fn.kind fn a) with
          | Neg, Unop (Neg, inner) | Not, Unop (Not, inner) -> Some (Value inner)
          | _ -> None))
  | Intrinsic (intr, args) ->
      Option.bind (fold_intrinsic intr (List.map (const_of fn) args)) folded
  | TypeTest { obj; cls } ->
      Option.bind (Tyinfer.typetest_result prog env obj cls) (fun b -> folded (Cbool b))
  | Call ({ callee = Virtual sel; args = recv :: _; _ } as call) ->
      Option.map
        (fun m -> Op (Call { call with callee = Direct m }))
        (Tyinfer.devirt_target prog env recv sel)
  | _ -> None

(* Branch pruning: an [If] with equal targets or a constant condition
   becomes a [Goto]. The dead edge leaves the target's phis at once; the
   target itself dies in CFG cleanup if it has no other predecessor.
   Returns the phis that lost an input, or [None] when nothing changed. *)
let prune_branch (fn : fn) (b : bid) : vid list option =
  match Ir.Fn.term fn b with
  | If { tb; fb; _ } when tb = fb ->
      Ir.Fn.set_term fn b (Goto tb);
      Some []
  | If { cond; tb; fb; _ } -> (
      match Ir.Fn.kind fn cond with
      | Const (Cbool c) ->
          let live, dead = if c then (tb, fb) else (fb, tb) in
          let phis =
            List.filter_map
              (fun v ->
                match Ir.Fn.kind fn v with
                | Phi { inputs; _ } ->
                    Ir.Fn.set_phi_inputs fn v (List.filter (fun (pb, _) -> pb <> b) inputs);
                    Some v
                | _ -> None)
              (Ir.Fn.block fn dead).instrs
          in
          Ir.Fn.set_term fn b (Goto live);
          Some phis
      | _ -> None)
  | _ -> None
