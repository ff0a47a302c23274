(* Canonicalization: the "simple optimizations" the paper's deep inlining
   trials count and that Graal's canonicalizer performs — constant folding,
   algebraic simplification, strength reduction, branch pruning, type-check
   folding, and (type-driven) devirtualization.

   Rewrites happen in place. Replacing an instruction with a constant
   mutates its kind (uses stay valid); replacing it with an existing value
   rewrites the uses and deletes the instruction. [run_once] returns the
   number of applied rewrites — the inliner's N_s metric. *)

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

(* One canonicalization sweep; returns the number of rewrites. *)
let run_once (prog : program) (fn : fn) : int =
  let rewrites = ref 0 in
  let env = Tyinfer.infer prog fn in
  let const_of v = match Ir.Fn.kind fn v with Const c -> Some c | _ -> None in
  let to_const (i : instr) (c : const) =
    i.kind <- Const c;
    incr rewrites
  in
  let to_value (i : instr) (v : vid) =
    Ir.Fn.replace_uses fn ~old_v:i.id ~new_v:v;
    Ir.Fn.delete_instr fn i.id;
    incr rewrites
  in
  let instrs = ref [] in
  Ir.Fn.iter_instrs (fun i -> instrs := i :: !instrs) fn;
  List.iter
    (fun (i : instr) ->
      if Ir.Fn.instr_live fn i.id then
        match i.kind with
        | Binop (op, a, b) -> (
            match (const_of a, const_of b) with
            | Some ca, Some cb -> (
                match fold_binop op ca cb with
                | Some c -> to_const i c
                | None -> ())
            | ca, cb -> (
                match (op, ca, cb) with
                | Add, Some (Cint 0), _ -> to_value i b
                | Add, _, Some (Cint 0) -> to_value i a
                | Sub, _, Some (Cint 0) -> to_value i a
                | Mul, Some (Cint 1), _ -> to_value i b
                | Mul, _, Some (Cint 1) -> to_value i a
                | (Mul, Some (Cint 0), _ | Mul, _, Some (Cint 0)) -> to_const i (Cint 0)
                | Div, _, Some (Cint 1) -> to_value i a
                | (Band, Some (Cint 0), _ | Band, _, Some (Cint 0)) -> to_const i (Cint 0)
                | Bor, Some (Cint 0), _ -> to_value i b
                | Bor, _, Some (Cint 0) -> to_value i a
                | Bxor, _, Some (Cint 0) -> to_value i a
                | (Shl, _, Some (Cint 0) | Shr, _, Some (Cint 0)) -> to_value i a
                | Andb, Some (Cbool true), _ -> to_value i b
                | Andb, _, Some (Cbool true) -> to_value i a
                | (Andb, Some (Cbool false), _ | Andb, _, Some (Cbool false)) ->
                    to_const i (Cbool false)
                | Orb, Some (Cbool false), _ -> to_value i b
                | Orb, _, Some (Cbool false) -> to_value i a
                | (Orb, Some (Cbool true), _ | Orb, _, Some (Cbool true)) ->
                    to_const i (Cbool true)
                | Mul, _, Some (Cint n) when is_pow2 n ->
                    (* strength reduction: x * 2^k  ->  x << k *)
                    let sh = Ir.Fn.insert_before fn ~before:i.id (Const (Cint (log2 n))) in
                    i.kind <- Binop (Shl, a, sh);
                    incr rewrites
                | Mul, Some (Cint n), _ when is_pow2 n ->
                    let sh = Ir.Fn.insert_before fn ~before:i.id (Const (Cint (log2 n))) in
                    i.kind <- Binop (Shl, b, sh);
                    incr rewrites
                | (Eq, _, _ | Le, _, _ | Ge, _, _ | Eqb, _, _) when a = b ->
                    (* the same SSA value compares equal to itself *)
                    to_const i (Cbool true)
                | (Ne, _, _ | Lt, _, _ | Gt, _, _ | Xorb, _, _) when a = b ->
                    to_const i (Cbool false)
                | Sub, _, _ when a = b -> to_const i (Cint 0)
                | _ -> ()))
        | Unop (op, a) -> (
            match const_of a with
            | Some ca -> (
                match fold_unop op ca with
                | Some c -> to_const i c
                | None -> ())
            | None -> (
                (* double negation *)
                match (op, Ir.Fn.kind fn a) with
                | Neg, Unop (Neg, inner) | Not, Unop (Not, inner) -> to_value i inner
                | _ -> ()))
        | Intrinsic (intr, args) -> (
            match fold_intrinsic intr (List.map const_of args) with
            | Some c -> to_const i c
            | None -> ())
        | TypeTest { obj; cls } -> (
            match Tyinfer.typetest_result prog env obj cls with
            | Some b -> to_const i (Cbool b)
            | None -> ())
        | Call ({ callee = Virtual sel; args; _ } as call) -> (
            match args with
            | recv :: _ -> (
                match Tyinfer.devirt_target prog env recv sel with
                | Some m ->
                    call.callee <- Direct m;
                    incr rewrites
                | None -> ())
            | [] -> ())
        | _ -> ())
    !instrs;
  (* branch pruning *)
  Ir.Fn.iter_blocks
    (fun blk ->
      match blk.term with
      | If { cond; tb; fb; _ } -> (
          if tb = fb then begin
            blk.term <- Goto tb;
            incr rewrites
          end
          else
            match const_of cond with
            | Some (Cbool b) ->
                let live, dead = if b then (tb, fb) else (fb, tb) in
                (* drop the dead edge from the target's phis right away; the
                   block itself dies in CFG cleanup if it has no other preds *)
                List.iter
                  (fun v ->
                    match Ir.Fn.kind fn v with
                    | Phi p ->
                        p.inputs <- List.filter (fun (pb, _) -> pb <> blk.b_id) p.inputs
                    | _ -> ())
                  (Ir.Fn.block fn dead).instrs;
                blk.term <- Goto live;
                incr rewrites
            | _ -> ())
      | _ -> ())
    fn;
  !rewrites
