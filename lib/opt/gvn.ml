(* Global value numbering over the dominator tree (Briggs-style scoped
   hashing): pure instructions with identical operation and operands are
   collapsed to the first dominating occurrence. Array lengths participate
   (array lengths are immutable); loads do not (fields and elements are
   mutable). *)

open Ir.Types

(* The structural key of a numberable instruction, [Knone] for the
   others. Phis are excluded (their meaning depends on control flow);
   commutative operators are normalized by sorting operands. *)
type key =
  | Knone
  | Kconst of const
  | Kbinop of binop * vid * vid
  | Kunop of unop * vid
  | Ktypetest of vid * class_id
  | Karraylen of vid
  | Kintrinsic of intrinsic * vid list

let key_of (k : instr_kind) : key =
  let commutative = function
    | Add | Mul | Band | Bor | Bxor | Eq | Ne | Andb | Orb | Xorb | Eqb -> true
    | Sub | Div | Rem | Shl | Shr | Lt | Le | Gt | Ge -> false
  in
  match k with
  | Const c -> Kconst c
  | Binop (op, a, b) ->
      let a, b = if commutative op && b < a then (b, a) else (a, b) in
      Kbinop (op, a, b)
  | Unop (op, a) -> Kunop (op, a)
  | TypeTest { obj; cls } -> Ktypetest (obj, cls)
  | ArrayLen a -> Karraylen a
  | Intrinsic (i, args) when Ir.Instr.is_pure k -> Kintrinsic (i, args)
  | _ -> Knone

(* The keys a block added to [table] sit on [scope] above the height it
   found, and leave, newest first, once its dominator subtree is done. *)
let run ?(replaced = fun ~old_v:_ ~new_v:_ -> ()) (fn : fn) : int =
  let doms = Ir.Dominators.compute fn in
  let table : (key, vid) Hashtbl.t = Hashtbl.create 64 in
  let scope : key Support.Vec.t = Support.Vec.create ~dummy:Knone in
  let count = ref 0 in
  let visit v =
    if Ir.Fn.instr_live fn v then
      match key_of (Ir.Fn.kind fn v) with
      | Knone -> ()
      | key -> (
          match Hashtbl.find table key with
          | v' when v' <> v ->
              replaced ~old_v:v ~new_v:v';
              Ir.Fn.replace_uses fn ~old_v:v ~new_v:v';
              Ir.Fn.delete_instr fn v;
              incr count
          | _ -> ()
          | exception Not_found ->
              Hashtbl.add table key v;
              Support.Vec.push scope key)
  in
  let rec walk (b : bid) =
    let height = Support.Vec.length scope in
    List.iter visit (Ir.Fn.block fn b).instrs;
    Ir.Dominators.iter_children walk doms b;
    while Support.Vec.length scope > height do
      Hashtbl.remove table (Support.Vec.pop scope)
    done
  in
  walk fn.entry;
  !count
