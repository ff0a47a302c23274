(* Global value numbering over the dominator tree (Briggs-style scoped
   hashing): pure instructions with identical operation and operands are
   collapsed to the first dominating occurrence. Array lengths participate
   (array lengths are immutable); loads do not (fields and elements are
   mutable). *)

open Ir.Types

(* The structural key of a numberable instruction. Phis are excluded
   (their meaning depends on control flow); commutative operators are
   normalized by sorting operands. *)
type key =
  | Kconst of const
  | Kbinop of binop * vid * vid
  | Kunop of unop * vid
  | Ktypetest of vid * class_id
  | Karraylen of vid
  | Kintrinsic of intrinsic * vid list

let key_of (k : instr_kind) : key option =
  let commutative = function
    | Add | Mul | Band | Bor | Bxor | Eq | Ne | Andb | Orb | Xorb | Eqb -> true
    | Sub | Div | Rem | Shl | Shr | Lt | Le | Gt | Ge -> false
  in
  match k with
  | Const c -> Some (Kconst c)
  | Binop (op, a, b) ->
      let a, b = if commutative op && b < a then (b, a) else (a, b) in
      Some (Kbinop (op, a, b))
  | Unop (op, a) -> Some (Kunop (op, a))
  | TypeTest { obj; cls } -> Some (Ktypetest (obj, cls))
  | ArrayLen a -> Some (Karraylen a)
  | Intrinsic (i, args) when Ir.Instr.is_pure k -> Some (Kintrinsic (i, args))
  | _ -> None

(* The keys a block added to [table] sit on [scope] above the height it
   found, and leave, newest first, once its dominator subtree is done. *)
let run ?(replaced = fun ~old_v:_ ~new_v:_ -> ()) (fn : fn) : int =
  let doms = Ir.Dominators.compute fn in
  let table : (key, vid) Hashtbl.t = Hashtbl.create 64 in
  let scope : key Support.Vec.t = Support.Vec.create ~dummy:(Karraylen (-1)) in
  let count = ref 0 in
  let visit v =
    if Ir.Fn.instr_live fn v then
      match key_of (Ir.Fn.kind fn v) with
      | Some key -> (
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
      | None -> ()
  in
  let rec walk (b : bid) =
    let height = Support.Vec.length scope in
    List.iter visit (Ir.Fn.block fn b).instrs;
    List.iter walk (Ir.Dominators.children doms b);
    while Support.Vec.length scope > height do
      Hashtbl.remove table (Support.Vec.pop scope)
    done
  in
  walk fn.entry;
  !count
