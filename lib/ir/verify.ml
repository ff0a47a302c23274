(* IR well-formedness checker.

   Run after every transformation in tests (and behind a debug flag in the
   engine). Checks:
   - structural: operands and branch targets refer to live entities; block
     instruction lists mention only live instructions, each exactly once
     across the whole function.
   - phi shape: phis appear at the start of their block; their input edges
     exactly match the block's reachable predecessors.
   - SSA dominance: each non-phi use is dominated by its definition; a phi
     input is dominated along its incoming edge.
   - the index [Fn] maintains: recomputed users lists and placements must
     equal the stored ones, so an IR write that bypassed [Fn] fails here.
   It computes reachability, predecessors and dominators from the block
   store itself and reads none of the analyses [Fn] caches, so it stays
   an oracle for them. *)

open Types

exception Ill_formed of string

let fail fmt = Fmt.kstr (fun s -> raise (Ill_formed s)) fmt

let ids l = String.concat "," (List.map string_of_int l)

(* Recomputes [Fn]'s def-use lists from the stores and compares them (when
   [fn] keeps them), and the placements [placed] found in the block lists,
   with what [fn]'s instructions hold, over every live instruction and
   block, reachable or not. *)
let check_index (fn : fn) ~(placed : vid -> bid) =
  let module Vec = Support.Vec in
  let n = Vec.length fn.instrs in
  let users = Array.make n [] and term_users = Array.make n [] in
  let add tbl u o = if Fn.instr_live fn o then tbl.(o) <- u :: tbl.(o) in
  Vec.iter
    (function Some (i : instr) -> Instr.iter_operands (add users i.id) i.kind | None -> ())
    fn.instrs;
  Fn.iter_blocks
    (fun blk ->
      match blk.term with
      | If { cond = o; _ } | Return o -> add term_users blk.b_id o
      | Goto _ | Unreachable -> ())
    fn;
  (* stored lists are ascending *)
  let same stored expected =
    match (stored, expected) with
    | [], [] -> true
    | [ x ], [ y ] -> x = y
    | _ -> stored = List.sort compare expected
  in
  Vec.iter
    (function
      | Some (i : instr) ->
          let v = i.id in
          if fn.has_users && not (same i.users users.(v)) then
            fail "users of v%d are recorded as {%s} but are {%s}" v (ids i.users)
              (ids users.(v));
          if fn.has_users && not (same i.term_users term_users.(v)) then
            fail "terminators reading v%d are recorded as {%s} but are {%s}" v
              (ids i.term_users) (ids term_users.(v));
          if i.block <> placed v then
            fail "v%d is recorded in block %d but placed in %d" v i.block (placed v)
      | None -> ())
    fn.instrs

(* The graph as the verifier sees it, computed from the block store with
   no cached analysis: a fresh reverse-postorder numbering of the blocks
   reachable from the entry, each reachable block's reachable
   predecessors, and the dominator tree. [check] has tested that every
   terminator target is live. *)
let graph (fn : fn) : Fn.numbering * bid list array * Dominators.t =
  let g = Fn.number fn in
  let preds = Array.make (Support.Vec.length fn.blocks) [] in
  Array.iter
    (fun b ->
      match Fn.term fn b with
      | Goto s -> preds.(s) <- b :: preds.(s)
      | If { tb; fb; _ } ->
          preds.(tb) <- b :: preds.(tb);
          preds.(fb) <- b :: preds.(fb)
      | Return _ | Unreachable -> ())
    g.order;
  (g, preds, Dominators.build g ~preds)

let check (fn : fn) : unit =
  if not (Fn.block_live fn fn.entry) then fail "entry block b%d is dead" fn.entry;
  (* validate all terminator targets up front: reachability and dominator
     computations below would crash on dangling edges *)
  let target b s =
    if not (Fn.block_live fn s) then fail "terminator of b%d targets dead block b%d" b s
  in
  Fn.iter_blocks
    (fun blk ->
      match blk.term with
      | Goto s -> target blk.b_id s
      | If { tb; fb; _ } ->
          target blk.b_id tb;
          target blk.b_id fb
      | Return _ | Unreachable -> ())
    fn;
  (* def_block: vid -> bid (-1 unplaced), and uniqueness of placement *)
  let def_block = Array.make (Support.Vec.length fn.instrs) (-1) in
  Fn.iter_blocks
    (fun blk ->
      List.iter
        (fun v ->
          if not (Fn.instr_live fn v) then
            fail "block b%d lists dead instruction v%d" blk.b_id v;
          if def_block.(v) >= 0 then
            fail "instruction v%d appears in more than one block" v;
          def_block.(v) <- blk.b_id)
        blk.instrs)
    fn;
  let g, preds, doms = graph fn in
  let reachable b = g.index.(b) >= 0 in
  (* instruction-position index within its block, for same-block dominance *)
  let pos = Array.make (Array.length def_block) 0 in
  Fn.iter_blocks
    (fun blk -> List.iteri (fun i v -> pos.(v) <- i) blk.instrs)
    fn;
  let value_dominates_use ~(def : vid) ~(use_block : bid) ~(use_pos : int) =
    match def_block.(def) with
    | -1 -> fail "use of unplaced instruction v%d" def
    | db ->
        if db = use_block then begin
          let dp = pos.(def) in
          if dp >= use_pos then
            fail "v%d used at position %d of b%d before its definition at %d"
              def use_pos use_block dp
        end
        else if not (Dominators.dominates doms ~a:db ~b:use_block) then
          fail "definition of v%d in b%d does not dominate use in b%d" def db use_block
  in
  Fn.iter_blocks
    (fun blk ->
      if reachable blk.b_id then begin
        (* phis first *)
        let seen_non_phi = ref false in
        List.iteri
          (fun i v ->
            let k = Fn.kind fn v in
            (match k with
            | Phi { inputs; _ } ->
                if blk.b_id = fn.entry then
                  fail "phi v%d in the entry block (no incoming edge on first entry)" v;
                if !seen_non_phi then
                  fail "phi v%d appears after a non-phi in b%d" v blk.b_id;
                let ps = List.sort_uniq compare preds.(blk.b_id) in
                let ins = List.map fst inputs |> List.sort_uniq compare in
                if ins <> ps then
                  fail "phi v%d in b%d has edges {%s} but predecessors are {%s}"
                    v blk.b_id
                    (ids ins) (ids ps);
                List.iter
                  (fun (pred, pv) ->
                    if not (Fn.instr_live fn pv) then
                      fail "phi v%d input v%d is dead" v pv;
                    match def_block.(pv) with
                    | -1 -> fail "phi v%d input v%d unplaced" v pv
                    | db ->
                        if
                          reachable pred
                          && not (Dominators.dominates doms ~a:db ~b:pred)
                        then
                          fail
                            "phi v%d input v%d (defined in b%d) does not dominate edge from b%d"
                            v pv db pred)
                  inputs
            | _ ->
                seen_non_phi := true;
                List.iter
                  (fun opnd ->
                    if not (Fn.instr_live fn opnd) then
                      fail "v%d uses dead operand v%d" v opnd;
                    value_dominates_use ~def:opnd ~use_block:blk.b_id ~use_pos:i)
                  (Instr.operands k));
            ())
          blk.instrs;
        (* terminator *)
        (match blk.term with
        | If { cond; _ } ->
            if not (Fn.instr_live fn cond) then
              fail "if in b%d uses dead condition v%d" blk.b_id cond;
            value_dominates_use ~def:cond ~use_block:blk.b_id
              ~use_pos:(List.length blk.instrs)
        | Return v ->
            if not (Fn.instr_live fn v) then
              fail "return in b%d uses dead value v%d" blk.b_id v;
            value_dominates_use ~def:v ~use_block:blk.b_id
              ~use_pos:(List.length blk.instrs)
        | Goto _ | Unreachable -> ())
      end)
    fn;
  check_index fn ~placed:(fun v -> def_block.(v))

(* The type rules the threaded tier relies on. It keeps Int and Bool
   values unboxed in one frame and every other value boxed in another,
   so an op may read an operand only of the kind (Int, Bool or boxed)
   its handler takes, a phi and its inputs are of one kind and an [If]
   branches on a Bool. Types come from [Instr.result_ty] and the
   declared [param_tys]; the rules check the kind, so any boxed type
   passes where an object, a string or an array is needed. Unlike
   [check], this covers every live block, reachable or not, as
   preparation and lowering do. *)
let check_types (fn : fn) : unit =
  let param_ty k = if k < Array.length fn.param_tys then fn.param_tys.(k) else Tunit in
  let ty v = Instr.result_ty ~param_ty (Fn.kind fn v) in
  let frame t = match t with Tint -> `Int | Tbool -> `Bool | _ -> `Boxed in
  let name v = Printer.ty_to_string (ty v) in
  Fn.iter_blocks
    (fun blk ->
      List.iter
        (fun v ->
          let k = Fn.kind fn v in
          let bad fmt = Fmt.kstr (fun s -> fail "v%d = %a: %s" v Printer.pp_kind k s) fmt in
          Instr.iter_operands
            (fun o -> if not (Fn.instr_live fn o) then bad "v%d names no instruction" o)
            k;
          let need f what o =
            if frame (ty o) <> f then bad "v%d is %s, not %s" o (name o) what
          in
          let int = need `Int "Int" and bool = need `Bool "Bool" in
          match k with
          | Unop (Neg, a) -> int a
          | Unop (Not, a) -> bool a
          | Binop ((Add | Sub | Mul | Div | Rem | Shl | Shr | Band | Bor | Bxor
                   | Lt | Le | Gt | Ge), a, b) ->
              int a;
              int b
          | Binop ((Andb | Orb | Xorb | Eqb), a, b) ->
              bool a;
              bool b
          | Binop ((Eq | Ne), a, b) ->
              if frame (ty a) <> frame (ty b) then
                bad "v%d is %s and v%d is %s" a (name a) b (name b)
          | Phi { ty = t; inputs } ->
              List.iter
                (fun (p, x) ->
                  if frame (ty x) <> frame t then
                    bad "the input from b%d, v%d, is %s" p x (name x))
                inputs
          | GetField { obj; _ } | SetField { obj; _ } | TypeTest { obj; _ } ->
              need `Boxed "an object" obj
          | ArrayLen a -> need `Boxed "an array" a
          | NewArray { len; _ } -> int len
          | ArrayGet { arr; idx; _ } | ArraySet { arr; idx; _ } ->
              need `Boxed "an array" arr;
              int idx
          | Intrinsic (i, args) -> (
              match (i, args) with
              | (Iprint_int | Iabs), [ a ] -> int a
              | (Imin | Imax), [ a; b ] ->
                  int a;
                  int b
              | Iprint_bool, [ a ] -> bool a
              | (Iprint_str | Istr_len), [ a ] -> need `Boxed "a String" a
              | Istr_get, [ s; i ] ->
                  need `Boxed "a String" s;
                  int i
              | Istr_eq, [ a; b ] ->
                  need `Boxed "a String" a;
                  need `Boxed "a String" b
              | _ -> bad "%d arguments is the wrong number" (List.length args))
          | Const _ | Param _ | Call _ | New _ -> ())
        blk.instrs;
      let operand what v =
        if not (Fn.instr_live fn v) then
          fail "%s in b%d: v%d names no instruction" what blk.b_id v
      in
      match blk.term with
      | If { cond; _ } ->
          operand "if" cond;
          if frame (ty cond) <> `Bool then
            fail "if in b%d: the condition v%d is %s, not Bool" blk.b_id cond (name cond)
      | Return v -> operand "return" v
      | Goto _ | Unreachable -> ())
    fn

let is_well_formed fn =
  match check fn with () -> true | exception Ill_formed _ -> false

(* Checks every method body in a program; returns the first error. *)
let check_program (p : program) : (unit, string) result =
  let error = ref None in
  Program.iter_meths
    (fun (m : meth) ->
      if !error = None then
        match m.body with
        | Some fn -> (
            try check fn
            with Ill_formed msg -> error := Some (Printf.sprintf "%s: %s" m.m_name msg))
        | None -> ())
    p;
  match !error with None -> Ok () | Some e -> Error e
