(* Function bodies: construction, mutation and traversal.

   Invariants maintained by this module:
   - [blocks]/[instrs] are dense id-indexed stores; a [None] slot is a
     deleted entity and ids are never reused within a function.
   - Every vid in [block.instrs] refers to a live instruction.
   The SSA dominance invariant is checked separately by [Verify]. *)

open Types
module Vec = Support.Vec

let create ~fname ~param_tys ~rty =
  {
    fname;
    param_tys;
    spec_tys = Array.copy param_tys;
    rty = (rty : ty);
    entry = -1;
    blocks = Vec.create ~dummy:None;
    instrs = Vec.create ~dummy:None;
  }

let instr fn (v : vid) : instr =
  match Vec.get fn.instrs v with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Fn.instr: dead instruction v%d in %s" v fn.fname)

let kind fn v = (instr fn v).kind

let block fn (b : bid) : block =
  match Vec.get fn.blocks b with
  | Some blk -> blk
  | None -> invalid_arg (Printf.sprintf "Fn.block: dead block b%d in %s" b fn.fname)

let block_live fn b =
  b >= 0 && b < Vec.length fn.blocks && Vec.get fn.blocks b <> None

let instr_live fn v =
  v >= 0 && v < Vec.length fn.instrs && Vec.get fn.instrs v <> None

let add_block fn : bid =
  let b = Vec.length fn.blocks in
  Vec.push fn.blocks (Some { b_id = b; instrs = []; term = Unreachable });
  b

let fresh_instr fn (k : instr_kind) : instr =
  let v = Vec.length fn.instrs in
  let i = { id = v; kind = k } in
  Vec.push fn.instrs (Some i);
  i

(* Id-preserving constructors, used by the textual IR parser: intermediate
   slots are padded with tombstones. *)
let add_block_at fn (b : bid) : unit =
  while Vec.length fn.blocks <= b do
    Vec.push fn.blocks None
  done;
  if Vec.get fn.blocks b <> None then
    invalid_arg (Printf.sprintf "Fn.add_block_at: b%d already exists" b);
  Vec.set fn.blocks b (Some { b_id = b; instrs = []; term = Unreachable })

let add_instr_at fn (v : vid) (k : instr_kind) : unit =
  while Vec.length fn.instrs <= v do
    Vec.push fn.instrs None
  done;
  if Vec.get fn.instrs v <> None then
    invalid_arg (Printf.sprintf "Fn.add_instr_at: v%d already exists" v);
  Vec.set fn.instrs v (Some { id = v; kind = k })

(* Appends a new instruction at the end of [b] and returns its id. *)
let append fn (b : bid) (k : instr_kind) : vid =
  let i = fresh_instr fn k in
  let blk = block fn b in
  blk.instrs <- blk.instrs @ [ i.id ];
  i.id

(* Inserts a new instruction at the *start* of [b] (after any phis). *)
let prepend fn (b : bid) (k : instr_kind) : vid =
  let i = fresh_instr fn k in
  let blk = block fn b in
  let phis, rest =
    List.partition (fun v -> Instr.is_phi (kind fn v)) blk.instrs
  in
  blk.instrs <- phis @ (i.id :: rest);
  i.id

let set_term fn (b : bid) (t : terminator) = (block fn b).term <- t

let term fn (b : bid) = (block fn b).term

let succs_of_term = function
  | Goto b -> [ b ]
  | If { tb; fb; _ } -> [ tb; fb ]
  | Return _ | Unreachable -> []

let succs fn b = succs_of_term (term fn b)

let delete_instr fn (v : vid) =
  if instr_live fn v then begin
    Vec.iter
      (function
        | Some (blk : block) -> blk.instrs <- List.filter (fun x -> x <> v) blk.instrs
        | None -> ())
      fn.blocks;
    Vec.set fn.instrs v None
  end

let delete_instrs fn (dead : vid -> bool) : int =
  let n = ref 0 in
  Vec.iter
    (function
      | Some (blk : block) ->
          blk.instrs <-
            List.filter
              (fun v ->
                if dead v then begin
                  Vec.set fn.instrs v None;
                  incr n;
                  false
                end
                else true)
              blk.instrs
      | None -> ())
    fn.blocks;
  !n

let delete_block fn (b : bid) =
  if block_live fn b then begin
    let blk = block fn b in
    List.iter (fun v -> Vec.set fn.instrs v None) blk.instrs;
    Vec.set fn.blocks b None
  end

let iter_blocks f fn =
  Vec.iter (function Some blk -> f blk | None -> ()) fn.blocks

let iter_instrs f fn =
  iter_blocks (fun blk -> List.iter (fun v -> f (instr fn v)) blk.instrs) fn

let fold_blocks f acc fn =
  Vec.fold_left (fun acc s -> match s with Some blk -> f acc blk | None -> acc) acc fn.blocks

let block_ids fn = fold_blocks (fun acc blk -> blk.b_id :: acc) [] fn |> List.rev

(* Inserts a new instruction immediately before [before] in its block. *)
let insert_before fn ~(before : vid) (k : instr_kind) : vid =
  let i = fresh_instr fn k in
  let placed = ref false in
  iter_blocks
    (fun blk ->
      if (not !placed) && List.mem before blk.instrs then begin
        blk.instrs <-
          List.concat_map (fun v -> if v = before then [ i.id; v ] else [ v ]) blk.instrs;
        placed := true
      end)
    fn;
  if not !placed then
    invalid_arg (Printf.sprintf "Fn.insert_before: v%d not found in any block" before);
  i.id

(* Predecessor map, recomputed on demand. *)
let preds fn : (bid, bid list) Hashtbl.t =
  let t = Hashtbl.create 16 in
  iter_blocks (fun blk -> Hashtbl.replace t blk.b_id []) fn;
  iter_blocks
    (fun blk ->
      List.iter
        (fun s ->
          let old = try Hashtbl.find t s with Not_found -> [] in
          Hashtbl.replace t s (blk.b_id :: old))
        (succs_of_term blk.term))
    fn;
  Hashtbl.iter (fun k v -> Hashtbl.replace t k (List.rev v)) t;
  t

(* Reverse postorder over reachable blocks, entry first. *)
let rpo fn : bid list =
  let visited = Hashtbl.create 16 in
  let order = ref [] in
  let rec go b =
    if not (Hashtbl.mem visited b) then begin
      Hashtbl.add visited b ();
      List.iter go (succs fn b);
      order := b :: !order
    end
  in
  go fn.entry;
  !order

let reachable fn : (bid, unit) Hashtbl.t =
  let t = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.add t b ()) (rpo fn);
  t

(* Number of live instructions — the paper's |ir(n)| size metric. Block
   terminators count 1 each so that control flow is not free. *)
let size fn =
  let n = ref 0 in
  iter_blocks
    (fun blk ->
      n := !n + List.length blk.instrs + 1)
    fn;
  !n

(* Replaces every use of [old_v] with [new_v], in instruction operands and
   in terminators (If conditions and Return values). *)
let replace_uses fn ~(old_v : vid) ~(new_v : vid) =
  let subst v = if v = old_v then new_v else v in
  iter_instrs (fun i -> i.kind <- Instr.map_operands subst i.kind) fn;
  iter_blocks
    (fun blk ->
      match blk.term with
      | If ({ cond; _ } as r) when cond = old_v -> blk.term <- If { r with cond = new_v }
      | Return v when v = old_v -> blk.term <- Return new_v
      | _ -> ())
    fn

(* All live call instructions, in block order. *)
let calls fn : instr list =
  let acc = ref [] in
  iter_instrs (fun i -> if Instr.is_call i.kind then acc := i :: !acc) fn;
  List.rev !acc

let param_ty fn i =
  if i < Array.length fn.spec_tys then fn.spec_tys.(i)
  else invalid_arg "Fn.param_ty: parameter index out of range"

let result_ty fn (k : instr_kind) = Instr.result_ty ~param_ty:(param_ty fn) k

(* Deep copy with fresh tables. Instruction and block ids are preserved
   (including dead slots), so site keys and operand references stay valid. *)
let copy fn =
  {
    fname = fn.fname;
    param_tys = Array.copy fn.param_tys;
    spec_tys = Array.copy fn.spec_tys;
    rty = fn.rty;
    entry = fn.entry;
    blocks =
      (let v = Vec.create ~dummy:None in
       Vec.iter
         (fun (s : block option) ->
           Vec.push v
             (match s with
             | Some blk -> Some { blk with instrs = blk.instrs }
             | None -> None))
         fn.blocks;
       v);
    instrs =
      (let v = Vec.create ~dummy:None in
       Vec.iter
         (fun s ->
           Vec.push v
             (match s with
             | Some i -> Some { i with kind = Instr.map_operands (fun x -> x) i.kind }
             | None -> None))
         fn.instrs;
       v);
  }
