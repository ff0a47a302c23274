(* Function bodies: construction, mutation and traversal.

   Invariants maintained by this module, the only writer of instruction
   kinds, block instruction lists and terminators:
   - [blocks]/[instrs] are dense id-indexed stores; a [None] slot is a
     deleted entity and ids are never reused within a function.
   - Every vid in [block.instrs] refers to a live instruction whose
     [block] field names that block (-1 when unplaced).
   - While [has_users] holds, a live instruction's [users] lists, in
     ascending order, one entry per occurrence of it among the operands of
     live instructions (placed or not), and its [term_users], ascending,
     one entry per live block whose terminator reads it. An operand naming
     no live instruction (a placeholder, or garbage in an unreachable
     block) is not indexed. [drop_users] empties the lists of a body that
     will only be read or copied; the next query rebuilds them.
   - [cfg] holds only analyses of the current control-flow graph: every
     writer that adds or deletes a block or changes a block's successors
     drops it ([cfg_edited]), and a record made for another entry block
     is not read.
   - Every writer clears [prepared] ([edited]).
   The SSA dominance invariant, and the index itself, are checked
   separately by [Verify]. *)

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
    has_users = true;
    cfg = None;
    prepared = false;
  }

let edited fn = fn.prepared <- false

let cfg_edited fn =
  fn.prepared <- false;
  fn.cfg <- None

let drop_analyses fn = fn.cfg <- None

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

(* ---------- the def-use index ---------- *)

let live_instr fn (v : vid) : instr option =
  if v >= 0 && v < Vec.length fn.instrs then Vec.get fn.instrs v else None

let block_of fn (v : vid) : bid =
  match live_instr fn v with Some i -> i.block | None -> -1

(* Sorted-list insertion and removal of one occurrence. *)
let rec insert x = function
  | y :: tl when y < x -> y :: insert x tl
  | l -> x :: l

let rec remove_one x = function
  | [] -> []
  | y :: tl -> if y = x then tl else y :: remove_one x tl

let add_user fn (u : vid) (o : vid) =
  if fn.has_users then
    match live_instr fn o with Some i -> i.users <- insert u i.users | None -> ()

let remove_user fn (u : vid) (o : vid) =
  if fn.has_users then
    match live_instr fn o with Some i -> i.users <- remove_one u i.users | None -> ()

let iter_term_operand f = function
  | If { cond; _ } -> f cond
  | Return v -> f v
  | Goto _ | Unreachable -> ()

let add_term_user fn (b : bid) (o : vid) =
  if fn.has_users then
    match live_instr fn o with
    | Some i -> i.term_users <- insert b i.term_users
    | None -> ()

let remove_term_user fn (b : bid) (o : vid) =
  if fn.has_users then
    match live_instr fn o with
    | Some i -> i.term_users <- remove_one b i.term_users
    | None -> ()

let drop_users fn =
  Vec.iter
    (function
      | Some i ->
          i.users <- [];
          i.term_users <- []
      | None -> ())
    fn.instrs;
  fn.has_users <- false;
  drop_analyses fn

(* Rebuilds the lists in ascending order: users are registered by
   increasing id, and each list is built back to front. *)
let ensure_users fn =
  if not fn.has_users then begin
    for u = Vec.length fn.instrs - 1 downto 0 do
      match Vec.get fn.instrs u with
      | Some i ->
          Instr.iter_operands
            (fun o -> match live_instr fn o with Some d -> d.users <- u :: d.users | None -> ())
            i.kind
      | None -> ()
    done;
    for b = Vec.length fn.blocks - 1 downto 0 do
      match Vec.get fn.blocks b with
      | Some blk ->
          iter_term_operand
            (fun o ->
              match live_instr fn o with Some d -> d.term_users <- b :: d.term_users | None -> ())
            blk.term
      | None -> ()
    done;
    fn.has_users <- true
  end

let users fn (v : vid) : vid list =
  ensure_users fn;
  match live_instr fn v with Some i -> i.users | None -> []

let term_users fn (v : vid) : bid list =
  ensure_users fn;
  match live_instr fn v with Some i -> i.term_users | None -> []

(* ---------- construction ---------- *)

let new_block b = Some { b_id = b; instrs = []; term = Unreachable }

let add_block fn : bid =
  cfg_edited fn;
  let b = Vec.length fn.blocks in
  Vec.push fn.blocks (new_block b);
  b

let new_instr v k = { id = v; kind = k; users = []; term_users = []; block = -1 }

let fresh_instr fn (k : instr_kind) : instr =
  edited fn;
  let v = Vec.length fn.instrs in
  let i = new_instr v k in
  Vec.push fn.instrs (Some i);
  Instr.iter_operands (add_user fn v) k;
  i

(* Id-preserving constructors, used by the textual IR parser: intermediate
   slots are padded with tombstones. An operand naming a later instruction
   is indexed only once that instruction exists, so the parser creates
   every instruction before it sets their kinds. *)
let add_block_at fn (b : bid) : unit =
  cfg_edited fn;
  while Vec.length fn.blocks <= b do
    Vec.push fn.blocks None
  done;
  if Vec.get fn.blocks b <> None then
    invalid_arg (Printf.sprintf "Fn.add_block_at: b%d already exists" b);
  Vec.set fn.blocks b (new_block b)

let add_instr_at fn (v : vid) (k : instr_kind) : unit =
  edited fn;
  while Vec.length fn.instrs <= v do
    Vec.push fn.instrs None
  done;
  if Vec.get fn.instrs v <> None then
    invalid_arg (Printf.sprintf "Fn.add_instr_at: v%d already exists" v);
  Vec.set fn.instrs v (Some (new_instr v k));
  Instr.iter_operands (add_user fn v) k

let set_kind fn (v : vid) (k : instr_kind) =
  edited fn;
  let i = instr fn v in
  Instr.iter_operands (remove_user fn v) i.kind;
  i.kind <- k;
  Instr.iter_operands (add_user fn v) k

let set_phi_inputs fn (v : vid) (inputs : (bid * vid) list) =
  match kind fn v with
  | Phi { ty; _ } -> set_kind fn v (Phi { ty; inputs })
  | _ -> invalid_arg (Printf.sprintf "Fn.set_phi_inputs: v%d is not a phi" v)

(* Do two terminators lead to the same successor list? *)
let same_succs (a : terminator) (b : terminator) =
  match (a, b) with
  | Goto x, Goto y -> x = y
  | If { tb; fb; _ }, If { tb = tb'; fb = fb'; _ } -> tb = tb' && fb = fb'
  | (Return _ | Unreachable), (Return _ | Unreachable) -> true
  | _ -> false

let set_term fn (b : bid) (t : terminator) =
  let blk = block fn b in
  if same_succs blk.term t then edited fn else cfg_edited fn;
  iter_term_operand (remove_term_user fn b) blk.term;
  blk.term <- t;
  iter_term_operand (add_term_user fn b) t

let term fn (b : bid) = (block fn b).term

let succs_of_term = function
  | Goto b -> [ b ]
  | If { tb; fb; _ } -> [ tb; fb ]
  | Return _ | Unreachable -> []

let succs fn b = succs_of_term (term fn b)

(* ---------- placement ---------- *)

let place fn (b : bid) (vs : vid list) =
  edited fn;
  let blk = block fn b in
  List.iter
    (fun v ->
      let i = instr fn v in
      if i.block >= 0 then invalid_arg (Printf.sprintf "Fn.place: v%d is already placed" v);
      i.block <- b)
    vs;
  blk.instrs <- blk.instrs @ vs

let unplace fn (v : vid) =
  let i = instr fn v in
  if i.block >= 0 then begin
    edited fn;
    let blk = block fn i.block in
    blk.instrs <- List.filter (fun x -> x <> v) blk.instrs;
    i.block <- -1
  end

(* Appends a new instruction at the end of [b] and returns its id. *)
let append fn (b : bid) (k : instr_kind) : vid =
  let i = fresh_instr fn k in
  place fn b [ i.id ];
  i.id

(* Inserts a new instruction at the *start* of [b] (after any phis). *)
let prepend fn (b : bid) (k : instr_kind) : vid =
  let i = fresh_instr fn k in
  let blk = block fn b in
  let phis, rest =
    List.partition (fun v -> Instr.is_phi (kind fn v)) blk.instrs
  in
  blk.instrs <- phis @ (i.id :: rest);
  i.block <- b;
  i.id

(* Inserts a new instruction immediately before [before] in its block. *)
let insert_before fn ~(before : vid) (k : instr_kind) : vid =
  let b = block_of fn before in
  if b < 0 then
    invalid_arg (Printf.sprintf "Fn.insert_before: v%d not found in any block" before);
  let i = fresh_instr fn k in
  let blk = block fn b in
  blk.instrs <- List.concat_map (fun v -> if v = before then [ i.id; v ] else [ v ]) blk.instrs;
  i.block <- b;
  i.id

(* ---------- deletion ---------- *)

let tombstone fn (v : vid) =
  edited fn;
  let i = instr fn v in
  Instr.iter_operands (remove_user fn v) i.kind;
  i.block <- -1;
  Vec.set fn.instrs v None

let delete_instr fn (v : vid) =
  if instr_live fn v then begin
    unplace fn v;
    tombstone fn v
  end

(* Rebuilds only the lists of blocks that lose an instruction. *)
let delete_instrs fn (dead : vid -> bool) : int =
  let n = ref 0 in
  Vec.iter
    (function
      | Some (blk : block) when List.exists dead blk.instrs ->
          blk.instrs <-
            List.filter
              (fun v ->
                if dead v then begin
                  tombstone fn v;
                  incr n;
                  false
                end
                else true)
              blk.instrs
      | _ -> ())
    fn.blocks;
  !n

let delete_block fn (b : bid) =
  if block_live fn b then begin
    cfg_edited fn;
    let blk = block fn b in
    List.iter (tombstone fn) blk.instrs;
    iter_term_operand (remove_term_user fn b) blk.term;
    Vec.set fn.blocks b None
  end

(* ---------- rewriting uses ---------- *)

(* Replaces every use of [old_v] with [new_v], in instruction operands and
   in terminators (If conditions and Return values). *)
let replace_uses fn ~(old_v : vid) ~(new_v : vid) =
  ensure_users fn;
  match (live_instr fn old_v, live_instr fn new_v) with
  | Some o, Some n when old_v <> new_v ->
      edited fn;
      let subst v = if v = old_v then new_v else v in
      (* an instruction reading [old_v] twice is listed twice, adjacently *)
      let prev = ref (-1) in
      List.iter
        (fun u ->
          if u <> !prev then begin
            prev := u;
            let i = instr fn u in
            i.kind <- Instr.map_operands subst i.kind
          end)
        o.users;
      List.iter
        (fun b ->
          let blk = block fn b in
          match blk.term with
          | If ({ cond; _ } as r) when cond = old_v -> blk.term <- If { r with cond = new_v }
          | Return v when v = old_v -> blk.term <- Return new_v
          | _ -> ())
        o.term_users;
      n.users <- List.merge compare o.users n.users;
      n.term_users <- List.merge compare o.term_users n.term_users;
      o.users <- [];
      o.term_users <- []
  | _ -> ()

(* ---------- block surgery ---------- *)

(* Renames [old_pred] to [new_pred] in the phi edges of [b], keeping
   each phi's input order. *)
let rec has_edge p = function [] -> false | (pb, _) :: rest -> pb = p || has_edge p rest

let rec renamed ~old_pred ~new_pred = function
  | [] -> []
  | ((pb, pv) as e) :: rest ->
      (if pb = old_pred then (new_pred, pv) else e) :: renamed ~old_pred ~new_pred rest

let rename_pred fn (b : bid) ~(old_pred : bid) ~(new_pred : bid) =
  List.iter
    (fun v ->
      match kind fn v with
      | Phi { inputs; _ } when has_edge old_pred inputs ->
          set_phi_inputs fn v (renamed ~old_pred ~new_pred inputs)
      | _ -> ())
    (block fn b).instrs

(* Moves [src]'s terminator to [dst], leaving [src] with [Unreachable];
   phi edges of the successors are renamed accordingly. *)
let move_term fn ~(src : bid) ~(dst : bid) =
  let t = term fn src in
  set_term fn src Unreachable;
  set_term fn dst t;
  match t with
  | Goto s -> rename_pred fn s ~old_pred:src ~new_pred:dst
  | If { tb; fb; _ } ->
      rename_pred fn tb ~old_pred:src ~new_pred:dst;
      rename_pred fn fb ~old_pred:src ~new_pred:dst
  | Return _ | Unreachable -> ()

let split_block fn (v : vid) : bid =
  let b = block_of fn v in
  if b < 0 then invalid_arg (Printf.sprintf "Fn.split_block: v%d is not placed" v);
  let post = add_block fn in
  let blk = block fn b in
  let rec split acc = function
    | [] -> assert false
    | x :: rest when x = v -> (List.rev acc, x :: rest)
    | x :: rest -> split (x :: acc) rest
  in
  let before, after = split [] blk.instrs in
  blk.instrs <- before;
  (block fn post).instrs <- after;
  List.iter (fun x -> (instr fn x).block <- post) after;
  move_term fn ~src:b ~dst:post;
  set_term fn b (Goto post);
  post

let merge_blocks fn ~(pred : bid) ~(succ : bid) =
  let sblk = block fn succ in
  let moved = sblk.instrs in
  sblk.instrs <- [];
  List.iter (fun x -> (instr fn x).block <- pred) moved;
  let blk = block fn pred in
  blk.instrs <- blk.instrs @ moved;
  move_term fn ~src:succ ~dst:pred;
  delete_block fn succ

(* ---------- traversal ---------- *)

let iter_blocks f fn =
  Vec.iter (function Some blk -> f blk | None -> ()) fn.blocks

let iter_instrs f fn =
  let visit v = f (instr fn v) in
  iter_blocks (fun blk -> List.iter visit blk.instrs) fn

let fold_blocks f acc fn =
  Vec.fold_left (fun acc s -> match s with Some blk -> f acc blk | None -> acc) acc fn.blocks

let block_ids fn = fold_blocks (fun acc blk -> blk.b_id :: acc) [] fn |> List.rev

(* ---------- cached control-flow analyses ---------- *)

(* The analyses of the current graph, from the current entry. *)
let cfg fn =
  match fn.cfg with
  | Some c when c.cfg_entry = fn.entry -> c
  | _ ->
      let c = { cfg_entry = fn.entry; analyses = [] } in
      fn.cfg <- Some c;
      c

let cached fn ~(find : analysis -> 'a option) ~(wrap : 'a -> analysis) (build : fn -> 'a) : 'a =
  let c = cfg fn in
  match List.find_map find c.analyses with
  | Some a -> a
  | None ->
      let a = build fn in
      c.analyses <- wrap a :: c.analyses;
      a

type numbering = { order : bid array; index : int array }

type analysis += Preds of bid list array | Numbering of numbering

(* Predecessors by block id, ascending, one entry per edge. *)
let preds fn : bid list array =
  cached fn
    ~find:(function Preds p -> Some p | _ -> None)
    ~wrap:(fun p -> Preds p)
    (fun fn ->
      let p = Array.make (Vec.length fn.blocks) [] in
      for b = Vec.length fn.blocks - 1 downto 0 do
        match Vec.get fn.blocks b with
        | Some { term = Goto s; _ } -> p.(s) <- b :: p.(s)
        | Some { term = If { tb; fb; _ }; _ } ->
            p.(tb) <- b :: p.(tb);
            p.(fb) <- b :: p.(fb)
        | Some { term = Return _ | Unreachable; _ } | None -> ()
      done;
      p)

(* A depth-first walk from the entry, successors in [succs_of_term]'s
   order, numbers each block when it finishes; [index] holds -2 while a
   block is on the walk's path. Reversing the postorder numbers gives the
   positions. *)
let number fn : numbering =
  let n = Vec.length fn.blocks in
  let index = Array.make n (-1) and finished = ref 0 in
  let rec visit b =
    if index.(b) = -1 then begin
      index.(b) <- -2;
      (match (block fn b).term with
      | Goto s -> visit s
      | If { tb; fb; _ } ->
          visit tb;
          visit fb
      | Return _ | Unreachable -> ());
      index.(b) <- !finished;
      incr finished
    end
  in
  visit fn.entry;
  let count = !finished in
  let order = Array.make count 0 in
  for b = 0 to n - 1 do
    if index.(b) >= 0 then begin
      let i = count - 1 - index.(b) in
      order.(i) <- b;
      index.(b) <- i
    end
  done;
  { order; index }

let numbering fn : numbering =
  cached fn ~find:(function Numbering o -> Some o | _ -> None) ~wrap:(fun o -> Numbering o) number

let rpo fn = (numbering fn).order

let reachable fn : bid -> bool =
  let index = (numbering fn).index in
  fun b -> b >= 0 && b < Array.length index && index.(b) >= 0

(* Number of live instructions — the paper's |ir(n)| size metric. Block
   terminators count 1 each so that control flow is not free. *)
let size fn =
  let n = ref 0 in
  iter_blocks
    (fun blk ->
      n := !n + List.length blk.instrs + 1)
    fn;
  !n

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
   (including dead slots), so site keys and operand references stay valid.
   Kinds, terminators and the index's lists are immutable and shared. The
   copy starts with no cached analyses. *)
let copy fn =
  let copy_block (blk : block) = { blk with instrs = blk.instrs } in
  let copy_instr (i : instr) = { i with kind = i.kind } in
  {
    fname = fn.fname;
    param_tys = Array.copy fn.param_tys;
    spec_tys = Array.copy fn.spec_tys;
    rty = fn.rty;
    entry = fn.entry;
    blocks = Vec.map ~dummy:None (Option.map copy_block) fn.blocks;
    instrs = Vec.map ~dummy:None (Option.map copy_instr) fn.instrs;
    has_users = fn.has_users;
    cfg = None;
    prepared = fn.prepared;
  }
