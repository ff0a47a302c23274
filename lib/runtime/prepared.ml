(* Prepared code objects: the dense, pre-decoded form the execution engine
   actually runs (see docs/ARCHITECTURE.md, "Prepared code & dispatch
   caching").

   The direct interpreter walks the IR's persistent structures on every
   step: a Hashtbl register file, per-execution phi/non-phi partitioning of
   each block's instruction list, List.assoc phi-input resolution, and
   List.nth operand access. Preparation pays all of that once per function:

   - registers become two flat frames with one slot per value the body
     names, numbered densely (a compiled body's vid space is mostly holes
     left by the optimizer; [slots] maps vids to slots): Int and Bool
     values, by static type, get a slot in an [int array] frame, every
     other value one in a [value array] frame;
   - each block's leading phis are split from its body at prepare time,
     with phi inputs resolved per predecessor *edge* (the jump carries a
     precomputed edge index, so phi evaluation is two array reads);
   - instructions are decoded into flat arrays with operand registers,
     static cycle costs, and allocation shapes (field-default templates)
     baked in;
   - call arguments are [int array]s of the caller's slots, and [params]
     lists where each parameter lands, so a call copies its arguments
     straight into the callee's frames.

   Preparation changes *when* work happens, never *what* the program
   observes: output, result, simulated cycles, step counts and recorded
   profiles are identical to the direct interpreter (the differential
   suite in test/test_differential.ml enforces this).

   Its input is verified ([Ir.Verify.check]), well-typed IR, as the
   frontend and the compiler produce: preparation refuses an operand
   that names no instruction, a phi in the entry block, a phi after a
   non-phi, a phi whose input has another static type than the phi and
   a jump to a dead block, and [Interp]'s
   lowering refuses an op whose operands are in frames its type rules
   out, each with the one [ill_formed] trap, before any of the body
   runs. *)

open Ir.Types
open Values
module Vec = Support.Vec

(* Lazily-bound profile cells. Prepared code carries one holder per
   profiled event site (block entry, branch); the executing engine binds
   the holder to the profile's counter cell on first use and then records
   with a plain increment — no per-event key lookup. Holders belong to
   the code object, so they are dropped with it; [Interp] guards cached
   code by profile identity and generation, which keeps a bound cell from
   outliving the profile it counts into. *)
type cell_holder = { mutable cell : int ref option }
type brec_holder = { mutable brec : Profile.brec option }

(* Frame slots. A named value lives in one of two frames, chosen by its
   static type: Int and Bool values in the [int array] frame (a Bool as
   0/1), every other value in the [value array] frame. A slot is one
   [int]: [s >= 0] is value-frame slot [s]; int-frame slot [s] is encoded
   [lnot (2s)] for an Int and [lnot (2s + 1)] for a Bool; [none] marks an
   unnamed vid or a missing phi input. *)
let none = min_int

type kind = Kval | Kint | Kbool

let kind (s : int) : kind =
  if s >= 0 then Kval else if (lnot s) land 1 = 0 then Kint else Kbool

let index (s : int) : int = if s >= 0 then s else (lnot s) lsr 1

(* Pre-decoded instruction payload. Operands are encoded frame slots. *)
type pop =
  | Pconst of value
  | Pparam of int
  | Punop of unop * int
  | Pbinop of binop * int * int
  | Pcall of { callee : callee; cargs : int array; site : site; ic : Ic.t option }
      (* virtual calls carry a polymorphic inline cache; [None] for
         direct calls *)
  | Pnew of { cls : class_id; defaults : value array }
      (* [defaults] is the field-default template; allocation is an
         [Array.copy] (elements are immutable values, sharing is safe) *)
  | Pgetfield of { obj : int; slot : int; fname : string }
  | Psetfield of { obj : int; slot : int; fname : string; value : int }
  | Pnewarray of { ety : ty; len : int }
  | Parrayget of { arr : int; idx : int }
  | Parrayset of { arr : int; idx : int; value : int }
  | Parraylen of int
  | Ptypetest of { obj : int; cls : class_id }
  | Pintrinsic of intrinsic * int array

type pinstr = {
  dest : int;          (* frame slot receiving the result *)
  static_cost : int;   (* cycles charged besides the dispatch penalty *)
  op : pop;
}

(* Terminators carry dense block indices plus the precomputed edge index
   into the target's per-edge phi tables. *)
type pterm =
  | Pgoto of { target : int; edge : int }
  | Pif of {
      cond : int;
      site : site;
      tb : int;
      tedge : int;
      fb : int;
      fedge : int;
      bprof : brec_holder;    (* branch counters, bound on first record *)
    }
  | Preturn of int
  | Punreachable

type pblock = {
  src_bid : bid;               (* original id, for profiles and messages *)
  phi_dests : int array;       (* leading phis' slots, in block order *)
  phi_vids : int array;        (* original vids, for trap messages *)
  phi_srcs : int array array;  (* edge -> phi -> source slot, [none] = no input *)
  pred_bids : int array;       (* edge -> predecessor block id *)
  body : pinstr array;         (* non-phi instructions, in order *)
  term : pterm;
  term_cost : int;
  prof : cell_holder;          (* block counter, bound on first record *)
  mutable osr_skip : bool;
      (* the engine's OSR hook answered "never" for this block: stop
         consulting it (headers that can transfer keep [false]) *)
}

type code = {
  fname : string;
  nregs : int;          (* value-frame size *)
  nints : int;          (* int-frame size; [nregs + nints] vids are named *)
  slots : int array;    (* vid -> slot, [none] for a vid the body never names *)
  params : (int * int) array;  (* (parameter index, slot) per [Param] *)
  entry : int;          (* dense index of the entry block *)
  blocks : pblock array;
  ics : Ic.t array;     (* every inline cache in [blocks], decode order *)
}

let fname (c : code) = c.fname

(* The one trap for IR that breaks the contract preparation and lowering
   rely on (see the header), raised before any of the body runs. *)
let ill_formed (fname : string) fmt =
  Fmt.kstr (fun what -> trap "internal: ill-formed IR in %s: %s" fname what) fmt

(* ---------- translation ---------- *)

let decode_instr ~(cost : Cost.t) ~(ics : Ic.t list ref) ~(slot : vid -> int)
    (prog : program) (fn : fn) (i : instr) : pinstr =
  let sc = Cost.instr_cost cost i.kind in
  let op, sc =
    match Ir.Instr.map_operands slot i.kind with
    | Const (Cint n) -> (Pconst (Vint n), sc)
    | Const (Cbool b) -> (Pconst (Vbool b), sc)
    | Const (Cstring s) -> (Pconst (Vstr s), sc)
    | Const Cunit -> (Pconst Vunit, sc)
    | Const Cnull -> (Pconst Vnull, sc)
    | Param k -> (Pparam k, sc)
    | Unop (op, a) -> (Punop (op, a), sc)
    | Binop (op, a, b) -> (Pbinop (op, a, b), sc)
    | Phi _ -> ill_formed fn.fname "phi v%d after a non-phi" i.id
    | Call { callee; args; site; _ } ->
        let ic =
          match callee with
          | Virtual sel ->
              let ic = Ic.create ~site ~selector:sel in
              ics := ic :: !ics;
              Some ic
          | Direct _ -> None
        in
        (Pcall { callee; cargs = Array.of_list args; site; ic }, sc)
    | New c ->
        let layout = (Ir.Program.cls prog c).layout in
        ( Pnew
            { cls = c; defaults = Array.map (fun (_, t) -> default_value t) layout },
          (* the per-field allocation charge is statically known here *)
          sc + Cost.alloc_fields_cost cost (Array.length layout) )
    | GetField { obj; slot; fname; _ } -> (Pgetfield { obj; slot; fname }, sc)
    | SetField { obj; slot; fname; value } ->
        (Psetfield { obj; slot; fname; value }, sc)
    | NewArray { ety; len } -> (Pnewarray { ety; len }, sc)
    | ArrayGet { arr; idx; _ } -> (Parrayget { arr; idx }, sc)
    | ArraySet { arr; idx; value } -> (Parrayset { arr; idx; value }, sc)
    | ArrayLen a -> (Parraylen a, sc)
    | TypeTest { obj; cls } -> (Ptypetest { obj; cls }, sc)
    | Intrinsic (intr, args) -> (Pintrinsic (intr, Array.of_list args), sc)
  in
  { dest = slot i.id; static_cost = sc; op }

let prepare ~(cost : Cost.t) (prog : program) (fn : fn) : code =
  let ics : Ic.t list ref = ref [] in
  let nbids = Vec.length fn.blocks in
  (* dense indices for live blocks, in id order *)
  let index_of_bid = Array.make (max nbids 1) (-1) in
  let live = ref [] in
  Vec.iteri
    (fun b s -> match s with Some _ -> live := b :: !live | None -> ())
    fn.blocks;
  let live = List.rev !live in
  List.iteri (fun i b -> index_of_bid.(b) <- i) live;
  let nlive = List.length live in
  let index_of_target (b : bid) : int =
    if b >= 0 && b < nbids && index_of_bid.(b) >= 0 then index_of_bid.(b)
    else ill_formed fn.fname "jump to dead block b%d" b
  in
  (* predecessor edges per live block, in (source id, successor slot) order *)
  let preds = Array.make (max nlive 1) [] in
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          let i = index_of_target s in
          preds.(i) <- b :: preds.(i))
        (Ir.Fn.succs_of_term (Ir.Fn.block fn b).term))
    live;
  let pred_arrays = Array.map (fun l -> Array.of_list (List.rev l)) preds in
  (* dense frame slots, in first-mention order over the live blocks: every
     phi and instruction result, every operand (phi inputs included) and
     every terminator operand, each numbered in the frame of its static
     type (declared parameter types for [Param]; a vid whose instruction
     was deleted goes to the value frame) *)
  let slots = Array.make (Vec.length fn.instrs) none in
  let nregs = ref 0 and nints = ref 0 in
  let param_ty k = if k < Array.length fn.param_tys then fn.param_tys.(k) else Tunit in
  let name v =
    if v < 0 || v >= Array.length slots then
      ill_formed fn.fname "v%d names no instruction" v;
    if slots.(v) = none then
      let ty =
        match Vec.get fn.instrs v with
        | Some i -> Ir.Instr.result_ty ~param_ty i.kind
        | None -> Tunit
      in
      match ty with
      | Tint | Tbool ->
          slots.(v) <- lnot ((2 * !nints) + if ty = Tbool then 1 else 0);
          incr nints
      | _ ->
          slots.(v) <- !nregs;
          incr nregs
  in
  List.iter
    (fun b ->
      let blk = Ir.Fn.block fn b in
      List.iter
        (fun v ->
          name v;
          Ir.Instr.iter_operands name (Ir.Fn.kind fn v))
        blk.instrs;
      match blk.term with
      | If { cond = v; _ } | Return v -> name v
      | Goto _ | Unreachable -> ())
    live;
  let slot v = slots.(v) in
  (* [src] is a predecessor of the live block [target] *)
  let edge_of ~(target : bid) ~(src : bid) : int =
    let ps = pred_arrays.(index_of_bid.(target)) in
    let rec find i = if ps.(i) = src then i else find (i + 1) in
    find 0
  in
  let decode_block (b : bid) : pblock =
    let blk = Ir.Fn.block fn b in
    let rec split_phis acc = function
      | v :: rest -> (
          match Ir.Fn.kind fn v with
          | Phi { inputs; _ } -> split_phis ((v, inputs) :: acc) rest
          | _ -> (List.rev acc, v :: rest))
      | [] -> (List.rev acc, [])
    in
    let phis, non_phis = split_phis [] blk.instrs in
    (match phis with
    | (v, _) :: _ when b = fn.entry ->
        ill_formed fn.fname "phi v%d in the entry block" v
    | _ -> ());
    let my_preds = pred_arrays.(index_of_bid.(b)) in
    let nphis = List.length phis in
    let phi_dests = Array.make nphis 0 in
    let phi_vids = Array.make nphis 0 in
    List.iteri
      (fun i (v, _) ->
        phi_dests.(i) <- slot v;
        phi_vids.(i) <- v)
      phis;
    let phi_srcs =
      Array.map
        (fun p ->
          let row = Array.make nphis none in
          List.iteri
            (fun i (v, inputs) ->
              match List.assoc_opt p inputs with
              | Some pv ->
                  if kind (slot pv) <> kind (slot v) then
                    ill_formed fn.fname "phi v%d and its input v%d differ in type" v pv;
                  row.(i) <- slot pv
              | None -> ())
            phis;
          row)
        my_preds
    in
    let term, term_cost =
      match blk.term with
      | Goto b' ->
          ( Pgoto { target = index_of_target b'; edge = edge_of ~target:b' ~src:b },
            Cost.term_cost cost blk.term )
      | If { cond; site; tb; fb } ->
          ( Pif
              {
                cond = slot cond;
                site;
                tb = index_of_target tb;
                tedge = edge_of ~target:tb ~src:b;
                fb = index_of_target fb;
                fedge = edge_of ~target:fb ~src:b;
                bprof = { brec = None };
              },
            Cost.term_cost cost blk.term )
      | Return v -> (Preturn (slot v), Cost.term_cost cost blk.term)
      | Unreachable -> (Punreachable, Cost.term_cost cost blk.term)
    in
    {
      src_bid = b;
      phi_dests;
      phi_vids;
      phi_srcs;
      pred_bids = my_preds;
      body =
        Array.of_list
          (List.map
             (fun v -> decode_instr ~cost ~ics ~slot prog fn (Ir.Fn.instr fn v))
             non_phis);
      term;
      term_cost;
      prof = { cell = None };
      osr_skip = false;
    }
  in
  let live_blocks = List.map decode_block live in
  let params =
    List.concat_map
      (fun (b : pblock) ->
        Array.to_list b.body
        |> List.filter_map (fun pi ->
               match pi.op with Pparam k -> Some (k, pi.dest) | _ -> None))
      live_blocks
  in
  {
    fname = fn.fname;
    nregs = !nregs;
    nints = !nints;
    slots;
    params = Array.of_list params;
    entry = index_of_target fn.entry;
    blocks = Array.of_list live_blocks;
    ics = Array.of_list (List.rev !ics);
  }

(* ---------- superinstruction fusion ----------

   The threaded tier lowers each [pinstr] to one handler closure; a
   fusion plan partitions every block body into segments so that linear
   runs become a *single* fused handler (composed from the constituents'
   closures — see Interp). Planning is pure bookkeeping over the code:
   where the fusable runs are, and which op-sequence patterns were mined.
   Calls break a run (they re-enter the dispatch machinery anyway),
   everything else fuses. *)

(* Cap on constituents per superinstruction. *)
let max_fused_len = 8

(* Stable op mnemonic; fused patterns are these joined with ";". *)
let opkey (op : pop) : string =
  match op with
  | Pconst _ -> "const"
  | Pparam _ -> "param"
  | Punop (Neg, _) -> "neg"
  | Punop (Not, _) -> "not"
  | Pbinop (op, _, _) -> (
      match op with
      | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div"
      | Rem -> "rem" | Shl -> "shl" | Shr -> "shr" | Band -> "band"
      | Bor -> "bor" | Bxor -> "bxor" | Lt -> "lt" | Le -> "le"
      | Gt -> "gt" | Ge -> "ge" | Eq -> "eq" | Ne -> "ne"
      | Andb -> "andb" | Orb -> "orb" | Xorb -> "xorb" | Eqb -> "eqb")
  | Pcall _ -> "call"
  | Pnew _ -> "new"
  | Pgetfield _ -> "getfield"
  | Psetfield _ -> "setfield"
  | Pnewarray _ -> "newarray"
  | Parrayget _ -> "arrayget"
  | Parrayset _ -> "arrayset"
  | Parraylen _ -> "arraylen"
  | Ptypetest _ -> "typetest"
  | Pintrinsic _ -> "intrinsic"

(* Calls leave the block's straight line (frame build, tier dispatch,
   possibly recursion into this very code object), so they terminate a
   fusable run. *)
let fusable (op : pop) : bool = match op with Pcall _ -> false | _ -> true

type segment = { seg_start : int; seg_len : int }

type fusion_plan = {
  fp_segments : segment array array;
      (* per dense block index: an in-order partition of the body *)
  fp_patterns : (string * int) list;
      (* mined pattern -> fused sites, sorted by pattern for
         deterministic reporting *)
}

let pattern_of (body : pinstr array) (s : segment) : string =
  String.concat ";"
    (List.init s.seg_len (fun k -> opkey body.(s.seg_start + k).op))

(* Plans fusion for one code object: every block gets its maximal
   fusable runs chunked at [max_fused_len]; every chunk of length >= 2 is
   a fused site and is mined into [fp_patterns]. *)
let plan_fusion (c : code) : fusion_plan =
  let patterns : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let plan_block (b : pblock) : segment array =
    let body = b.body in
    let n = Array.length body in
    let segs = ref [] in
    let i = ref 0 in
    while !i < n do
      if not (fusable body.(!i).op) then begin
        segs := { seg_start = !i; seg_len = 1 } :: !segs;
        incr i
      end
      else begin
        (* maximal fusable run, then chunk it *)
        let j = ref !i in
        while !j < n && fusable body.(!j).op do incr j done;
        let k = ref !i in
        while !k < !j do
          let len = min max_fused_len (!j - !k) in
          let seg = { seg_start = !k; seg_len = len } in
          if len >= 2 then begin
            let p = pattern_of body seg in
            Hashtbl.replace patterns p
              (1 + Option.value ~default:0 (Hashtbl.find_opt patterns p))
          end;
          segs := seg :: !segs;
          k := !k + len
        done;
        i := !j
      end
    done;
    Array.of_list (List.rev !segs)
  in
  let fp_segments = Array.map plan_block c.blocks in
  {
    fp_segments;
    fp_patterns =
      Hashtbl.fold (fun p s acc -> (p, s) :: acc) patterns [] |> List.sort compare;
  }
