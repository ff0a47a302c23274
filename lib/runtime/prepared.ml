(* Prepared code objects: the dense, pre-decoded form the execution engine
   actually runs (see docs/ARCHITECTURE.md, "Prepared code & dispatch
   caching").

   The direct interpreter walks the IR's persistent structures on every
   step: a Hashtbl register file, per-execution phi/non-phi partitioning of
   each block's instruction list, List.assoc phi-input resolution, and
   List.nth operand access. Preparation pays all of that once per function:

   - registers become two flat frames, sized by liveness: Int and Bool
     values, by static type, live in an [int array] frame, every other
     value in a [value array] frame, and two values of one frame share a
     slot when neither is live where the other is defined ([slots] maps
     vids to slots; see "frame-slot allocation" below);
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
  mutable osr_skip : bool;
      (* the engine's OSR hook answered "never" for this block for good:
         stop consulting it *)
}

type code = {
  fname : string;
  nregs : int;          (* value-frame size: its most values live at once *)
  nints : int;          (* int-frame size, likewise *)
  slots : int array;    (* vid -> slot, [none] for a vid the body never names *)
  params : (int * int) array;  (* (parameter index, slot) per [Param] *)
  entry : int;          (* dense index of the entry block *)
  blocks : pblock array;
}

let fname (c : code) = c.fname

(* The one trap for IR that breaks the contract preparation and lowering
   rely on (see the header), raised before any of the body runs. *)
let ill_formed (fname : string) fmt =
  Fmt.kstr (fun what -> trap "internal: ill-formed IR in %s: %s" fname what) fmt

(* ---------- translation ---------- *)

let decode_instr ~(cost : Cost.t) ~(ic_stat : site -> string -> Ic.stat)
    ~(slot : vid -> int) (prog : program) (fn : fn) (i : instr) : pinstr =
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
          | Virtual sel -> Some (Ic.create (ic_stat site sel))
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

(* ---------- frame-slot allocation ----------

   Two values of one frame share a slot when neither is live where the
   other is defined. Liveness is computed on the blocks a path from the
   entry reaches, by path exploration as SSA allows (Brandner et al.,
   "Computing Liveness Sets for SSA-Form Programs", INRIA RR-7503, 2011):
   from each block that reads a value before defining it, and from each
   predecessor a phi input comes from, walk back over the predecessors up
   to the value's definition. A phi is defined at its block's entry and
   its input is live out of the predecessor it comes from. The sets cost
   memory in proportion to what is live, not to blocks times values. One
   scan over the definitions in reverse postorder then gives each value a
   slot of its frame that no value live at its definition holds, the
   lowest one unless a phi preference below applies. In strict SSA every
   value live at a definition was defined on the way there, so the scan
   needs no interference graph and uses as many slots per frame as the
   most values of that frame live at one point (Hack, Grund & Goos,
   "Register Allocation for Programs in SSA-Form", CC 2006).

   - Parameters are written when the frame is built, before the entry
     block, and a loop may come back into the entry block, where [Pparam]
     does nothing. So a [Param] kills nothing: every parameter is defined
     at the frame's build, with the other parameters, and lives up to its
     last use on any path.
   - A definition nobody reads still writes its slot: it takes a slot no
     live value holds, free again right after.
   - A phi prefers the slot of an input already placed, and a back edge's
     input, placed after its phi, prefers the phi's slot; lowering drops
     the copy of a slot onto itself.
   - Blocks no path from the entry reaches never run: their values get
     slot 0 of their frame after the scan, as does a value that IR which
     is not strict SSA uses where it was never defined, so every slot is
     inside its frame. *)

(* A bitset of value numbers. *)
let bits = Sys.int_size

let mem (s : int array) (i : int) : bool =
  (Array.unsafe_get s (i / bits) lsr (i mod bits)) land 1 <> 0

let add (s : int array) (i : int) : unit =
  let j = i / bits in
  Array.unsafe_set s j (Array.unsafe_get s j lor (1 lsl (i mod bits)))

let remove (s : int array) (i : int) : unit =
  let j = i / bits in
  Array.unsafe_set s j (Array.unsafe_get s j land lnot (1 lsl (i mod bits)))

(* The (key, item) pairs [fill] passes to its argument, keys below [n],
   grouped by key in one flat array: key [k]'s items are
   [items.(start.(k)) .. items.(start.(k + 1) - 1)]. [fill] runs twice,
   to count and then to place, and must pass the same pairs both times.
   Returns [(start, items)]. *)
let group (n : int) (fill : (int -> int -> unit) -> unit) : int array * int array =
  let start = Array.make (n + 1) 0 in
  fill (fun k _ -> start.(k) <- start.(k) + 1);
  for k = 1 to n do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  let items = Array.make start.(n) 0 in
  fill (fun k x ->
      start.(k) <- start.(k) - 1;
      items.(start.(k)) <- x);
  (start, items)

(* The slot of every value number [n] in its frame [frame.(n)] (0 the
   value frame, 1 the int frame), and the two frames' sizes. [num] maps a
   vid to its value number; the arrays are indexed by dense block. *)
let allocate (fn : fn) ~(num : int array) ~(frame : int array) ~(blocks : bid array)
    ~(entry : int) ~(succs : int array array) ~(phis : vid array array)
    ~(body : vid array array) : int array * int * int =
  let nv = Array.length frame and nb = Array.length blocks in
  let w = (nv + bits - 1) / bits in
  (* postorder of the blocks the entry reaches; [mark.(b) = -2] says
     [b] is reached, until the live-in walks below stamp it *)
  let post = Array.make nb 0 and npost = ref 0 and mark = Array.make nb (-1) in
  let rec dfs b =
    mark.(b) <- -2;
    Array.iter (fun s -> if mark.(s) <> -2 then dfs s) succs.(b);
    post.(!npost) <- b;
    incr npost
  in
  dfs entry;
  let npost = !npost in
  let term_use b =
    match (Ir.Fn.block fn blocks.(b)).term with
    | If { cond = v; _ } | Return v -> num.(v)
    | Goto _ | Unreachable -> -1
  in
  (* the one bitset of values the scan walks blocks with; every block
     leaves it empty *)
  let cur = Array.make w 0 in
  (* Walks block [b] backward from [cur] (what is live out of it) to what
     is live into it. [dies n k]: [n] is dead after its use at body
     position [k]; [dead n]: nobody reads the definition [n]. *)
  let walk_back b ~dies ~dead =
    let is = body.(b) in
    let k = ref 0 in
    let use v =
      let n = num.(v) in
      if not (mem cur n) then begin
        dies n !k;
        add cur n
      end
    in
    let def n = if mem cur n then remove cur n else dead n in
    let t = term_use b in
    if t >= 0 && not (mem cur t) then add cur t;
    for i = Array.length is - 1 downto 0 do
      let v = is.(i) in
      match Ir.Fn.kind fn v with
      | Param _ -> ()
      | kd ->
          def num.(v);
          k := i;
          Ir.Instr.iter_operands use kd
    done;
    let ps = phis.(b) in
    for i = 0 to Array.length ps - 1 do
      def num.(ps.(i))
    done
  in
  (* where each value is defined, -1 for a parameter (defined at the
     frame's build) and for a value no reached block defines: at
     [b * span] for a phi of block [b] and at [b * span + k + 1] for
     body position [k], so [def_at.(n) / span] is the defining block *)
  let span = 1 + Array.fold_left (fun m is -> max m (Array.length is)) 0 body in
  let def_at = Array.make nv (-1) in
  for i = 0 to npost - 1 do
    let b = post.(i) in
    let ps = phis.(b) and is = body.(b) in
    for k = 0 to Array.length ps - 1 do
      def_at.(num.(ps.(k))) <- b * span
    done;
    for k = 0 to Array.length is - 1 do
      match Ir.Fn.kind fn is.(k) with
      | Param _ -> ()
      | _ -> def_at.(num.(is.(k))) <- (b * span) + k + 1
    done
  done;
  let defined_in n b = def_at.(n) >= b * span && def_at.(n) < (b + 1) * span in
  (* [f x] on the input of each phi of [b]'s successors that comes from
     [b], the values [b] sends along its out-edges *)
  let iter_sent f b =
    let ss = succs.(b) in
    for j = 0 to Array.length ss - 1 do
      let ps = phis.(ss.(j)) in
      for k = 0 to Array.length ps - 1 do
        match Ir.Fn.kind fn ps.(k) with
        | Phi { inputs; _ } -> (
            match List.assoc_opt blocks.(b) inputs with
            | Some x -> f num.(x)
            | None -> ())
        | _ -> ()
      done
    done
  in
  (* the reached predecessors of each reached block *)
  let pstart, pred =
    group nb (fun f ->
        for i = 0 to npost - 1 do
          let ss = succs.(post.(i)) in
          for j = 0 to Array.length ss - 1 do
            f ss.(j) post.(i)
          done
        done)
  in
  (* where each value's walks start: [f n b] for each block [b] that
     reads [n] before defining it, or sends it to a phi without defining
     it *)
  let emit = ref (fun _ _ -> ()) and blk = ref 0 and pos = ref 0 in
  let on_use u =
    let d = def_at.(num.(u)) and at = !blk * span in
    if d < at || d > at + !pos then !emit num.(u) !blk
  and on_sent n = if not (defined_in n !blk) then !emit n !blk in
  let iter_seeds f =
    emit := f;
    for i = 0 to npost - 1 do
      let b = post.(i) in
      blk := b;
      let is = body.(b) in
      for k = 0 to Array.length is - 1 do
        match Ir.Fn.kind fn is.(k) with
        | Param _ -> ()
        | kd ->
            pos := k;
            Ir.Instr.iter_operands on_use kd
      done;
      let t = term_use b in
      if t >= 0 && not (defined_in t b) then f t b;
      iter_sent on_sent b
    done
  in
  let sstart, sblk = group nv iter_seeds in
  (* [f b n] for each value [n] live into block [b]: one value at a
     time, a walk back from its seeds over the reached predecessors that
     stops at its definition; [mark.(b) = stamp + n] says [b] has it *)
  let stack = Array.make nb 0 and stamp = ref 0 in
  let iter_live_ins f =
    let sp = ref 0 in
    for n = 0 to nv - 1 do
      let s = !stamp + n and d = if def_at.(n) < 0 then -1 else def_at.(n) / span in
      for k = sstart.(n) to sstart.(n + 1) - 1 do
        let b = sblk.(k) in
        if mark.(b) <> s then begin
          mark.(b) <- s;
          f b n;
          stack.(!sp) <- b;
          incr sp
        end
      done;
      while !sp > 0 do
        decr sp;
        let b = stack.(!sp) in
        for j = pstart.(b) to pstart.(b + 1) - 1 do
          let p = pred.(j) in
          if p <> d && mark.(p) <> s then begin
            mark.(p) <- s;
            f p n;
            stack.(!sp) <- p;
            incr sp
          end
        done
      done
    done;
    stamp := !stamp + nv
  in
  let lstart, lin = group nb iter_live_ins in
  (* the scan *)
  let color = Array.make nv (-1) in
  let count = [| 0; 0 |] and busy = [| Array.make nv false; Array.make nv false |] in
  (* a slot for [n]: [pref] if free, else the lowest free one *)
  let place n ~pref =
    let f = frame.(n) in
    let bf = busy.(f) in
    let s =
      if pref >= 0 && not bf.(pref) then pref
      else begin
        let s = ref 0 in
        while !s < count.(f) && bf.(!s) do incr s done;
        !s
      end
    in
    if s = count.(f) then count.(f) <- s + 1;
    color.(n) <- s;
    bf.(s) <- true
  in
  let hold n = if color.(n) >= 0 then busy.(frame.(n)).(color.(n)) <- true in
  let free n = if color.(n) >= 0 then busy.(frame.(n)).(color.(n)) <- false in
  (* [m]'s slot, when [m] is placed in [n]'s frame *)
  let slot_for n m =
    if m >= 0 && color.(m) >= 0 && frame.(m) = frame.(n) then color.(m) else -1
  in
  let hint = Array.make nv (-1) in
  (* the frame's build *)
  Array.iter
    (fun is ->
      Array.iter
        (fun v -> match Ir.Fn.kind fn v with Param _ -> place num.(v) ~pref:(-1) | _ -> ())
        is)
    body;
  (* where each value dies in the block being scanned: after its use at
     body position [die_pos], or right after its definition (-1) *)
  let die_blk = Array.make nv (-1) and die_pos = Array.make nv 0 in
  let dies n k =
    die_blk.(n) <- !blk;
    die_pos.(n) <- k
  and dead n =
    die_blk.(n) <- !blk;
    die_pos.(n) <- -1
  in
  let live_out n = add cur n in
  for i = npost - 1 downto 0 do
    let b = post.(i) in
    blk := b;
    Array.fill busy.(0) 0 count.(0) false;
    Array.fill busy.(1) 0 count.(1) false;
    for j = lstart.(b) to lstart.(b + 1) - 1 do
      hold lin.(j)
    done;
    (* what is live out of [b]: into its successors, and its phi inputs *)
    let ss = succs.(b) in
    for k = 0 to Array.length ss - 1 do
      for j = lstart.(ss.(k)) to lstart.(ss.(k) + 1) - 1 do
        add cur lin.(j)
      done
    done;
    iter_sent live_out b;
    walk_back b ~dies ~dead;
    (* [walk_back] left [cur] holding what is live into [b] *)
    for j = lstart.(b) to lstart.(b + 1) - 1 do
      remove cur lin.(j)
    done;
    Array.iter
      (fun p ->
        let n = num.(p) in
        match Ir.Fn.kind fn p with
        | Phi { inputs; _ } ->
            place n
              ~pref:
                (List.fold_left
                   (fun pref (_, x) ->
                     let s = slot_for n num.(x) in
                     if pref < 0 && s >= 0 && not busy.(frame.(n)).(s) then s else pref)
                   (-1) inputs);
            List.iter
              (fun (_, x) ->
                let m = num.(x) in
                if color.(m) < 0 && hint.(m) < 0 then hint.(m) <- n)
              inputs
        | _ -> ())
      phis.(b);
    Array.iter
      (fun p -> if die_blk.(num.(p)) = b && die_pos.(num.(p)) < 0 then free num.(p))
      phis.(b);
    Array.iteri
      (fun k v ->
        match Ir.Fn.kind fn v with
        | Param _ -> ()
        | kd ->
            Ir.Instr.iter_operands
              (fun u ->
                let m = num.(u) in
                if die_blk.(m) = b && die_pos.(m) = k then free m)
              kd;
            let n = num.(v) in
            place n ~pref:(slot_for n hint.(n));
            if die_blk.(n) = b && die_pos.(n) < 0 then free n)
      body.(b)
  done;
  Array.iteri
    (fun n c ->
      if c < 0 then begin
        color.(n) <- 0;
        count.(frame.(n)) <- max 1 count.(frame.(n))
      end)
    color;
  (color, count.(0), count.(1))

let prepare ~(cost : Cost.t) ~(ic_stat : site -> string -> Ic.stat) (prog : program)
    (fn : fn) : code =
  let nbids = Vec.length fn.blocks in
  (* dense indices for live blocks, in id order *)
  let index_of_bid = Array.make (max nbids 1) (-1) in
  let live = ref [] in
  Vec.iteri
    (fun b s -> match s with Some _ -> live := b :: !live | None -> ())
    fn.blocks;
  let live = Array.of_list (List.rev !live) in
  Array.iteri (fun i b -> index_of_bid.(b) <- i) live;
  let nlive = Array.length live in
  let index_of_target (b : bid) : int =
    if b >= 0 && b < nbids && index_of_bid.(b) >= 0 then index_of_bid.(b)
    else ill_formed fn.fname "jump to dead block b%d" b
  in
  let succs =
    Array.map
      (fun b ->
        Array.of_list
          (List.map index_of_target (Ir.Fn.succs_of_term (Ir.Fn.block fn b).term)))
      live
  in
  (* predecessor edges per live block, in (source id, successor slot) order *)
  let preds = Array.make (max nlive 1) [] in
  Array.iteri
    (fun i ss -> Array.iter (fun s -> preds.(s) <- live.(i) :: preds.(s)) ss)
    succs;
  let pred_arrays = Array.map (fun l -> Array.of_list (List.rev l)) preds in
  (* each live block's leading phis, and the rest of its instructions *)
  let phis = Array.make nlive [||] and body = Array.make nlive [||] in
  Array.iteri
    (fun i b ->
      let rec split acc = function
        | v :: rest when Ir.Instr.is_phi (Ir.Fn.kind fn v) -> split (v :: acc) rest
        | rest -> (acc, rest)
      in
      let ps, rest = split [] (Ir.Fn.block fn b).instrs in
      phis.(i) <- Array.of_list (List.rev ps);
      body.(i) <- Array.of_list rest)
    live;
  (* value numbers, in first-mention order over the live blocks: every
     phi and instruction result, every operand (phi inputs included) and
     every terminator operand, each with the frame of its static type
     (declared parameter types for [Param]; a vid whose instruction was
     deleted goes to the value frame) *)
  let nvid = Vec.length fn.instrs in
  let num = Array.make nvid (-1) in
  let vid_of = Array.make nvid 0 and vty = Array.make nvid Kval and nv = ref 0 in
  let param_ty k = if k < Array.length fn.param_tys then fn.param_tys.(k) else Tunit in
  let name v =
    if v < 0 || v >= nvid then ill_formed fn.fname "v%d names no instruction" v;
    if num.(v) < 0 then begin
      let ty =
        match Vec.get fn.instrs v with
        | Some i -> Ir.Instr.result_ty ~param_ty i.kind
        | None -> Tunit
      in
      num.(v) <- !nv;
      vid_of.(!nv) <- v;
      vty.(!nv) <- (match ty with Tint -> Kint | Tbool -> Kbool | _ -> Kval);
      incr nv
    end
  in
  Array.iteri
    (fun i b ->
      let name_instr v =
        name v;
        Ir.Instr.iter_operands name (Ir.Fn.kind fn v)
      in
      Array.iter name_instr phis.(i);
      Array.iter name_instr body.(i);
      match (Ir.Fn.block fn b).term with
      | If { cond = v; _ } | Return v -> name v
      | Goto _ | Unreachable -> ())
    live;
  let entry = index_of_target fn.entry in
  let frame = Array.init !nv (fun n -> if vty.(n) = Kval then 0 else 1) in
  let color, nregs, nints =
    allocate fn ~num ~frame ~blocks:live ~entry ~succs ~phis ~body
  in
  let slots = Array.make nvid none in
  Array.iteri
    (fun n c ->
      slots.(vid_of.(n)) <-
        (match vty.(n) with Kval -> c | Kint -> lnot (2 * c) | Kbool -> lnot ((2 * c) + 1)))
    color;
  let slot v = slots.(v) in
  (* [src] is a predecessor of the live block [target] *)
  let edge_of ~(target : bid) ~(src : bid) : int =
    let ps = pred_arrays.(index_of_bid.(target)) in
    let rec find i = if ps.(i) = src then i else find (i + 1) in
    find 0
  in
  let decode_block (bi : int) (b : bid) : pblock =
    let blk = Ir.Fn.block fn b in
    let phis = phis.(bi) in
    if b = fn.entry && Array.length phis > 0 then
      ill_formed fn.fname "phi v%d in the entry block" phis.(0);
    let my_preds = pred_arrays.(bi) in
    let nphis = Array.length phis in
    let phi_srcs =
      Array.map
        (fun p ->
          let row = Array.make nphis none in
          Array.iteri
            (fun i v ->
              match Ir.Fn.kind fn v with
              | Phi { inputs; _ } -> (
                  match List.assoc_opt p inputs with
                  | Some pv ->
                      if kind (slot pv) <> kind (slot v) then
                        ill_formed fn.fname "phi v%d and its input v%d differ in type" v pv;
                      row.(i) <- slot pv
                  | None -> ())
              | _ -> ())
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
              },
            Cost.term_cost cost blk.term )
      | Return v -> (Preturn (slot v), Cost.term_cost cost blk.term)
      | Unreachable -> (Punreachable, Cost.term_cost cost blk.term)
    in
    {
      src_bid = b;
      phi_dests = Array.map slot phis;
      phi_vids = phis;
      phi_srcs;
      pred_bids = my_preds;
      body =
        Array.map
          (fun v -> decode_instr ~cost ~ic_stat ~slot prog fn (Ir.Fn.instr fn v))
          body.(bi);
      term;
      term_cost;
      osr_skip = false;
    }
  in
  let blocks = Array.mapi decode_block live in
  let params =
    Array.fold_right
      (fun (b : pblock) acc ->
        Array.fold_right
          (fun pi acc -> match pi.op with Pparam k -> (k, pi.dest) :: acc | _ -> acc)
          b.body acc)
      blocks []
  in
  {
    fname = fn.fname;
    nregs;
    nints;
    slots;
    params = Array.of_list params;
    entry;
    blocks;
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
