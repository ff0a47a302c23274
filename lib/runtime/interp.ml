(* The SelVM execution engine: runs method bodies in either tier and
   doubles as the "compiled code" executor.

   The same evaluator runs both tiers; the [mode] controls (a) the
   per-instruction dispatch penalty from the cost model and (b) whether
   profiles are collected — interpreted code profiles (like the HotSpot
   interpreter / C1), compiled code does not (like C2/Graal code).

   Two execution backends implement identical observable semantics:

   - [Threaded] (default): a method's current body is translated once
     into a dense [Prepared.code] object — flat register frames, Int and
     Bool values unboxed in their own, edge-resolved phis, pre-decoded
     instructions — and lowered once, into the method's code slot, as
     direct-threaded handler closures specialized for those frames, with
     superinstruction fusion. This is the production path. It runs
     verified, well-typed IR only and refuses any other body before it
     runs (see prepared.mli).
   - [Reference]: the original direct IR walker, kept as the executable
     specification the differential suite checks the threaded engine
     against (test/test_differential.ml). It stays permissive: it runs
     ill-typed IR up to the trap the ill-typed op raises.

   Code-slot coherence: a slot holds the entry lowered from the body its
   method's calls run now, and nothing re-checks that per call, because
   nothing changes that body or the counters behind the slot without
   emptying it: [set_installed] is the one writer of installed code and
   empties the slot; [Ir.Program.set_body] only fills an empty body; and
   [vm.profiles], whose counter cells an entry binds, is never replaced
   or cleared. The next call fills an empty slot.

   The VM connects to the JIT engine without a dependency cycle through
   one table and one hook: [installed] holds each method's compiled code
   (written only by [set_installed]), and [on_entry] fires at every
   method entry so the engine can detect hotness and trigger
   compilation. *)

open Ir.Types
open Values

type mode = Interpreted | Compiled

type backend = Threaded | Reference

(* On-stack replacement. The engine (not the runtime) owns the policy;
   the backends only provide checkpoints at loop headers:

   - Enter (interpreted frames): once a block's execution counter crosses
     [vm.osr_threshold], the backend consults [vm.on_osr]. [Osr_enter]
     hands back a transfer: the target method is the extracted loop
     continuation ([Ir.Osr]), and the vid arrays are the frame mapping —
     the backend reads exactly those slots (live-ins, then the
     loop-carried phi values current after this header's phi moves), in
     order, as the continuation's arguments. The transfer is one-way: the
     continuation's result is the activation's result.
   - Exit (compiled frames): at a loop header, a frame whose code is no
     longer its method's installed code consults [vm.on_osr_exit], which
     hands back a transfer into an interpreted continuation of the stale
     body (same frame-mapping contract) or [None]: keep running it. A
     retired body is never installed again, so the threaded guard takes
     a [None] as final (the block's [osr_skip]). *)
type osr_transfer = {
  osr_target : meth_id;
  osr_live_ins : vid array;
  osr_phis : vid array;
}

type osr_verdict = Osr_no | Osr_wait | Osr_enter of osr_transfer

(* Threaded-tier activation state: the only values a handler closure
   cannot capture at lowering time (they are per-call, the closures are
   per-method). Everything else — operand slots, static costs, profile
   cells, jump targets as pc indices — lives in the closure
   environments. The two frames follow [Prepared]'s slot encoding: Int
   and Bool values unboxed in [t_ints], the rest in [t_frame]. A record
   belongs to a call depth ([vm.frames]) and is reused by every threaded
   activation at that depth; its frames grow, never shrink. *)
type tstate = { mutable t_frame : value array; mutable t_ints : int array }

type thandler = tstate -> value
(* A handler executes one pre-decoded instruction (or one fused
   superinstruction) and tail-calls the next handler directly — the
   classic direct-threading transition, with OCaml's guaranteed tail-call
   elimination standing in for computed goto — so every handler returns
   the activation's value: the method-return handler returns its
   operand, an OSR transfer the continuation's result, and the tail
   calls carry it back through the (frameless) chain unchanged. *)

type tcode = {
  t_handlers : thandler array;
  t_entry : int;
  t_nregs : int;
  t_nints : int;
  t_params : int array;  (* [Prepared.code.params], flattened *)
  t_fname : string;
}

(* The content of a method's code slot: the body it was lowered from
   ([src]: the installed code, or the program body when there is none),
   prepared and lowered once, with fusion planned over every block. *)
type prepared_entry = {
  src : fn;
  inv : int ref;
      (* the method's invocation cell in [vm.profiles]; for a compiled
         entry, which does not profile, a private cell nothing reads *)
  tcode : tcode;
}

(* The dispatch counters of one call site, which every inline cache
   lowered for the site counts into. *)
type ic_stat = Ic.stat = {
  st_site : site;
  st_selector : string;
  mutable st_hits : int;
  mutable st_misses : int;
  mutable st_mega : int;
}

(* Accumulated mining results of one superinstruction pattern, summed
   over every threaded lowering this VM performed. *)
type sstat = {
  ss_pattern : string;
  mutable ss_sites : int;  (* fused sites emitted *)
}

type vm = {
  prog : program;
  profiles : Profile.t;
  cost : Cost.t;
  out : Buffer.t;
  mutable cycles : int;          (* simulated execution clock *)
  mutable installed : fn option array;
      (* installed compiled code per method, a dense array indexed by
         meth_id and written only by [set_installed] *)
  mutable on_entry : meth_id -> unit;
  (* fired when compiled code reaches the residual virtual call of a
     typeswitch (a synthetic site): the speculation missed *)
  mutable on_spec_miss : meth_id -> site -> unit;
  (* --- on-stack replacement (policy lives in [Jit.Engine]) --- *)
  mutable osr_threshold : int;
      (* block count at which an interpreted frame consults [on_osr];
         [max_int] (the default) disables the enter checkpoints and the
         compiled tier's exit guards *)
  mutable on_osr : meth_id -> bid -> osr_verdict;
  mutable osr_headers : meth_id -> fn -> bid -> bool;
      (* lowering-time filter: which blocks get checkpoint guards in the
         threaded tier (loop headers only, so straight-line code and
         non-header blocks pay nothing per entry) *)
  mutable on_osr_exit : meth_id -> fn -> bid -> osr_transfer option;
      (* asked at a loop header by a compiled frame whose code is stale *)
  mutable on_osr_abort : meth_id -> unit;
      (* a trap is unwinding out of an entered OSR continuation *)
  mutable steps : int;
  mutable max_steps : int;
  mutable depth : int;
  max_depth : int;
  mutable frames : tstate array;
      (* the activation record of each call depth (index 0 unused): every
         threaded activation at depth [d] runs in [frames.(d)] *)
  mutable frames_used : int;
      (* records 1 .. [frames_used] may hold values of the current run;
         released when it returns to depth 0 *)
  mutable backend : backend;
  mutable code : prepared_entry option array;
      (* the code slot of each method, indexed by meth_id: the threaded
         entry of the body a call runs now, or [None] until the next call
         lowers it. A threaded call reads it once; [set_installed] empties
         it. *)
  ic_sites : (site, ic_stat) Hashtbl.t;
      (* the counters of each call site an inline cache was lowered for *)
  mutable attrib : Attribution.t option;
      (* per-method cycle attribution; None (default) costs nothing *)
  superinst : (string, sstat) Hashtbl.t;
      (* mined pattern table, accumulated across threaded lowerings *)
}

let create ?(max_steps = 500_000_000) ?(backend = Threaded) (prog : program) :
    vm =
  {
    prog;
    profiles = Profile.create ();
    cost = Cost.default;
    out = Buffer.create 256;
    cycles = 0;
    installed = Array.make (max 16 (Ir.Program.num_meths prog)) None;
    on_entry = (fun _ -> ());
    on_spec_miss = (fun _ _ -> ());
    osr_threshold = max_int;
    on_osr = (fun _ _ -> Osr_no);
    osr_headers = (fun _ _ _ -> false);
    on_osr_exit = (fun _ _ _ -> None);
    on_osr_abort = (fun _ -> ());
    steps = 0;
    max_steps;
    depth = 0;
    max_depth = 10_000;
    frames = [||];
    frames_used = 0;
    backend;
    code = Array.make (max 16 (Ir.Program.num_meths prog)) None;
    ic_sites = Hashtbl.create 16;
    attrib = None;
    superinst = Hashtbl.create 16;
  }

let output vm = Buffer.contents vm.out

let enable_attribution (vm : vm) : Attribution.t =
  match vm.attrib with
  | Some a -> a
  | None ->
      let a = Attribution.create () in
      vm.attrib <- Some a;
      a

let record_deopt (vm : vm) (m : meth_id) : unit =
  match vm.attrib with Some a -> Attribution.record_deopt a m | None -> ()

let record_evict (vm : vm) (m : meth_id) : unit =
  match vm.attrib with Some a -> Attribution.record_evict a m | None -> ()

let charge vm n = vm.cycles <- vm.cycles + n

(* [a] grown (doubling) so that index [m] is valid: methods can be added
   after the VM was created (OSR continuations, tests). *)
let grown (a : 'a option array) (m : meth_id) : 'a option array =
  let n = Array.length a in
  if m < n then a
  else
    let a' = Array.make (max (m + 1) (2 * n)) None in
    Array.blit a 0 a' 0 n;
    a'

(* The counters of [site], created when a cache is first lowered for
   it. *)
let site_stat (vm : vm) (site : site) (selector : string) : ic_stat =
  match Hashtbl.find_opt vm.ic_sites site with
  | Some st -> st
  | None ->
      let st =
        { st_site = site; st_selector = selector; st_hits = 0; st_misses = 0; st_mega = 0 }
      in
      Hashtbl.replace vm.ic_sites site st;
      st

let installed (vm : vm) (m : meth_id) : fn option =
  let c = vm.installed in
  if m < Array.length c then c.(m) else None

(* The one writer of installed code. The body a call of [m] runs changed,
   so [m]'s code slot is emptied. *)
let set_installed (vm : vm) (m : meth_id) (code : fn option) : unit =
  vm.installed <- grown vm.installed m;
  vm.installed.(m) <- code;
  if m < Array.length vm.code then vm.code.(m) <- None

(* ---------- superinstruction bookkeeping ---------- *)

let note_superinst (vm : vm) (pattern : string) ~(sites : int) : unit =
  match Hashtbl.find_opt vm.superinst pattern with
  | Some s -> s.ss_sites <- s.ss_sites + sites
  | None ->
      Hashtbl.replace vm.superinst pattern { ss_pattern = pattern; ss_sites = sites }

(* The mined pattern table, sorted by pattern — a deterministic function
   of the program and workload (counts accumulate over every threaded
   lowering, including those of recompiled or invalidated methods). *)
let superinst_stats (vm : vm) : sstat list =
  Hashtbl.fold (fun _ s acc -> s :: acc) vm.superinst []
  |> List.sort (fun a b -> compare a.ss_pattern b.ss_pattern)

(* Shared Vbool results (structurally compared everywhere, so interning
   is unobservable); saves an allocation per comparison in the threaded
   tier. *)
let vtrue = Vbool true
let vfalse = Vbool false
let vbool b = if b then vtrue else vfalse

(* Ints are boxed only where they leave the threaded frames (returns,
   heap stores, OSR reads, reference-walker arguments), and boxing
   shares one [Vint] per value in -128..1023, the range most such Ints
   fall in. Ints compare structurally everywhere ([value_eq]), so
   sharing is unobservable. *)
let small_ints = Array.init 1152 (fun i -> Vint (i - 128))

let box_int (n : int) : value =
  let i = n + 128 in
  if i >= 0 && i < 1152 then Array.unsafe_get small_ints i else Vint n

(* Run-time access to a named slot. These decode [Prepared]'s slot
   encoding inline — [s >= 0] is in the value frame, otherwise int-frame
   slot [(lnot s) lsr 1], a Bool when [(lnot s) land 1 = 1] — rather than
   by matching on [Prepared.kind]: even inlined, that match tests the
   slot to build the constructor and then branches on the constructor,
   and [Prepared.index] tests the sign again. These run at every
   argument copy; decoded through [kind]/[index], interp-only's wall
   time over layouts rose 5.0%, losing 10 of 10 rounds of
   [bench/main.exe layout] by a gap wider than layout alone moved
   either build (2-vCPU x86-64). *)

(* A slot read as a value, boxing an int-frame slot. *)
let get_slot (st : tstate) (s : int) : value =
  if s >= 0 then Array.unsafe_get st.t_frame s
  else
    let n = Array.unsafe_get st.t_ints ((lnot s) lsr 1) in
    if (lnot s) land 1 = 0 then box_int n else vbool (n <> 0)

(* A value written to a slot, unboxed into the int frame: a value
   whose dynamic type is not the slot's static type traps in
   [as_int]/[as_bool] here. *)
let set_slot (st : tstate) (s : int) (v : value) : unit =
  if s >= 0 then Array.unsafe_set st.t_frame s v
  else if (lnot s) land 1 = 0 then
    Array.unsafe_set st.t_ints ((lnot s) lsr 1) (as_int v)
  else Array.unsafe_set st.t_ints ((lnot s) lsr 1) (Bool.to_int (as_bool v))

(* Copies slot [s] of one activation into slot [d] of another (or the
   same): within a frame it is a plain copy, across frames it boxes and
   unboxes. *)
let move (src : tstate) (s : int) (dst : tstate) (d : int) : unit =
  if s >= 0 && d >= 0 then
    Array.unsafe_set dst.t_frame d (Array.unsafe_get src.t_frame s)
  else if s < 0 && d < 0 && (s lxor d) land 1 = 0 then
    Array.unsafe_set dst.t_ints ((lnot d) lsr 1)
      (Array.unsafe_get src.t_ints ((lnot s) lsr 1))
  else set_slot dst d (get_slot src s)

(* A value array entering the VM from outside (an entry point, an OSR
   transfer, a reference-walker call) is passed as a caller whose value
   frame it is, with the identity argument slots. *)
let entry_state (args : value array) : tstate =
  { t_frame = args; t_ints = [||] }

let identity_slots = Array.init 9 (fun n -> Array.init n Fun.id)

let arg_slots (n : int) : int array =
  if n < Array.length identity_slots then identity_slots.(n)
  else Array.init n Fun.id

(* The record of depth [d] > [vm.frames_used], which the current run
   has not used yet: grows [vm.frames] on demand with empty records,
   whose frames the first activation at each depth sizes. *)
let first_record (vm : vm) (d : int) : tstate =
  let n = Array.length vm.frames in
  if d >= n then
    vm.frames <-
      Array.init (max (d + 1) (2 * n)) (fun i ->
          if i < n then vm.frames.(i) else { t_frame = [||]; t_ints = [||] });
  vm.frames_used <- d;
  vm.frames.(d)

(* Once a run is back at depth 0, nothing it computed stays reachable
   from a record: the value frames it used are filled with [Vunit]. An
   entry nested in a hook (a run that starts at depth > 0) leaves them
   to the run around it. *)
let release_frames (vm : vm) : unit =
  if vm.depth = 0 then begin
    for d = 1 to vm.frames_used do
      let f = vm.frames.(d).t_frame in
      Array.fill f 0 (Array.length f) Vunit
    done;
    vm.frames_used <- 0
  end

(* A copy of each site's counters, ordered by (method, site ordinal),
   leaving out sites with no dispatch. *)
let ic_stats (vm : vm) : ic_stat list =
  Hashtbl.fold
    (fun _ st acc ->
      if st.st_hits + st.st_misses + st.st_mega > 0 then { st with st_hits = st.st_hits } :: acc
      else acc)
    vm.ic_sites []
  |> List.sort (fun a b ->
         compare (a.st_site.sm, a.st_site.sidx) (b.st_site.sm, b.st_site.sidx))

let eval_binop (op : binop) (a : value) (b : value) : value =
  match op with
  | Add -> Vint (as_int a + as_int b)
  | Sub -> Vint (as_int a - as_int b)
  | Mul -> Vint (as_int a * as_int b)
  | Div ->
      let d = as_int b in
      if d = 0 then trap "division by zero" else Vint (as_int a / d)
  | Rem ->
      let d = as_int b in
      if d = 0 then trap "remainder by zero" else Vint (as_int a mod d)
  | Shl -> Vint (as_int a lsl (as_int b land 63))
  | Shr -> Vint (as_int a asr (as_int b land 63))
  | Band -> Vint (as_int a land as_int b)
  | Bor -> Vint (as_int a lor as_int b)
  | Bxor -> Vint (as_int a lxor as_int b)
  | Lt -> Vbool (as_int a < as_int b)
  | Le -> Vbool (as_int a <= as_int b)
  | Gt -> Vbool (as_int a > as_int b)
  | Ge -> Vbool (as_int a >= as_int b)
  | Eq -> Vbool (value_eq a b)
  | Ne -> Vbool (not (value_eq a b))
  | Andb -> Vbool (as_bool a && as_bool b)
  | Orb -> Vbool (as_bool a || as_bool b)
  | Xorb -> Vbool (as_bool a <> as_bool b)
  | Eqb -> Vbool (as_bool a = as_bool b)

let eval_unop (op : unop) (a : value) : value =
  match op with Neg -> Vint (-as_int a) | Not -> Vbool (not (as_bool a))

(* The receiver cell of every entry of a non-profiling cache. A cache
   lives in one code object, which profiles always or never, so nothing
   reads or increments it. *)
let no_count = ref 0

(* The program body of [m]; an abstract method traps. *)
let program_body (vm : vm) (m : meth_id) : fn =
  let mm = Ir.Program.meth vm.prog m in
  match mm.body with
  | Some fn -> fn
  | None -> trap "abstract method %s invoked" mm.m_name

(* A call passes the caller's activation state and the slots of its
   arguments in it; the callee's frames are built from them directly
   (see [exec_threaded]). *)
let rec invoke (vm : vm) (m : meth_id) (st : tstate) (cargs : int array) : value =
  vm.on_entry m;
  match vm.attrib with
  | None -> run vm m st cargs
  | Some a -> (
      (* enter/leave bracket the activation by hand (no closures, no
         Fun.protect): this sits on the invocation path, and the
         disabled path must stay one option check. The tier is read
         first, so an abstract method traps before [enter]. *)
      let tier =
        match installed vm m with
        | Some _ -> Attribution.Jit
        | None ->
            ignore (program_body vm m);
            Attribution.Interp
      in
      Attribution.enter a ~meth:m ~tier ~now:vm.cycles;
      match run vm m st cargs with
      | v ->
          Attribution.leave a ~now:vm.cycles;
          v
      | exception e ->
          Attribution.leave a ~now:vm.cycles;
          raise e)

(* Runs [m]'s current body in its tier. The threaded tier runs the entry
   in [m]'s code slot, lowering it first when the slot is empty: a filled
   slot is the one thing a threaded call reads to find its code. An
   interpreted entry's [inv] is the method's invocation counter, so the
   increment counts the activation. The reference walker looks the body
   and the counter up at every call. *)
and run (vm : vm) (m : meth_id) (st : tstate) (cargs : int array) : value =
  match vm.backend with
  | Threaded ->
      let c = vm.code in
      let e =
        match if m < Array.length c then Array.unsafe_get c m else None with
        | Some e -> e
        | None -> lower_entry vm m
      in
      incr e.inv;
      exec_threaded vm e.tcode st cargs
  | Reference -> (
      match installed vm m with
      | Some cfn -> exec_ref vm ~mode:Compiled ~meth:m cfn st cargs
      | None ->
          let fn = program_body vm m in
          incr (Profile.invocation_cell vm.profiles m);
          exec_ref vm ~mode:Interpreted ~meth:m fn st cargs)

(* One-way OSR transfer: charge like a direct call, marshal the frame
   mapping (live-ins, then the loop-carried phi values) out of the
   running frame via [read] and invoke the continuation method; its
   result IS the original activation's result. [abort] wraps
   enter-transfers so the engine can observe a trap unwinding out of the
   continuation (it emits an osr_exit with reason "trap") before the
   exception propagates further. *)
and osr_call (vm : vm) ?(abort = false) (tr : osr_transfer)
    (read : vid -> value) : value =
  charge vm (Cost.call_overhead vm.cost ~virtual_:false ~targets:1);
  let n = Array.length tr.osr_live_ins in
  let np = Array.length tr.osr_phis in
  let cargs = Array.make (n + np) Vunit in
  for i = 0 to n - 1 do
    cargs.(i) <- read tr.osr_live_ins.(i)
  done;
  for i = 0 to np - 1 do
    cargs.(n + i) <- read tr.osr_phis.(i)
  done;
  let st = entry_state cargs and slots = arg_slots (n + np) in
  if abort then (
    try invoke vm tr.osr_target st slots
    with e ->
      vm.on_osr_abort tr.osr_target;
      raise e)
  else invoke vm tr.osr_target st slots

(* Fills [m]'s empty code slot: prepares and lowers the body a call of
   [m] runs now, its installed code or else its program body. The entry
   is never lowered again; [set_installed] empties the slot. *)
and lower_entry (vm : vm) (m : meth_id) : prepared_entry =
  let mode, src, inv =
    match installed vm m with
    | Some cfn -> (Compiled, cfn, ref 0)
    | None -> (Interpreted, program_body vm m, Profile.invocation_cell vm.profiles m)
  in
  let pcode = Prepared.prepare ~cost:vm.cost ~ic_stat:(site_stat vm) vm.prog src in
  let e = { src; inv; tcode = lower_threaded vm ~mode ~meth:m ~src pcode } in
  vm.code <- grown vm.code m;
  vm.code.(m) <- Some e;
  e

(* ---------- threaded backend: closures instead of a dispatch match ----

   [lower_threaded] turns a [Prepared.code] into a flat array of handler
   closures indexed by pc — one per block prologue, body segment and
   terminator. Each handler performs its instruction and tail-calls the
   successor handler directly (direct threading: control never returns
   to a dispatch loop mid-method), with a dispatch loop's per-step
   [match pi.op], operand-field loads and cost additions all paid once
   at lowering: operands, the summed dispatch+static cost, the profile
   cells and jump-target handlers live in the closure environments. A
   handler is bookkeeping ∘ effect ∘ goto-next, where the effect
   ([op_effect]) is the instruction's bare semantic action.

   Superinstructions go one step further: a fused segment's handler
   ([fused_handler], the Deegen-style combinator) strings the
   constituents' *effect* closures behind a single batched
   step/budget/cycle preamble that charges [Cost.fused_cost] — one
   budget check and two counter updates for the whole run instead of one
   per op.

   Observable equivalence: no fusable op can call out, profile or
   otherwise observe the counters mid-segment ([Prepared.plan_fusion]
   breaks runs at calls), so batching is invisible on the non-trapping
   path — the totals at every call, profile record and method exit are
   bit-identical to [exec_ref]. On the trapping paths
   the handler re-aligns the counters to exactly the stepwise state
   before re-raising, and a step budget that would die mid-segment is
   replayed stepwise so the trap lands on the precise constituent. The
   differential suite pins all of this. *)

and lower_threaded (vm : vm) ~(mode : mode) ~(meth : meth_id) ~(src : fn)
    (pcode : Prepared.code) : tcode =
  let profiling = mode = Interpreted in
  let plan = Prepared.plan_fusion pcode in
  let dispatch =
    match mode with
    | Interpreted -> vm.cost.interp_dispatch
    | Compiled -> vm.cost.compiled_dispatch
  in
  let phi_cost = dispatch + vm.cost.phi in
  let blocks = pcode.blocks in
  let nb = Array.length blocks in
  (* pc layout per block: one prologue per incoming edge when the block
     has phis (the parallel move is specialized per edge), a single
     shared prologue otherwise; then one pc per body segment; then the
     terminator. The entry block has no phis. *)
  let npcs = ref 0 in
  let alloc k =
    let p = !npcs in
    npcs := p + k;
    p
  in
  let has_phis (b : Prepared.pblock) = Array.length b.phi_dests > 0 in
  let prologue_base = Array.make nb 0 in
  let seg_base = Array.make nb 0 in
  let term_pc = Array.make nb 0 in
  Array.iteri
    (fun bi (b : Prepared.pblock) ->
      prologue_base.(bi) <- alloc (if has_phis b then Array.length b.pred_bids else 1);
      seg_base.(bi) <- alloc (Array.length plan.Prepared.fp_segments.(bi));
      term_pc.(bi) <- alloc 1)
    blocks;
  let pc_of_edge (target : int) (edge : int) : int =
    if has_phis blocks.(target) then prologue_base.(target) + edge
    else prologue_base.(target)
  in
  let handlers : thandler array = Array.make !npcs (fun _ -> Vunit) in
  (* one pre-decoded op -> its bare semantic action on the frames, no
     bookkeeping, no dispatch: a variant per combination of op and frames
     that well-typed IR can name, reading and writing the frames
     directly. Any other combination is refused here, before the body
     runs. *)
  let op_effect (pi : Prepared.pinstr) : tstate -> unit =
    let open Prepared in
    let d = index pi.dest in
    let ill_typed () =
      ill_formed pcode.fname "%s on ill-typed operands" (opkey pi.op)
    in
    match (pi.op, kind pi.dest) with
    | Pconst (Vint n), Kint -> fun st -> Array.unsafe_set st.t_ints d n
    | Pconst (Vbool b), Kbool ->
        let n = Bool.to_int b in
        fun st -> Array.unsafe_set st.t_ints d n
    | Pconst ((Vunit | Vstr _ | Vnull | Vobj _ | Varr _) as v), Kval ->
        fun st -> Array.unsafe_set st.t_frame d v
    | Punop (Neg, a), Kint when kind a = Kint ->
        let a = index a in
        fun st -> Array.unsafe_set st.t_ints d (-Array.unsafe_get st.t_ints a)
    | Punop (Not, a), Kbool when kind a = Kbool ->
        let a = index a in
        fun st -> Array.unsafe_set st.t_ints d (1 - Array.unsafe_get st.t_ints a)
    | Pparam _, _ -> fun _ -> ()
    | Pbinop (op, a, b), dk -> (
        let x = index a and y = index b in
        match (op, kind a, kind b, dk) with
        | Add, Kint, Kint, Kint ->
            fun st ->
              let n = st.t_ints in
              Array.unsafe_set n d (Array.unsafe_get n x + Array.unsafe_get n y)
        | Sub, Kint, Kint, Kint ->
            fun st ->
              let n = st.t_ints in
              Array.unsafe_set n d (Array.unsafe_get n x - Array.unsafe_get n y)
        | Mul, Kint, Kint, Kint ->
            fun st ->
              let n = st.t_ints in
              Array.unsafe_set n d (Array.unsafe_get n x * Array.unsafe_get n y)
        | Div, Kint, Kint, Kint ->
            fun st ->
              let n = st.t_ints in
              let q = Array.unsafe_get n y in
              if q = 0 then trap "division by zero";
              Array.unsafe_set n d (Array.unsafe_get n x / q)
        | Rem, Kint, Kint, Kint ->
            fun st ->
              let n = st.t_ints in
              let q = Array.unsafe_get n y in
              if q = 0 then trap "remainder by zero";
              Array.unsafe_set n d (Array.unsafe_get n x mod q)
        | Shl, Kint, Kint, Kint ->
            fun st ->
              let n = st.t_ints in
              Array.unsafe_set n d
                (Array.unsafe_get n x lsl (Array.unsafe_get n y land 63))
        | Shr, Kint, Kint, Kint ->
            fun st ->
              let n = st.t_ints in
              Array.unsafe_set n d
                (Array.unsafe_get n x asr (Array.unsafe_get n y land 63))
        | Band, Kint, Kint, Kint | Andb, Kbool, Kbool, Kbool ->
            fun st ->
              let n = st.t_ints in
              Array.unsafe_set n d (Array.unsafe_get n x land Array.unsafe_get n y)
        | Bor, Kint, Kint, Kint | Orb, Kbool, Kbool, Kbool ->
            fun st ->
              let n = st.t_ints in
              Array.unsafe_set n d (Array.unsafe_get n x lor Array.unsafe_get n y)
        | Bxor, Kint, Kint, Kint ->
            fun st ->
              let n = st.t_ints in
              Array.unsafe_set n d (Array.unsafe_get n x lxor Array.unsafe_get n y)
        | Lt, Kint, Kint, Kbool ->
            fun st ->
              let n = st.t_ints in
              Array.unsafe_set n d
                (Bool.to_int (Array.unsafe_get n x < Array.unsafe_get n y))
        | Le, Kint, Kint, Kbool ->
            fun st ->
              let n = st.t_ints in
              Array.unsafe_set n d
                (Bool.to_int (Array.unsafe_get n x <= Array.unsafe_get n y))
        | Gt, Kint, Kint, Kbool ->
            fun st ->
              let n = st.t_ints in
              Array.unsafe_set n d
                (Bool.to_int (Array.unsafe_get n x > Array.unsafe_get n y))
        | Ge, Kint, Kint, Kbool ->
            fun st ->
              let n = st.t_ints in
              Array.unsafe_set n d
                (Bool.to_int (Array.unsafe_get n x >= Array.unsafe_get n y))
        | Eq, Kint, Kint, Kbool | (Eq | Eqb), Kbool, Kbool, Kbool ->
            fun st ->
              let n = st.t_ints in
              Array.unsafe_set n d
                (Bool.to_int (Array.unsafe_get n x = Array.unsafe_get n y))
        | Ne, Kint, Kint, Kbool | (Ne | Xorb), Kbool, Kbool, Kbool ->
            fun st ->
              let n = st.t_ints in
              Array.unsafe_set n d
                (Bool.to_int (Array.unsafe_get n x <> Array.unsafe_get n y))
        | Eq, Kval, Kval, Kbool ->
            fun st ->
              let f = st.t_frame in
              Array.unsafe_set st.t_ints d
                (Bool.to_int (value_eq (Array.unsafe_get f x) (Array.unsafe_get f y)))
        | Ne, Kval, Kval, Kbool ->
            fun st ->
              let f = st.t_frame in
              Array.unsafe_set st.t_ints d
                (Bool.to_int
                   (not (value_eq (Array.unsafe_get f x) (Array.unsafe_get f y))))
        | _ -> ill_typed ())
    | Pcall { callee; cargs; site; ic }, Kval ->
        fun st ->
          Array.unsafe_set st.t_frame d
            (do_call vm ?ic ~profiling ~meth ~callee ~site st cargs)
    | Pcall { callee; cargs; site; ic }, Kint ->
        fun st ->
          Array.unsafe_set st.t_ints d
            (as_int (do_call vm ?ic ~profiling ~meth ~callee ~site st cargs))
    | Pcall { callee; cargs; site; ic }, Kbool ->
        fun st ->
          let b = as_bool (do_call vm ?ic ~profiling ~meth ~callee ~site st cargs) in
          Array.unsafe_set st.t_ints d (Bool.to_int b)
    | Pnew { cls; defaults }, Kval ->
        fun st ->
          Array.unsafe_set st.t_frame d
            (Vobj { o_cls = cls; fields = Array.copy defaults })
    | Pgetfield { obj; slot; fname }, Kval when kind obj = Kval ->
        fun st ->
          let o = as_obj (Array.unsafe_get st.t_frame obj) in
          if slot >= Array.length o.fields then
            trap "internal: bad field slot for %s" fname;
          Array.unsafe_set st.t_frame d o.fields.(slot)
    | Pgetfield { obj; slot; fname }, Kint when kind obj = Kval ->
        fun st ->
          let o = as_obj (Array.unsafe_get st.t_frame obj) in
          if slot >= Array.length o.fields then
            trap "internal: bad field slot for %s" fname;
          Array.unsafe_set st.t_ints d (as_int o.fields.(slot))
    | Pgetfield { obj; slot; fname }, Kbool when kind obj = Kval ->
        fun st ->
          let o = as_obj (Array.unsafe_get st.t_frame obj) in
          if slot >= Array.length o.fields then
            trap "internal: bad field slot for %s" fname;
          Array.unsafe_set st.t_ints d (Bool.to_int (as_bool o.fields.(slot)))
    | Psetfield { obj; slot; fname; value }, Kval when kind obj = Kval ->
        fun st ->
          let o = as_obj (Array.unsafe_get st.t_frame obj) in
          if slot >= Array.length o.fields then
            trap "internal: bad field slot for %s" fname;
          o.fields.(slot) <- get_slot st value;
          Array.unsafe_set st.t_frame d Vunit
    | Pnewarray { ety; len }, Kval when kind len = Kint ->
        let len = index len in
        fun st ->
          let n = Array.unsafe_get st.t_ints len in
          vm.cycles <- vm.cycles + Cost.alloc_fields_cost vm.cost n;
          Array.unsafe_set st.t_frame d (alloc_array ety n)
    | Parrayget { arr; idx }, Kval when kind arr = Kval && kind idx = Kint ->
        let idx = index idx in
        fun st ->
          let a = as_arr (Array.unsafe_get st.t_frame arr) in
          let i = Array.unsafe_get st.t_ints idx in
          if i < 0 || i >= Array.length a.elems then
            trap "array index %d out of bounds" i;
          Array.unsafe_set st.t_frame d (Array.unsafe_get a.elems i)
    | Parrayget { arr; idx }, Kint when kind arr = Kval && kind idx = Kint ->
        let idx = index idx in
        fun st ->
          let a = as_arr (Array.unsafe_get st.t_frame arr) in
          let i = Array.unsafe_get st.t_ints idx in
          if i < 0 || i >= Array.length a.elems then
            trap "array index %d out of bounds" i;
          Array.unsafe_set st.t_ints d (as_int (Array.unsafe_get a.elems i))
    | Parrayget { arr; idx }, Kbool when kind arr = Kval && kind idx = Kint ->
        let idx = index idx in
        fun st ->
          let a = as_arr (Array.unsafe_get st.t_frame arr) in
          let i = Array.unsafe_get st.t_ints idx in
          if i < 0 || i >= Array.length a.elems then
            trap "array index %d out of bounds" i;
          Array.unsafe_set st.t_ints d
            (Bool.to_int (as_bool (Array.unsafe_get a.elems i)))
    | Parrayset { arr; idx; value }, Kval when kind arr = Kval && kind idx = Kint ->
        let idx = index idx in
        fun st ->
          let a = as_arr (Array.unsafe_get st.t_frame arr) in
          let i = Array.unsafe_get st.t_ints idx in
          if i < 0 || i >= Array.length a.elems then
            trap "array index %d out of bounds" i;
          Array.unsafe_set a.elems i (get_slot st value);
          Array.unsafe_set st.t_frame d Vunit
    | Parraylen a, Kint when kind a = Kval ->
        fun st ->
          Array.unsafe_set st.t_ints d
            (Array.length (as_arr (Array.unsafe_get st.t_frame a)).elems)
    | Ptypetest { obj; cls }, Kbool when kind obj = Kval ->
        fun st ->
          Array.unsafe_set st.t_ints d
            (match Array.unsafe_get st.t_frame obj with
            | Vobj o ->
                Bool.to_int (Ir.Program.is_subclass vm.prog ~sub:o.o_cls ~sup:cls)
            | Vnull -> 0
            | _ -> trap "typetest on a non-object")
    | Pintrinsic (Iprint_int, [| a |]), Kval when kind a = Kint ->
        let a = index a in
        fun st ->
          Buffer.add_string vm.out (string_of_int (Array.unsafe_get st.t_ints a));
          Array.unsafe_set st.t_frame d Vunit
    | Pintrinsic (Iprint_bool, [| a |]), Kval when kind a = Kbool ->
        let a = index a in
        fun st ->
          Buffer.add_string vm.out (string_of_bool (Array.unsafe_get st.t_ints a <> 0));
          Array.unsafe_set st.t_frame d Vunit
    | Pintrinsic (Iprint_str, [| a |]), Kval when kind a = Kval ->
        fun st ->
          Buffer.add_string vm.out (as_str (Array.unsafe_get st.t_frame a));
          Array.unsafe_set st.t_frame d Vunit
    | Pintrinsic (Istr_len, [| a |]), Kint when kind a = Kval ->
        fun st ->
          Array.unsafe_set st.t_ints d
            (String.length (as_str (Array.unsafe_get st.t_frame a)))
    | Pintrinsic (Istr_get, [| a; i |]), Kint when kind a = Kval && kind i = Kint ->
        let i = index i in
        fun st ->
          let s = as_str (Array.unsafe_get st.t_frame a) in
          let i = Array.unsafe_get st.t_ints i in
          if i < 0 || i >= String.length s then trap "string index %d out of bounds" i;
          Array.unsafe_set st.t_ints d (Char.code (String.unsafe_get s i))
    | Pintrinsic (Istr_eq, [| a; b |]), Kbool when kind a = Kval && kind b = Kval ->
        fun st ->
          let f = st.t_frame in
          let x = as_str (Array.unsafe_get f a) and y = as_str (Array.unsafe_get f b) in
          Array.unsafe_set st.t_ints d (Bool.to_int (String.equal x y))
    | Pintrinsic (Iabs, [| a |]), Kint when kind a = Kint ->
        let a = index a in
        fun st -> Array.unsafe_set st.t_ints d (abs (Array.unsafe_get st.t_ints a))
    | Pintrinsic (Imin, [| a; b |]), Kint when kind a = Kint && kind b = Kint ->
        let x = index a and y = index b in
        fun st ->
          let n = st.t_ints in
          Array.unsafe_set n d (Int.min (Array.unsafe_get n x) (Array.unsafe_get n y))
    | Pintrinsic (Imax, [| a; b |]), Kint when kind a = Kint && kind b = Kint ->
        let x = index a and y = index b in
        fun st ->
          let n = st.t_ints in
          Array.unsafe_set n d (Int.max (Array.unsafe_get n x) (Array.unsafe_get n y))
    | _ -> ill_typed ()
  in
  (* a singleton handler: step, budget check, charge, effect, fall
     through to the successor handler (a tail call — the dispatch loop
     is entered once per activation, not once per op). Straight-line
     successors are wired bottom-up, so [nexth] is the successor closure
     itself, not an index. *)
  let op_handler ~(nexth : thandler) (pi : Prepared.pinstr) : thandler =
    let c = dispatch + pi.static_cost in
    let eff = op_effect pi in
    fun st ->
      vm.steps <- vm.steps + 1;
      if vm.steps > vm.max_steps then trap "step budget exceeded";
      vm.cycles <- vm.cycles + c;
      eff st;
      nexth st
  in
  (* the Deegen-style superinstruction builder: the fused handler is
     composed from the constituents' effect closures — never hand-written
     per pattern — behind one batched step/budget/cycle preamble that
     charges [Cost.fused_cost] for the whole run. Nothing inside a
     fusable run can observe the counters ([Prepared.plan_fusion] breaks
     runs at calls, and profiling happens at block entries and branches),
     so the only places the batching could show are the trapping paths,
     which re-align the counters to the exact stepwise state: a budget
     that would die mid-segment is replayed stepwise so the trap fires on
     the precise constituent, and an effect trap un-charges the
     constituents that never ran before re-raising. *)
  let fused_handler ~(nexth : thandler) (pis : Prepared.pinstr array) : thandler =
    let n = Array.length pis in
    let effs = Array.map op_effect pis in
    let costs =
      Array.map (fun (pi : Prepared.pinstr) -> dispatch + pi.static_cost) pis
    in
    let total =
      Cost.fused_cost ~dispatch
        (Array.to_list
           (Array.map (fun (pi : Prepared.pinstr) -> pi.static_cost) pis))
    in
    (* prefix.(j): what the stepwise engines have charged after the
       first j constituents (static parts only — dynamic charges, e.g.
       allocation, always go straight to [vm.cycles]) *)
    let prefix = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      prefix.(i + 1) <- prefix.(i) + costs.(i)
    done;
    fun st ->
      if vm.steps + n > vm.max_steps then begin
        (* the step budget dies inside this segment: replay stepwise *)
        let i = ref 0 in
        while !i < n do
          vm.steps <- vm.steps + 1;
          if vm.steps > vm.max_steps then trap "step budget exceeded";
          vm.cycles <- vm.cycles + costs.(!i);
          effs.(!i) st;
          incr i
        done;
        nexth st
      end
      else begin
        vm.steps <- vm.steps + n;
        vm.cycles <- vm.cycles + total;
        let i = ref 0 in
        (try
           while !i < n do
             (Array.unsafe_get effs !i) st;
             incr i
           done
         with e ->
           (* constituent !i trapped: un-charge the ones that never ran
              (their dynamic charges never happened either) *)
           vm.steps <- vm.steps - (n - !i - 1);
           vm.cycles <- vm.cycles - (total - prefix.(!i + 1));
           raise e);
        nexth st
      end
  in
  (* block-entry prologue: the block step/budget tick, the profiling
     tier's block-counter tick on the block's [cell], then the phi
     parallel move specialized for one incoming edge. Preparation puts
     each phi and its inputs in one frame; an edge on which some phi has
     no input comes from an unreachable predecessor and traps with the
     walker's message. *)
  let prologue_handler (b : Prepared.pblock) ~(cell : int ref) ~(edge : int)
      ~(nexth : thandler) : thandler =
    let nphis = Array.length b.phi_dests in
    let tick_block () =
      vm.steps <- vm.steps + 1;
      if vm.steps > vm.max_steps then trap "step budget exceeded";
      if profiling then incr cell
    in
    (* the common no-phi prologues inline the tick — they run once per
       block entry, squarely on the hot path *)
    if nphis = 0 then
      if profiling then fun st ->
        vm.steps <- vm.steps + 1;
        if vm.steps > vm.max_steps then trap "step budget exceeded";
        incr cell;
        nexth st
      else fun st ->
        vm.steps <- vm.steps + 1;
        if vm.steps > vm.max_steps then trap "step budget exceeded";
        nexth st
    else
      let srcs = b.phi_srcs.(edge) and dests = b.phi_dests in
      (* every phi is a step and a charge, but only the copies between two
         slots move anything: a phi that shares its slot with this edge's
         input already holds its value *)
      let charge = nphis * phi_cost in
      let copies = List.filter (fun i -> srcs.(i) <> dests.(i)) (List.init nphis Fun.id) in
      match (Array.find_index (fun s -> s = Prepared.none) srcs, copies) with
      | Some i, _ ->
          fun _ ->
            trap "internal: phi v%d has no input for edge b%d" b.phi_vids.(i)
              b.pred_bids.(edge)
      | None, [] ->
          fun st ->
            tick_block ();
            vm.steps <- vm.steps + nphis;
            vm.cycles <- vm.cycles + charge;
            nexth st
      | None, [ i ] ->
          let d0 = Prepared.index dests.(i) and s0 = Prepared.index srcs.(i) in
          if dests.(i) >= 0 then fun st ->
            tick_block ();
            vm.steps <- vm.steps + nphis;
            vm.cycles <- vm.cycles + charge;
            let f = st.t_frame in
            Array.unsafe_set f d0 (Array.unsafe_get f s0);
            nexth st
          else fun st ->
            tick_block ();
            vm.steps <- vm.steps + nphis;
            vm.cycles <- vm.cycles + charge;
            let n = st.t_ints in
            Array.unsafe_set n d0 (Array.unsafe_get n s0);
            nexth st
      | None, _ ->
          (* simultaneous assignment through a scratch row per frame;
             sharing the scratch across activations is safe — nothing
             re-enters this code object mid-move *)
          let moves in_ints =
            let ks = List.filter (fun i -> (dests.(i) < 0) = in_ints) copies in
            let pick a = Array.of_list (List.map (fun i -> Prepared.index a.(i)) ks) in
            (pick srcs, pick dests)
          in
          let vsrcs, vdests = moves false and isrcs, idests = moves true in
          let nv = Array.length vsrcs and ni = Array.length isrcs in
          let vtmp = Array.make nv Vunit and itmp = Array.make ni 0 in
          fun st ->
            tick_block ();
            vm.steps <- vm.steps + nphis;
            vm.cycles <- vm.cycles + charge;
            let f = st.t_frame and n = st.t_ints in
            for i = 0 to nv - 1 do
              Array.unsafe_set vtmp i (Array.unsafe_get f (Array.unsafe_get vsrcs i))
            done;
            for i = 0 to ni - 1 do
              Array.unsafe_set itmp i (Array.unsafe_get n (Array.unsafe_get isrcs i))
            done;
            for i = 0 to nv - 1 do
              Array.unsafe_set f (Array.unsafe_get vdests i) (Array.unsafe_get vtmp i)
            done;
            for i = 0 to ni - 1 do
              Array.unsafe_set n (Array.unsafe_get idests i) (Array.unsafe_get itmp i)
            done;
            nexth st
  in
  (* OSR checkpoint guards, spliced between a block's prologue and its
     first body segment — but only for loop headers (the [osr_headers]
     hook), so every other block's wiring is untouched. A transfer returns
     the continuation's result instead of calling the next handler. Its
     frame mapping names vids, read through the code's vid -> slot map. *)
  let read_vid (st : tstate) (v : vid) : value =
    let s = pcode.slots.(v) in
    if s >= 0 then st.t_frame.(s)
    else
      let n = st.t_ints.(Prepared.index s) in
      if Prepared.kind s = Kint then box_int n else vbool (n <> 0)
  in
  let enter_guard (b : Prepared.pblock) ~(cell : int ref) ~(nexth : thandler) :
      thandler =
    fun st ->
      if (not b.osr_skip) && !cell >= vm.osr_threshold then (
        match vm.on_osr meth b.src_bid with
        | Osr_no ->
            b.osr_skip <- true;
            nexth st
        | Osr_wait -> nexth st
        | Osr_enter tr -> osr_call vm ~abort:true tr (read_vid st))
      else nexth st
  in
  (* a compiled frame asks only when its code is stale: [src] is no
     longer [meth]'s installed code *)
  let exit_guard (b : Prepared.pblock) ~(nexth : thandler) : thandler =
    fun st ->
      match installed vm meth with
      | Some cur when cur == src -> nexth st
      | _ when b.osr_skip -> nexth st
      | _ -> (
          match vm.on_osr_exit meth src b.src_bid with
          | Some tr -> osr_call vm tr (read_vid st)
          | None ->
              b.osr_skip <- true;
              nexth st)
  in
  let term_handler (b : Prepared.pblock) : thandler =
    let tc = b.term_cost in
    match b.term with
    | Preturn r -> (
        let i = Prepared.index r in
        match Prepared.kind r with
        | Kval ->
            fun st ->
              vm.cycles <- vm.cycles + tc;
              Array.unsafe_get st.t_frame i
        | Kint ->
            fun st ->
              vm.cycles <- vm.cycles + tc;
              box_int (Array.unsafe_get st.t_ints i)
        | Kbool ->
            fun st ->
              vm.cycles <- vm.cycles + tc;
              vbool (Array.unsafe_get st.t_ints i <> 0))
    | Pgoto { target; edge } ->
        let next = pc_of_edge target edge in
        fun st ->
          vm.cycles <- vm.cycles + tc;
          (Array.unsafe_get handlers next) st
    | Pif { cond; site; tb; tedge; fb; fedge } ->
        let tpc = pc_of_edge tb tedge and fpc = pc_of_edge fb fedge in
        if Prepared.kind cond <> Kbool then
          Prepared.ill_formed pcode.fname "branch on a non-Bool condition in b%d"
            b.src_bid;
        let ci = Prepared.index cond in
        if profiling then
          let br = Profile.branch_cell vm.profiles site in
          fun st ->
            vm.cycles <- vm.cycles + tc;
            let taken = Array.unsafe_get st.t_ints ci <> 0 in
            Profile.brec_record br ~taken;
            if taken then (Array.unsafe_get handlers tpc) st
            else (Array.unsafe_get handlers fpc) st
        else fun st ->
          vm.cycles <- vm.cycles + tc;
          if Array.unsafe_get st.t_ints ci <> 0 then
            (Array.unsafe_get handlers tpc) st
          else (Array.unsafe_get handlers fpc) st
    | Punreachable ->
        fun _st ->
          vm.cycles <- vm.cycles + tc;
          trap "reached an unreachable block in %s" pcode.fname
  in
  (* wire each block bottom-up — terminator, then body segments in
     reverse, then the prologues — so every straight-line transition
     captures its successor closure directly; only branch targets (and
     call returns) go back through the pc-indexed array *)
  Array.iteri
    (fun bi (b : Prepared.pblock) ->
      let segs = plan.Prepared.fp_segments.(bi) in
      let nsegs = Array.length segs in
      let first = if nsegs = 0 then term_pc.(bi) else seg_base.(bi) in
      handlers.(term_pc.(bi)) <- term_handler b;
      for si = nsegs - 1 downto 0 do
        let seg = segs.(si) in
        let nexth =
          handlers.(if si = nsegs - 1 then term_pc.(bi) else seg_base.(bi) + si + 1)
        in
        handlers.(seg_base.(bi) + si) <-
          (if seg.Prepared.seg_len = 1 then
             op_handler ~nexth b.body.(seg.Prepared.seg_start)
           else
             fused_handler ~nexth
               (Array.sub b.body seg.Prepared.seg_start seg.Prepared.seg_len))
      done;
      let cell =
        if profiling then Profile.block_cell vm.profiles meth b.src_bid else no_count
      in
      let firsth = handlers.(first) in
      let firsth =
        if vm.osr_threshold < max_int && vm.osr_headers meth src b.src_bid then
          if profiling then enter_guard b ~cell ~nexth:firsth
          else exit_guard b ~nexth:firsth
        else firsth
      in
      if has_phis b then
        Array.iteri
          (fun e _ ->
            handlers.(prologue_base.(bi) + e) <-
              prologue_handler b ~cell ~edge:e ~nexth:firsth)
          b.pred_bids
      else handlers.(prologue_base.(bi)) <- prologue_handler b ~cell ~edge:0 ~nexth:firsth)
    blocks;
  List.iter (fun (p, sites) -> note_superinst vm p ~sites) plan.Prepared.fp_patterns;
  {
    t_handlers = handlers;
    t_entry = prologue_base.(pcode.entry);
    t_nregs = pcode.nregs;
    t_nints = pcode.nints;
    t_params =
      Array.concat (Array.to_list (Array.map (fun (k, s) -> [| k; s |]) pcode.params));
    t_fname = pcode.fname;
  }

(* Runs the callee in its depth's record and copies each argument, named
   by its slot in the caller's activation, into its parameter's slot. A
   frame is replaced only when it is too small for the callee, and never
   cleared: the tier runs verified SSA, which writes every slot before
   reading it, and a stale slot holds a valid value. *)
and exec_threaded (vm : vm) (t : tcode) (caller : tstate) (cargs : int array) :
    value =
  let d = vm.depth + 1 in
  vm.depth <- d;
  if d > vm.max_depth then trap "call stack overflow in %s" t.t_fname;
  let st = if d <= vm.frames_used then Array.unsafe_get vm.frames d else first_record vm d in
  if Array.length st.t_frame < t.t_nregs then st.t_frame <- Array.make t.t_nregs Vunit;
  if Array.length st.t_ints < t.t_nints then st.t_ints <- Array.make t.t_nints 0;
  let ps = t.t_params in
  let i = ref 0 in
  while !i < Array.length ps do
    let k = Array.unsafe_get ps !i in
    if k >= Array.length cargs then trap "internal: missing argument %d" k;
    move caller cargs.(k) st (Array.unsafe_get ps (!i + 1));
    i := !i + 2
  done;
  (* one entry into the handler chain; every transition inside is a tail
     call, and the return handler's value unwinds it *)
  let v = (Array.unsafe_get t.t_handlers t.t_entry) st in
  vm.depth <- vm.depth - 1;
  v

(* ---------- reference backend: the direct IR walker ---------- *)

(* The walker reads each argument boxed, from its caller's slot, when its
   [Param] executes; the caller is suspended until this activation
   returns, so the slot still holds the argument. *)
and exec_ref (vm : vm) ~(mode : mode) ~(meth : meth_id) (fn : fn) (caller : tstate)
    (args : int array) : value =
  vm.depth <- vm.depth + 1;
  if vm.depth > vm.max_depth then trap "call stack overflow in %s" fn.fname;
  let dispatch =
    match mode with
    | Interpreted -> vm.cost.interp_dispatch
    | Compiled -> vm.cost.compiled_dispatch
  in
  let profiling = mode = Interpreted in
  let env : (vid, value) Hashtbl.t = Hashtbl.create 64 in
  let get v =
    match Hashtbl.find_opt env v with
    | Some value -> value
    | None -> trap "internal: use of unevaluated v%d in %s" v fn.fname
  in
  let eval_instr (i : instr) : unit =
    vm.steps <- vm.steps + 1;
    if vm.steps > vm.max_steps then trap "step budget exceeded";
    charge vm (dispatch + Cost.instr_cost vm.cost i.kind);
    let result =
      match i.kind with
      | Const (Cint n) -> Vint n
      | Const (Cbool b) -> Vbool b
      | Const (Cstring s) -> Vstr s
      | Const Cunit -> Vunit
      | Const Cnull -> Vnull
      | Param k ->
          if k >= Array.length args then trap "internal: missing argument %d" k
          else get_slot caller args.(k)
      | Unop (op, a) -> eval_unop op (get a)
      | Binop (op, a, b) -> eval_binop op (get a) (get b)
      | Phi _ -> assert false (* phis are evaluated by the block driver *)
      | Call { callee; args = cargs; site; _ } ->
          let vals = Array.of_list (List.map get cargs) in
          do_call vm ~profiling ~meth ~callee ~site (entry_state vals)
            (arg_slots (Array.length vals))
      | New c ->
          charge vm (Cost.alloc_fields_cost vm.cost (Array.length (Ir.Program.cls vm.prog c).layout));
          alloc_obj vm.prog c
      | GetField { obj; slot; fname; _ } -> (
          let o = as_obj (get obj) in
          if slot >= Array.length o.fields then trap "internal: bad field slot for %s" fname
          else o.fields.(slot))
      | SetField { obj; slot; fname; value } ->
          let o = as_obj (get obj) in
          if slot >= Array.length o.fields then trap "internal: bad field slot for %s" fname;
          o.fields.(slot) <- get value;
          Vunit
      | NewArray { ety; len } ->
          let n = as_int (get len) in
          charge vm (Cost.alloc_fields_cost vm.cost n);
          alloc_array ety n
      | ArrayGet { arr; idx; _ } ->
          let a = as_arr (get arr) in
          let i = as_int (get idx) in
          if i < 0 || i >= Array.length a.elems then trap "array index %d out of bounds" i;
          a.elems.(i)
      | ArraySet { arr; idx; value } ->
          let a = as_arr (get arr) in
          let i = as_int (get idx) in
          if i < 0 || i >= Array.length a.elems then trap "array index %d out of bounds" i;
          a.elems.(i) <- get value;
          Vunit
      | ArrayLen a -> Vint (Array.length (as_arr (get a)).elems)
      | TypeTest { obj; cls } -> (
          match get obj with
          | Vobj o -> Vbool (Ir.Program.is_subclass vm.prog ~sub:o.o_cls ~sup:cls)
          | Vnull -> Vbool false
          | _ -> trap "typetest on a non-object")
      | Intrinsic (intr, iargs) -> (
          let a k = get (List.nth iargs k) in
          match intr with
          | Iprint_int -> Buffer.add_string vm.out (string_of_int (as_int (a 0))); Vunit
          | Iprint_bool -> Buffer.add_string vm.out (string_of_bool (as_bool (a 0))); Vunit
          | Iprint_str -> Buffer.add_string vm.out (as_str (a 0)); Vunit
          | Istr_len -> Vint (String.length (as_str (a 0)))
          | Istr_get ->
              let s = as_str (a 0) and i = as_int (a 1) in
              if i < 0 || i >= String.length s then trap "string index %d out of bounds" i;
              Vint (Char.code s.[i])
          | Istr_eq -> Vbool (as_str (a 0) = as_str (a 1))
          | Iabs -> Vint (abs (as_int (a 0)))
          | Imin -> Vint (min (as_int (a 0)) (as_int (a 1)))
          | Imax -> Vint (max (as_int (a 0)) (as_int (a 1))))
    in
    Hashtbl.replace env i.id result
  in
  let rec run (prev : bid) (b : bid) : value =
    (* blocks count as steps too: an instruction-free cycle (possible after
       aggressive DCE) must still exhaust the step budget *)
    vm.steps <- vm.steps + 1;
    if vm.steps > vm.max_steps then trap "step budget exceeded";
    if profiling then incr (Profile.block_cell vm.profiles meth b);
    let blk = Ir.Fn.block fn b in
    (* phis evaluate simultaneously with respect to the incoming edge *)
    let rec eval_phis = function
      | v :: rest -> (
          match Ir.Fn.kind fn v with
          | Phi { inputs; _ } ->
              vm.steps <- vm.steps + 1;
              charge vm (dispatch + vm.cost.phi);
              let value =
                match List.assoc_opt prev inputs with
                | Some pv -> get pv
                | None -> trap "internal: phi v%d has no input for edge b%d" v prev
              in
              (v, value) :: eval_phis rest
          | _ -> [])
      | [] -> []
    in
    let phi_values = eval_phis blk.instrs in
    List.iter (fun (v, value) -> Hashtbl.replace env v value) phi_values;
    (* OSR checkpoints sit after the phi moves, so the loop-carried values
       are current when a transfer reads them *)
    if profiling then
      if
        vm.osr_threshold < max_int
        && Profile.block_count vm.profiles meth b >= vm.osr_threshold
      then (
        match vm.on_osr meth b with
        | Osr_no | Osr_wait -> finish b blk
        | Osr_enter tr -> osr_call vm ~abort:true tr get)
      else finish b blk
    else if
      vm.osr_threshold < max_int
      && match installed vm meth with Some cur -> cur != fn | None -> true
    then (
      (* a stale compiled frame asks at every block; [None] off headers *)
      match vm.on_osr_exit meth fn b with
      | Some tr -> osr_call vm tr get
      | None -> finish b blk)
    else finish b blk
  and finish (b : bid) (blk : block) : value =
    let non_phis =
      List.filter (fun v -> not (Ir.Instr.is_phi (Ir.Fn.kind fn v))) blk.instrs
    in
    List.iter (fun v -> eval_instr (Ir.Fn.instr fn v)) non_phis;
    charge vm (Cost.term_cost vm.cost blk.term);
    match blk.term with
    | Goto b' -> run b b'
    | If { cond; site; tb; fb } ->
        let taken = as_bool (get cond) in
        if profiling then Profile.brec_record (Profile.branch_cell vm.profiles site) ~taken;
        run b (if taken then tb else fb)
    | Return v -> get v
    | Unreachable -> trap "reached an unreachable block in %s" fn.fname
  in
  let result = run (-1) fn.entry in
  vm.depth <- vm.depth - 1;
  result

and do_call (vm : vm) ?ic ~profiling ~(meth : meth_id) ~(callee : callee)
    ~(site : site) (st : tstate) (cargs : int array) : value =
  match callee with
  | Direct m ->
      charge vm vm.cost.call_direct;
      invoke vm m st cargs
  | Virtual sel -> (
      if Array.length cargs = 0 then trap "virtual call with no receiver";
      let o = as_obj (get_slot st cargs.(0)) in
      match ic with
      | Some ic -> (
          (* synthetic sites are typeswitch fallbacks: reaching one in
             compiled code means the speculation missed — an IC-cached
             dispatch must report it exactly like the slow path does *)
          if (not profiling) && site.sidx < 0 then vm.on_spec_miss meth site;
          match Ic.probe ic o.o_cls with
          | e when e != Ic.miss ->
              (* cached: the scan resolved the target. A profiling
                 entry's count cell is the profile's receiver-histogram
                 cell, so recording the receiver is one increment. *)
              ic.stat.st_hits <- ic.stat.st_hits + 1;
              if profiling then incr e.e_count;
              let observed = Profile.receiver_count vm.profiles site in
              charge vm
                (Cost.call_overhead vm.cost ~virtual_:true ~targets:(max observed 1));
              invoke vm e.e_target st cargs
          | _ -> (
              Ic.note_miss ic;
              let cell =
                if profiling then
                  Profile.rsite_cell (Profile.receiver_site vm.profiles site) o.o_cls
                else no_count
              in
              if profiling then incr cell;
              let observed = Profile.receiver_count vm.profiles site in
              charge vm
                (Cost.call_overhead vm.cost ~virtual_:true ~targets:(max observed 1));
              match Ir.Program.resolve vm.prog o.o_cls sel with
              | Some m ->
                  Ic.add ic { e_cls = o.o_cls; e_target = m; e_count = cell };
                  invoke vm m st cargs
              | None ->
                  trap "class %s does not understand %s"
                    (Ir.Program.cls vm.prog o.o_cls).c_name sel))
      | None -> (
          if profiling then
            incr (Profile.rsite_cell (Profile.receiver_site vm.profiles site) o.o_cls);
          (* synthetic sites are typeswitch fallbacks: reaching one in compiled
             code means the speculation missed *)
          if (not profiling) && site.sidx < 0 then vm.on_spec_miss meth site;
          let observed = Profile.receiver_count vm.profiles site in
          charge vm (Cost.call_overhead vm.cost ~virtual_:true ~targets:(max observed 1));
          match Ir.Program.resolve vm.prog o.o_cls sel with
          | Some m -> invoke vm m st cargs
          | None ->
              trap "class %s does not understand %s"
                (Ir.Program.cls vm.prog o.o_cls).c_name sel))

(* The entry points from outside the VM. A trap unwinds past the depth
   decrement of every activation it crosses (no activation installs a
   handler for it), so each entry restores the depth it started at before
   the exception escapes; a leaked depth would overflow the stack of
   every later call on this VM. Returned or trapped back to depth 0, an
   entry releases the records its run used. *)
let entry (vm : vm) (run : unit -> value) : value =
  let depth = vm.depth in
  match run () with
  | v ->
      release_frames vm;
      v
  | exception e ->
      vm.depth <- depth;
      release_frames vm;
      raise e

let invoke (vm : vm) (m : meth_id) (args : value array) : value =
  entry vm (fun () -> invoke vm m (entry_state args) (arg_slots (Array.length args)))

(* Runs a program's [main]; returns its result value. *)
let run_main (vm : vm) : value =
  if vm.prog.main < 0 then trap "program has no main";
  invoke vm vm.prog.main [| Vunit |]

(* Convenience for tests: run an arbitrary method by name. *)
let run_meth (vm : vm) (name : string) (args : value list) : value =
  match Ir.Program.find_meth vm.prog name with
  | Some m -> invoke vm m (Array.of_list args)
  | None -> trap "no method named %s" name
