(* The SelVM execution engine: runs method bodies in either tier and
   doubles as the "compiled code" executor.

   The same evaluator runs both tiers; the [mode] controls (a) the
   per-instruction dispatch penalty from the cost model and (b) whether
   profiles are collected — interpreted code profiles (like the HotSpot
   interpreter / C1), compiled code does not (like C2/Graal code).

   Two execution backends implement identical observable semantics:

   - [Threaded] (default): bodies are translated once into dense
     [Prepared.code] objects — flat register frames, Int and Bool values
     unboxed in their own, edge-resolved phis, pre-decoded instructions —
     cached per (method, tier), and lowered once into direct-threaded
     handler closures specialized for those frames, with superinstruction
     fusion. This is the production path.
   - [Reference]: the original direct IR walker, kept as the executable
     specification the differential suite checks the threaded engine
     against (test/test_differential.ml).

   Prepared-cache coherence: entries are keyed by method and tier and
   remembered together with the physical [fn] they were translated from; a
   lookup that sees a different body (the JIT installed or replaced code)
   re-prepares. [Jit.Engine] writes installed code through [set_installed]
   on every install and deoptimization, which also drops the stale entries
   eagerly and bumps [code_epoch] — the version counter tests observe.

   The VM connects to the JIT engine without a dependency cycle through
   one table and one hook: [installed] holds each method's compiled code
   (a dense array the tier dispatch reads at every invocation), and
   [on_entry] fires at every method entry so the engine can detect
   hotness and trigger compilation. *)

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
   - Exit (compiled frames): each activation snapshots [vm.deopt_epoch];
     when an invalidation bumps it, the frame consults [vm.on_osr_exit]
     at the next loop header and either keeps running ([Exit_stay] —
     still-current code re-snapshots, [Exit_watch] keeps probing) or
     transfers into an interpreted continuation of the stale body
     ([Exit_to], same frame-mapping contract). *)
type osr_transfer = {
  osr_target : meth_id;
  osr_live_ins : vid array;
  osr_phis : vid array;
}

type osr_verdict = Osr_no | Osr_wait | Osr_enter of osr_transfer
type osr_exit_verdict = Exit_stay | Exit_watch | Exit_to of osr_transfer

(* Threaded-tier activation state: the only values a handler closure
   cannot capture at lowering time (they are per-call, the closures are
   per-method). Everything else — operand slots, static costs, bound
   profile cells, jump targets as pc indices — lives in the closure
   environments. The two frames follow [Prepared]'s slot encoding: Int
   and Bool values unboxed in [t_ints], the rest in [t_frame]. *)
type tstate = {
  t_frame : value array;
  t_ints : int array;
  mutable t_depoch : int;
      (* the deopt epoch this activation last validated against *)
}

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

(* A cache entry remembers the physical body it was translated from plus
   the profile (identity and generation) its baked counter cells and IC
   receiver cells point into: a body replacement, a profile swap or a
   [Profile.clear] each invalidate the entry at the next lookup. The
   entry is lowered once, when it is created, with fusion planned over
   every block; its [tcode] shares the [pcode]'s profile-cell holders and
   inline caches. An interpreted entry also holds the method's invocation
   counter cell, bound at creation under the same guard. *)
type prepared_entry = {
  src : fn;
  prof : Profile.t;
  gen : int;
  inv : int ref;
      (* the method's invocation cell in [prof] (a private cell nothing
         counts into for a compiled entry, which does not profile) *)
  pcode : Prepared.code;
  tcode : tcode;
}

(* Accumulated counters of inline caches whose code object was dropped
   (install/invalidate/replace), keyed by site so repeated recompilations
   of a method fold into one row. *)
type ic_stat = {
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
  mutable profiles : Profile.t;
  cost : Cost.t;
  out : Buffer.t;
  mutable cycles : int;          (* simulated execution clock *)
  mutable installed : fn option array;
      (* installed compiled code per method, a dense array indexed by
         meth_id and written only by [set_installed]: [invoke] reads it at
         every invocation, so it is an array read, not a hash probe *)
  mutable on_entry : meth_id -> unit;
  (* fired when compiled code reaches the residual virtual call of a
     typeswitch (a synthetic site): the speculation missed *)
  mutable on_spec_miss : meth_id -> site -> unit;
  (* --- on-stack replacement (policy lives in [Jit.Engine]) --- *)
  mutable osr_threshold : int;
      (* block count at which an interpreted frame consults [on_osr];
         [max_int] (the default) disables the enter checkpoints *)
  mutable on_osr : meth_id -> bid -> osr_verdict;
  mutable osr_headers : meth_id -> fn -> bid -> bool;
      (* lowering-time filter: which blocks get checkpoint guards in the
         threaded tier (loop headers only, so straight-line code and
         non-header blocks pay nothing per entry) *)
  mutable deopt_epoch : int;
      (* bumped by the engine on every invalidation while OSR is armed;
         compiled frames re-validate at loop headers when it moved *)
  mutable osr_exit_armed : bool;
      (* whether compiled threaded lowerings get OSR-exit guards *)
  mutable on_osr_exit : meth_id -> fn -> bid -> osr_exit_verdict;
  mutable on_osr_abort : meth_id -> unit;
      (* a trap is unwinding out of an entered OSR continuation *)
  mutable steps : int;
  mutable max_steps : int;
  mutable depth : int;
  max_depth : int;
  mutable backend : backend;
  (* prepared-code cache, a dense array indexed by meth_id * 2 + tier —
     this lookup sits on every single method invocation, so it is a
     bounds-checked array read, not a hash probe *)
  mutable prepared_cache : prepared_entry option array;
  mutable code_epoch : int;      (* bumped by every [set_installed] *)
  ic_retired : (site, ic_stat) Hashtbl.t;
      (* counters of ICs retired with their code objects *)
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
    deopt_epoch = 0;
    osr_exit_armed = false;
    on_osr_exit = (fun _ _ _ -> Exit_stay);
    on_osr_abort = (fun _ -> ());
    steps = 0;
    max_steps;
    depth = 0;
    max_depth = 10_000;
    backend;
    prepared_cache = Array.make (max 16 (2 * Ir.Program.num_meths prog)) None;
    code_epoch = 0;
    ic_retired = Hashtbl.create 16;
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

let cache_key (m : meth_id) (mode : mode) : int =
  (m * 2) + match mode with Interpreted -> 0 | Compiled -> 1

let cache_slot (vm : vm) (key : int) : prepared_entry option =
  let c = vm.prepared_cache in
  if key < Array.length c then Array.unsafe_get c key else None

(* Methods can be added after the VM was created (tests do); the dense
   cache grows on demand. *)
let cache_set (vm : vm) (key : int) (e : prepared_entry option) : unit =
  let n = Array.length vm.prepared_cache in
  if key >= n then begin
    let c' = Array.make (max (key + 1) (2 * n)) None in
    Array.blit vm.prepared_cache 0 c' 0 n;
    vm.prepared_cache <- c'
  end;
  vm.prepared_cache.(key) <- e

(* Folds a dropped code object's IC counters into [vm.ic_retired] so
   install/invalidate cannot erase the dispatch statistics, then zeroes
   them (a second retirement of the same object is a no-op). Methods
   without virtual call sites have no ICs and skip retirement outright. *)
let retire_ics (vm : vm) (pcode : Prepared.code) : unit =
  if Array.length pcode.ics > 0 then
  Array.iter
    (fun (ic : Ic.t) ->
      if Ic.dispatches ic > 0 then begin
        let st =
          match Hashtbl.find_opt vm.ic_retired ic.ic_site with
          | Some st -> st
          | None ->
              let st =
                { st_site = ic.ic_site; st_selector = ic.selector;
                  st_hits = 0; st_misses = 0; st_mega = 0 }
              in
              Hashtbl.replace vm.ic_retired ic.ic_site st;
              st
        in
        st.st_hits <- st.st_hits + ic.hits;
        st.st_misses <- st.st_misses + ic.misses;
        st.st_mega <- st.st_mega + ic.mega;
        Ic.reset_stats ic
      end)
    pcode.ics

let installed (vm : vm) (m : meth_id) : fn option =
  let c = vm.installed in
  if m < Array.length c then c.(m) else None

(* The one writer of installed code. The tier of [m] changed either way,
   so its prepared code (both tiers) is dropped and its ICs retired. *)
let set_installed (vm : vm) (m : meth_id) (code : fn option) : unit =
  let n = Array.length vm.installed in
  if m >= n then begin
    let c' = Array.make (max (m + 1) (2 * n)) None in
    Array.blit vm.installed 0 c' 0 n;
    vm.installed <- c'
  end;
  vm.installed.(m) <- code;
  let drop key =
    match cache_slot vm key with
    | Some e ->
        retire_ics vm e.pcode;
        cache_set vm key None
    | None -> ()
  in
  drop (cache_key m Interpreted);
  drop (cache_key m Compiled);
  vm.code_epoch <- vm.code_epoch + 1

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
   heap stores, intrinsic operands, OSR reads, reference-walker
   arguments), and boxing shares one [Vint] per value in -128..1023,
   the range most such Ints fall in. Ints compare structurally
   everywhere ([value_eq]), so sharing is unobservable. *)
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
  { t_frame = args; t_ints = [||]; t_depoch = 0 }

let identity_slots = Array.init 9 (fun n -> Array.init n Fun.id)

let arg_slots (n : int) : int array =
  if n < Array.length identity_slots then identity_slots.(n)
  else Array.init n Fun.id

(* A fresh all-[Vunit] frame. Up to 16 slots it is an array literal,
   which ocamlopt allocates inline on the minor heap; [Array.make] is a C
   call ([caml_make_vect]) and this runs once per activation. The
   literals name [u], not [Vunit]: a literal of more than four constants
   compiles to a copy of a static array, another C call. *)
let new_frame (n : int) : value array =
  let u = Sys.opaque_identity Vunit in
  match n with
  | 0 -> [||]
  | 1 -> [| u |]
  | 2 -> [| u; u |]
  | 3 -> [| u; u; u |]
  | 4 -> [| u; u; u; u |]
  | 5 -> [| u; u; u; u; u |]
  | 6 -> [| u; u; u; u; u; u |]
  | 7 -> [| u; u; u; u; u; u; u |]
  | 8 -> [| u; u; u; u; u; u; u; u |]
  | 9 -> [| u; u; u; u; u; u; u; u; u |]
  | 10 -> [| u; u; u; u; u; u; u; u; u; u |]
  | 11 -> [| u; u; u; u; u; u; u; u; u; u; u |]
  | 12 -> [| u; u; u; u; u; u; u; u; u; u; u; u |]
  | 13 -> [| u; u; u; u; u; u; u; u; u; u; u; u; u |]
  | 14 -> [| u; u; u; u; u; u; u; u; u; u; u; u; u; u |]
  | 15 -> [| u; u; u; u; u; u; u; u; u; u; u; u; u; u; u |]
  | 16 -> [| u; u; u; u; u; u; u; u; u; u; u; u; u; u; u; u |]
  | n -> Array.make n u

(* A fresh all-zero int frame, allocated inline the same way. *)
let new_ints (n : int) : int array =
  let z = Sys.opaque_identity 0 in
  match n with
  | 0 -> [||]
  | 1 -> [| z |]
  | 2 -> [| z; z |]
  | 3 -> [| z; z; z |]
  | 4 -> [| z; z; z; z |]
  | 5 -> [| z; z; z; z; z |]
  | 6 -> [| z; z; z; z; z; z |]
  | 7 -> [| z; z; z; z; z; z; z |]
  | 8 -> [| z; z; z; z; z; z; z; z |]
  | 9 -> [| z; z; z; z; z; z; z; z; z |]
  | 10 -> [| z; z; z; z; z; z; z; z; z; z |]
  | 11 -> [| z; z; z; z; z; z; z; z; z; z; z |]
  | 12 -> [| z; z; z; z; z; z; z; z; z; z; z; z |]
  | 13 -> [| z; z; z; z; z; z; z; z; z; z; z; z; z |]
  | 14 -> [| z; z; z; z; z; z; z; z; z; z; z; z; z; z |]
  | 15 -> [| z; z; z; z; z; z; z; z; z; z; z; z; z; z; z |]
  | 16 -> [| z; z; z; z; z; z; z; z; z; z; z; z; z; z; z; z |]
  | n -> Array.make n 0

(* Per-site IC statistics: live caches plus retired counters, merged by
   site, ordered by (method, site ordinal). A site can contribute from
   several live code objects once inlining copies it into other methods'
   compiled bodies. *)
let ic_stats (vm : vm) : ic_stat list =
  let acc = Hashtbl.create 16 in
  let fold site selector h m g =
    if h + m + g > 0 then
      match Hashtbl.find_opt acc site with
      | Some st ->
          st.st_hits <- st.st_hits + h;
          st.st_misses <- st.st_misses + m;
          st.st_mega <- st.st_mega + g
      | None ->
          Hashtbl.replace acc site
            { st_site = site; st_selector = selector;
              st_hits = h; st_misses = m; st_mega = g }
  in
  Hashtbl.iter
    (fun site (st : ic_stat) ->
      fold site st.st_selector st.st_hits st.st_misses st.st_mega)
    vm.ic_retired;
  Array.iter
    (function
      | Some (e : prepared_entry) ->
          Array.iter
            (fun (ic : Ic.t) ->
              fold ic.ic_site ic.selector ic.hits ic.misses ic.mega)
            e.pcode.ics
      | None -> ())
    vm.prepared_cache;
  Hashtbl.fold (fun _ st acc -> st :: acc) acc []
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

(* The threaded tier's intrinsics; [a k] is operand [k], boxed, and an
   Int result is boxed with [box_int] for the slot it is unboxed into. *)
let eval_intrinsic (vm : vm) (intr : intrinsic) (a : int -> value) : value =
  match intr with
  | Iprint_int ->
      Buffer.add_string vm.out (string_of_int (as_int (a 0)));
      Vunit
  | Iprint_bool ->
      Buffer.add_string vm.out (string_of_bool (as_bool (a 0)));
      Vunit
  | Iprint_str ->
      Buffer.add_string vm.out (as_str (a 0));
      Vunit
  | Istr_len -> box_int (String.length (as_str (a 0)))
  | Istr_get ->
      let s = as_str (a 0) and i = as_int (a 1) in
      if i < 0 || i >= String.length s then
        trap "string index %d out of bounds" i;
      box_int (Char.code s.[i])
  | Istr_eq -> vbool (as_str (a 0) = as_str (a 1))
  | Iabs -> box_int (abs (as_int (a 0)))
  | Imin -> box_int (min (as_int (a 0)) (as_int (a 1)))
  | Imax -> box_int (max (as_int (a 0)) (as_int (a 1)))

(* A call passes the caller's activation state and the slots of its
   arguments in it; the callee's frames are built from them directly
   (see [exec_threaded]). *)
let rec invoke (vm : vm) (m : meth_id) (st : tstate) (cargs : int array) : value =
  vm.on_entry m;
  match installed vm m with
  | Some cfn -> (
      match vm.attrib with
      | None -> exec_installed vm m cfn st cargs
      | Some a ->
          (* enter/leave bracket the activation by hand (no closures, no
             Fun.protect): this sits on the invocation path, and the
             disabled path must stay one option check *)
          Attribution.enter a ~meth:m ~tier:Attribution.Jit ~now:vm.cycles;
          (match exec_installed vm m cfn st cargs with
          | v ->
              Attribution.leave a ~now:vm.cycles;
              v
          | exception e ->
              Attribution.leave a ~now:vm.cycles;
              raise e))
  | None -> (
      let mm = Ir.Program.meth vm.prog m in
      match mm.body with
      | None -> trap "abstract method %s invoked" mm.m_name
      | Some fn -> (
          match vm.attrib with
          | None -> exec_interp vm m fn st cargs
          | Some a ->
              Attribution.enter a ~meth:m ~tier:Attribution.Interp ~now:vm.cycles;
              (match exec_interp vm m fn st cargs with
              | v ->
                  Attribution.leave a ~now:vm.cycles;
                  v
              | exception e ->
                  Attribution.leave a ~now:vm.cycles;
                  raise e)))

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

and exec_installed (vm : vm) (m : meth_id) (cfn : fn) (st : tstate)
    (cargs : int array) : value =
  match vm.backend with
  | Reference -> exec_ref vm ~mode:Compiled ~meth:m cfn st cargs
  | Threaded ->
      exec_threaded vm (threaded_for vm ~mode:Compiled m cfn).tcode st cargs

(* The interpreted tier counts the invocation: the threaded path through
   the cell its cache entry baked, the reference walker by key. *)
and exec_interp (vm : vm) (m : meth_id) (fn : fn) (st : tstate)
    (cargs : int array) : value =
  match vm.backend with
  | Reference ->
      Profile.record_invocation vm.profiles m;
      exec_ref vm ~mode:Interpreted ~meth:m fn st cargs
  | Threaded ->
      let e = threaded_for vm ~mode:Interpreted m fn in
      incr e.inv;
      exec_threaded vm e.tcode st cargs

(* The cache entry of a method's threaded code. The lookup is guarded by
   physical identity of the source body (even if an install slipped past
   [set_installed], a replaced body can never execute stale prepared
   code) and by profile identity + generation (a swapped or cleared
   profile invalidates the baked counter cells). A miss prepares and
   lowers the body once; the entry is never re-lowered. *)
and threaded_for (vm : vm) ~(mode : mode) (m : meth_id) (fn : fn) :
    prepared_entry =
  let key = cache_key m mode in
  match cache_slot vm key with
  | Some e
    when e.src == fn && e.prof == vm.profiles
         && e.gen = Profile.generation vm.profiles ->
      e
  | stale ->
      (match stale with Some e -> retire_ics vm e.pcode | None -> ());
      let pcode = Prepared.prepare ~cost:vm.cost vm.prog fn in
      let tcode = lower_threaded vm ~mode ~meth:m ~src:fn pcode in
      let inv =
        match mode with
        | Interpreted -> Profile.invocation_cell vm.profiles m
        | Compiled -> ref 0
      in
      let e =
        { src = fn; prof = vm.profiles; gen = Profile.generation vm.profiles;
          inv; pcode; tcode }
      in
      cache_set vm key (Some e);
      e

(* ---------- threaded backend: closures instead of a dispatch match ----

   [lower_threaded] turns a [Prepared.code] into a flat array of handler
   closures indexed by pc — one per block prologue, body segment and
   terminator. Each handler performs its instruction and tail-calls the
   successor handler directly (direct threading: control never returns
   to a dispatch loop mid-method), with a dispatch loop's per-step
   [match pi.op], operand-field loads and cost additions all paid once
   at lowering: operands, the summed dispatch+static cost, the bound
   profile holders and jump-target handlers live in the closure
   environments. A handler is bookkeeping ∘ effect ∘ goto-next, where
   the effect ([op_effect]) is the instruction's bare semantic action.

   Superinstructions go one step further: a fused segment's handler
   ([fused_handler], the Deegen-style combinator) strings the
   constituents' *effect* closures behind a single batched
   step/budget/cycle preamble that charges [Cost.fused_cost] — one
   budget check and two counter updates for the whole run instead of one
   per op.

   Observable equivalence: no fusable op can call out, profile or
   otherwise observe the counters mid-segment ([Prepared.fusable]
   excludes calls), so batching is invisible on the non-trapping path —
   the totals at every call, profile record and method exit are
   bit-identical to [exec_ref]. On the trapping paths
   the handler re-aligns the counters to exactly the stepwise state
   before re-raising, and a step budget that would die mid-segment is
   replayed stepwise so the trap lands on the precise constituent. The
   differential suite pins all of this. *)

and lower_threaded (vm : vm) ~(mode : mode) ~(meth : meth_id) ~(src : fn)
    (pcode : Prepared.code) : tcode =
  let profiling = mode = Interpreted in
  let plan = Prepared.plan_fusion pcode in
  List.iter (fun (p, sites) -> note_superinst vm p ~sites) plan.Prepared.fp_patterns;
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
     terminator. The entry block gets an extra prologue for the edgeless
     initial entry when it has phis (reaching a phi with no input is the
     same internal error the other backends report). *)
  let npcs = ref 0 in
  let alloc k =
    let p = !npcs in
    npcs := p + k;
    p
  in
  let prologue_base = Array.make nb 0 in
  let entry_prologue = ref (-1) in
  let seg_base = Array.make nb 0 in
  let term_pc = Array.make nb 0 in
  Array.iteri
    (fun bi (b : Prepared.pblock) ->
      let nphis = Array.length b.phi_dests in
      let nedges = Array.length b.pred_bids in
      prologue_base.(bi) <- alloc (if nphis = 0 then 1 else max nedges 1);
      if bi = pcode.entry && nphis > 0 then entry_prologue := alloc 1;
      seg_base.(bi) <- alloc (Array.length plan.Prepared.fp_segments.(bi));
      term_pc.(bi) <- alloc 1)
    blocks;
  let pc_of_edge (target : int) (edge : int) : int =
    let tb = blocks.(target) in
    if Array.length tb.phi_dests = 0 || Array.length tb.pred_bids = 0 then
      prologue_base.(target)
    else prologue_base.(target) + edge
  in
  let entry_pc =
    if !entry_prologue >= 0 then !entry_prologue
    else prologue_base.(pcode.entry)
  in
  let handlers : thandler array = Array.make !npcs (fun _ -> Vunit) in
  (* one pre-decoded op -> its bare semantic action on the frames, no
     bookkeeping, no dispatch. [boxed_effect] handles every op on any
     frames: it reads operands boxed, writes results through [set_slot]
     and computes through [eval_binop]/[eval_unop], so its traps are the
     reference walker's. [op_effect] picks, from the operands' frames, a
     variant that reads and writes the frames directly — typechecked
     code always gets one — and falls back to [boxed_effect]. *)
  let boxed_effect (pi : Prepared.pinstr) : tstate -> unit =
    let dest = pi.dest in
    match pi.op with
    | Pconst v -> fun st -> set_slot st dest v
    | Pparam _ -> fun _ -> ()
    | Punop (op, a) -> fun st -> set_slot st dest (eval_unop op (get_slot st a))
    | Pbinop (op, a, b) ->
        fun st -> set_slot st dest (eval_binop op (get_slot st a) (get_slot st b))
    | Pcall { callee; cargs; site; ic } ->
        fun st ->
          set_slot st dest (do_call vm ?ic ~profiling ~meth ~callee ~site st cargs)
    | Pnew { cls; defaults } ->
        fun st -> set_slot st dest (Vobj { o_cls = cls; fields = Array.copy defaults })
    | Pgetfield { obj; slot; fname } ->
        fun st ->
          let o = as_obj (get_slot st obj) in
          if slot >= Array.length o.fields then
            trap "internal: bad field slot for %s" fname;
          set_slot st dest o.fields.(slot)
    | Psetfield { obj; slot; fname; value } ->
        fun st ->
          let o = as_obj (get_slot st obj) in
          if slot >= Array.length o.fields then
            trap "internal: bad field slot for %s" fname;
          o.fields.(slot) <- get_slot st value;
          set_slot st dest Vunit
    | Pnewarray { ety; len } ->
        fun st ->
          let n = as_int (get_slot st len) in
          vm.cycles <- vm.cycles + Cost.alloc_fields_cost vm.cost n;
          set_slot st dest (alloc_array ety n)
    | Parrayget { arr; idx } ->
        fun st ->
          let a = as_arr (get_slot st arr) in
          let i = as_int (get_slot st idx) in
          if i < 0 || i >= Array.length a.elems then
            trap "array index %d out of bounds" i;
          set_slot st dest (Array.unsafe_get a.elems i)
    | Parrayset { arr; idx; value } ->
        fun st ->
          let a = as_arr (get_slot st arr) in
          let i = as_int (get_slot st idx) in
          if i < 0 || i >= Array.length a.elems then
            trap "array index %d out of bounds" i;
          Array.unsafe_set a.elems i (get_slot st value);
          set_slot st dest Vunit
    | Parraylen a ->
        fun st -> set_slot st dest (Vint (Array.length (as_arr (get_slot st a)).elems))
    | Ptypetest { obj; cls } ->
        fun st ->
          set_slot st dest
            (match get_slot st obj with
            | Vobj o -> vbool (Ir.Program.is_subclass vm.prog ~sub:o.o_cls ~sup:cls)
            | Vnull -> vfalse
            | _ -> trap "typetest on a non-object")
    | Pintrinsic (intr, ia) ->
        fun st -> set_slot st dest (eval_intrinsic vm intr (fun k -> get_slot st ia.(k)))
  in
  let op_effect (pi : Prepared.pinstr) : tstate -> unit =
    let open Prepared in
    let d = index pi.dest in
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
        | _ -> boxed_effect pi)
    | Pcall { callee; cargs; site; ic }, Kval ->
        fun st ->
          Array.unsafe_set st.t_frame d
            (do_call vm ?ic ~profiling ~meth ~callee ~site st cargs)
    | Pcall { callee; cargs; site; ic }, Kint ->
        fun st ->
          Array.unsafe_set st.t_ints d
            (match do_call vm ?ic ~profiling ~meth ~callee ~site st cargs with
            | Vint n -> n
            | v -> as_int v)
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
          Array.unsafe_set st.t_ints d
            (match o.fields.(slot) with Vint n -> n | v -> as_int v)
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
          Array.unsafe_set st.t_ints d
            (match Array.unsafe_get a.elems i with Vint n -> n | v -> as_int v)
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
    | _ -> boxed_effect pi
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
     fusable run can observe the counters ([Prepared.fusable] excludes
     calls, and profiling happens at block entries and branches), so the
     only places the batching could show are the trapping paths, which
     re-align the counters to the exact stepwise state: a budget that
     would die mid-segment is replayed stepwise so the trap fires on the
     precise constituent, and an effect trap un-charges the constituents
     that never ran before re-raising. *)
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
     tier's lazily-bound block-counter tick, then the phi parallel move
     specialized for one incoming edge *)
  let prologue_handler (b : Prepared.pblock) ~(edge : int) ~(nexth : thandler) :
      thandler =
    let holder = b.prof in
    let src_bid = b.src_bid in
    let nphis = Array.length b.phi_dests in
    let tick_block () =
      vm.steps <- vm.steps + 1;
      if vm.steps > vm.max_steps then trap "step budget exceeded";
      if profiling then
        match holder.cell with
        | Some c -> incr c
        | None ->
            let c = Profile.block_cell vm.profiles meth src_bid in
            holder.cell <- Some c;
            incr c
    in
    (* the common no-phi prologues inline the tick — they run once per
       block entry, squarely on the hot path *)
    if nphis = 0 then
      if profiling then fun st ->
        vm.steps <- vm.steps + 1;
        if vm.steps > vm.max_steps then trap "step budget exceeded";
        (match holder.cell with
        | Some c -> incr c
        | None ->
            let c = Profile.block_cell vm.profiles meth src_bid in
            holder.cell <- Some c;
            incr c);
        nexth st
      else fun st ->
        vm.steps <- vm.steps + 1;
        if vm.steps > vm.max_steps then trap "step budget exceeded";
        nexth st
    else begin
      let srcs, prev =
        if edge < 0 then (Array.make nphis Prepared.none, -1)
        else (b.phi_srcs.(edge), b.pred_bids.(edge))
      in
      let dests = b.phi_dests in
      (* every phi has an input on this edge, in the phi's own frame *)
      let same_frame s d =
        s <> Prepared.none && Prepared.kind s = Prepared.kind d
      in
      let clean = Array.for_all2 same_frame srcs dests in
      if clean && nphis = 1 then begin
        let d0 = Prepared.index dests.(0) and s0 = Prepared.index srcs.(0) in
        if dests.(0) >= 0 then fun st ->
          tick_block ();
          vm.steps <- vm.steps + 1;
          vm.cycles <- vm.cycles + phi_cost;
          let f = st.t_frame in
          Array.unsafe_set f d0 (Array.unsafe_get f s0);
          nexth st
        else fun st ->
          tick_block ();
          vm.steps <- vm.steps + 1;
          vm.cycles <- vm.cycles + phi_cost;
          let n = st.t_ints in
          Array.unsafe_set n d0 (Array.unsafe_get n s0);
          nexth st
      end
      else if clean then begin
        (* simultaneous assignment through a scratch row per frame;
           sharing the scratch across activations is safe — nothing
           re-enters this code object mid-move *)
        let moves in_ints =
          let ks =
            List.filter (fun i -> (dests.(i) < 0) = in_ints) (List.init nphis Fun.id)
          in
          let pick a = Array.of_list (List.map (fun i -> Prepared.index a.(i)) ks) in
          (pick srcs, pick dests)
        in
        let vsrcs, vdests = moves false and isrcs, idests = moves true in
        let nv = Array.length vsrcs and ni = Array.length isrcs in
        let vtmp = Array.make nv Vunit and itmp = Array.make ni 0 in
        fun st ->
          tick_block ();
          vm.steps <- vm.steps + nphis;
          vm.cycles <- vm.cycles + (nphis * phi_cost);
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
      end
      else
        (* a phi with no input for this edge (the edgeless initial entry,
           or ill-formed SSA) or one fed from the other frame: move
           stepwise through boxed values, replicating the stepwise trap *)
        let vids = b.phi_vids in
        fun st ->
          tick_block ();
          let tmp = Array.make nphis Vunit in
          for i = 0 to nphis - 1 do
            vm.steps <- vm.steps + 1;
            vm.cycles <- vm.cycles + phi_cost;
            let s = srcs.(i) in
            if s = Prepared.none then
              trap "internal: phi v%d has no input for edge b%d" vids.(i) prev;
            tmp.(i) <- get_slot st s
          done;
          for i = 0 to nphis - 1 do
            set_slot st dests.(i) tmp.(i)
          done;
          nexth st
    end
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
  let enter_guard (b : Prepared.pblock) ~(nexth : thandler) : thandler =
    let holder = b.prof in
    fun st ->
      match holder.cell with
      | Some c when (not b.osr_skip) && !c >= vm.osr_threshold -> (
          match vm.on_osr meth b.src_bid with
          | Osr_no ->
              b.osr_skip <- true;
              nexth st
          | Osr_wait -> nexth st
          | Osr_enter tr -> osr_call vm ~abort:true tr (read_vid st))
      | _ -> nexth st
  in
  let exit_guard (b : Prepared.pblock) ~(nexth : thandler) : thandler =
    fun st ->
      if vm.deopt_epoch <> st.t_depoch then (
        match vm.on_osr_exit meth src b.src_bid with
        | Exit_stay ->
            st.t_depoch <- vm.deopt_epoch;
            nexth st
        | Exit_watch -> nexth st
        | Exit_to tr -> osr_call vm tr (read_vid st))
      else nexth st
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
    | Pif { cond; site; tb; tedge; fb; fedge; bprof } ->
        let tpc = pc_of_edge tb tedge and fpc = pc_of_edge fb fedge in
        (* a Bool condition is read from the int frame; any other is
           read boxed, so [as_bool] traps as the reference walker does *)
        let unboxed = Prepared.kind cond = Kbool and ci = Prepared.index cond in
        if profiling then fun st ->
          vm.cycles <- vm.cycles + tc;
          let taken =
            if unboxed then Array.unsafe_get st.t_ints ci <> 0
            else as_bool (get_slot st cond)
          in
          (match bprof.brec with
          | Some br -> Profile.brec_record br ~taken
          | None ->
              let br = Profile.branch_cell vm.profiles site in
              bprof.brec <- Some br;
              Profile.brec_record br ~taken);
          if taken then (Array.unsafe_get handlers tpc) st
          else (Array.unsafe_get handlers fpc) st
        else if unboxed then fun st ->
          vm.cycles <- vm.cycles + tc;
          if Array.unsafe_get st.t_ints ci <> 0 then
            (Array.unsafe_get handlers tpc) st
          else (Array.unsafe_get handlers fpc) st
        else fun st ->
          vm.cycles <- vm.cycles + tc;
          if as_bool (get_slot st cond) then (Array.unsafe_get handlers tpc) st
          else (Array.unsafe_get handlers fpc) st
    | Punreachable ->
        fun _st ->
          vm.cycles <- vm.cycles + tc;
          trap "reached an unreachable block in %s" pcode.fname
    | Pdead b' ->
        fun _st ->
          vm.cycles <- vm.cycles + tc;
          invalid_arg
            (Printf.sprintf "Fn.block: dead block b%d in %s" b' pcode.fname)
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
      let firsth = handlers.(first) in
      let firsth =
        if profiling then
          if vm.osr_threshold < max_int && vm.osr_headers meth src b.src_bid
          then enter_guard b ~nexth:firsth
          else firsth
        else if vm.osr_exit_armed && vm.osr_headers meth src b.src_bid then
          exit_guard b ~nexth:firsth
        else firsth
      in
      let nphis = Array.length b.phi_dests in
      let nedges = Array.length b.pred_bids in
      if nphis = 0 || nedges = 0 then
        handlers.(prologue_base.(bi)) <-
          prologue_handler b ~edge:(-1) ~nexth:firsth
      else
        for e = 0 to nedges - 1 do
          handlers.(prologue_base.(bi) + e) <-
            prologue_handler b ~edge:e ~nexth:firsth
        done;
      if bi = pcode.entry && nphis > 0 then
        handlers.(!entry_prologue) <-
          prologue_handler b ~edge:(-1) ~nexth:firsth)
    blocks;
  {
    t_handlers = handlers;
    t_entry = entry_pc;
    t_nregs = pcode.nregs;
    t_nints = pcode.nints;
    t_params =
      Array.concat (Array.to_list (Array.map (fun (k, s) -> [| k; s |]) pcode.params));
    t_fname = pcode.fname;
  }

(* Builds the callee's frames and copies each argument, named by its slot
   in the caller's activation, into its parameter's slot. *)
and exec_threaded (vm : vm) (t : tcode) (caller : tstate) (cargs : int array) :
    value =
  vm.depth <- vm.depth + 1;
  if vm.depth > vm.max_depth then trap "call stack overflow in %s" t.t_fname;
  let st =
    { t_frame = new_frame t.t_nregs; t_ints = new_ints t.t_nints;
      t_depoch = vm.deopt_epoch }
  in
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
  (* OSR: compiled activations re-validate against the engine at loop
     headers only after an invalidation moved the deopt epoch *)
  let depoch = ref vm.deopt_epoch in
  let rec run (prev : bid) (b : bid) : value =
    (* blocks count as steps too: an instruction-free cycle (possible after
       aggressive DCE) must still exhaust the step budget *)
    vm.steps <- vm.steps + 1;
    if vm.steps > vm.max_steps then trap "step budget exceeded";
    if profiling then Profile.record_block vm.profiles meth b;
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
    else if vm.deopt_epoch <> !depoch then (
      match vm.on_osr_exit meth fn b with
      | Exit_stay ->
          depoch := vm.deopt_epoch;
          finish b blk
      | Exit_watch -> finish b blk
      | Exit_to tr -> osr_call vm tr get)
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
        if profiling then Profile.record_branch vm.profiles site ~taken;
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
              (* cached: the scan resolved the target. The entry's count
                 cell aliases the profile's receiver-histogram cell, so
                 recording the receiver is one increment. *)
              ic.hits <- ic.hits + 1;
              if profiling then incr e.e_count;
              let observed = Profile.receiver_count vm.profiles site in
              charge vm
                (Cost.call_overhead vm.cost ~virtual_:true ~targets:(max observed 1));
              invoke vm e.e_target st cargs
          | _ -> (
              Ic.note_miss ic;
              let cell =
                if profiling then begin
                  let c =
                    Profile.rsite_cell (Profile.receiver_site vm.profiles site) o.o_cls
                  in
                  incr c;
                  Some c
                end
                else
                  (* non-profiling tiers never create profile entries; an
                     existing cell is still shared so a later profiled hit
                     through this entry counts into the real histogram *)
                  Option.bind
                    (Profile.find_receiver_site vm.profiles site)
                    (fun rs -> Profile.find_rsite_cell rs o.o_cls)
              in
              let observed = Profile.receiver_count vm.profiles site in
              charge vm
                (Cost.call_overhead vm.cost ~virtual_:true ~targets:(max observed 1));
              match Ir.Program.resolve vm.prog o.o_cls sel with
              | Some m ->
                  Ic.add ic
                    { e_cls = o.o_cls; e_target = m;
                      e_count = (match cell with Some c -> c | None -> ref 0) };
                  invoke vm m st cargs
              | None ->
                  trap "class %s does not understand %s"
                    (Ir.Program.cls vm.prog o.o_cls).c_name sel))
      | None -> (
          if profiling then Profile.record_receiver vm.profiles site o.o_cls;
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
   every later call on this VM. *)
let invoke (vm : vm) (m : meth_id) (args : value array) : value =
  let depth = vm.depth in
  try invoke vm m (entry_state args) (arg_slots (Array.length args))
  with e ->
    vm.depth <- depth;
    raise e

let exec (vm : vm) ~(mode : mode) ~(meth : meth_id) (fn : fn) (args : value array) :
    value =
  let depth = vm.depth in
  try
    match vm.backend with
    | Reference ->
        exec_ref vm ~mode ~meth fn (entry_state args) (arg_slots (Array.length args))
    | Threaded ->
        (* one-shot bodies (tests pinning a tier on a synthetic fn) are
           prepared and lowered per call; cached paths go through
           [invoke] *)
        let pcode = Prepared.prepare ~cost:vm.cost vm.prog fn in
        exec_threaded vm (lower_threaded vm ~mode ~meth ~src:fn pcode)
          (entry_state args) (arg_slots (Array.length args))
  with e ->
    vm.depth <- depth;
    raise e

(* Runs a program's [main]; returns its result value. *)
let run_main (vm : vm) : value =
  if vm.prog.main < 0 then trap "program has no main";
  invoke vm vm.prog.main [| Vunit |]

(* Convenience for tests: run an arbitrary method by name. *)
let run_meth (vm : vm) (name : string) (args : value list) : value =
  match Ir.Program.find_meth vm.prog name with
  | Some m -> invoke vm m (Array.of_list args)
  | None -> trap "no method named %s" name
