(* Differential tests for the threaded execution tier: the [Threaded]
   backend — subroutine-threaded handler closures with superinstruction
   fusion — must be observationally identical to the [Reference] IR
   walker: same output, same results, same simulated cycles, same step
   counts, same folded profiles. Fusion batches the bookkeeping of a
   linear run of ops into one handler, and every block fuses at its
   method's first lowering, so these tests look for drift at every
   observable point of fused code, including traps landing mid-segment.
   The frames group pins the size and layout of a threaded activation's
   two frames, what an interpreted call and Int and Bool arithmetic
   allocate, and that the tier refuses ill-formed or ill-typed IR before
   running it. The every-workload and interpreter-only random-program
   differentials live in test_differential.ml. *)

open Util

(* ---------- random programs, tiered ---------- *)

(* Hot methods compile mid-run under both backends: the incremental
   inliner at hotness 2 installs code while the interpreted rest keeps
   running fused, so stale prepared code or accounting drift shows up in
   the clock, the profiles or the installs. *)
type run = {
  output : string;
  result : string;
  cycles : int;
  steps : int;
  profile : string;
  installed : int;
}

let engine_run (backend : Runtime.Interp.backend) (src : string) : run =
  let engine =
    Util.engine ~hotness:2 ~verify:false src (Some (Util.incremental ())) "diff"
  in
  engine.vm.backend <- backend;
  let v = Jit.Engine.run_main engine in
  {
    output = Jit.Engine.output engine;
    result = Runtime.Values.to_string v;
    cycles = engine.vm.cycles;
    steps = engine.vm.steps;
    profile = Runtime.Profile.to_text engine.vm.profiles;
    installed = Jit.Engine.installed_methods engine;
  }

let prop_tiered_differential =
  QCheck.Test.make ~name:"threaded = reference on random programs (tiered)"
    ~count:55 Sel_gen.program (fun src ->
      let ref_ = engine_run Runtime.Interp.Reference src
      and thr = engine_run Runtime.Interp.Threaded src in
      if ref_ <> thr then
        QCheck.Test.fail_reportf
          "tiered diverged:@.cycles %d vs %d, steps %d vs %d@.output %S vs %S"
          ref_.cycles thr.cycles ref_.steps thr.steps ref_.output thr.output;
      true)

(* ---------- fusion regression: block-entry profile cells ---------- *)

(* A hot loop whose body is one long fusable run. The whole run lowers
   to a single fused handler sitting right behind the block-entry
   profile cell. The regression this pins: the fused segment must still
   count every constituent op (steps), must charge exactly
   [Cost.fused_cost] (= the unfused sum, so the clock agrees with the
   reference at every call boundary), and the block profile counts must
   keep ticking identically. *)

let hot_src =
  {|def bench(): Int = {
  var acc = 0;
  var i = 0;
  while (i < 25) {
    acc = acc + i * 3 - (i / 2) + (acc % 7);
    acc = acc + (i - 1) * 2;
    i = i + 1;
  };
  acc
}
def main(): Unit = { println(bench()) }|}

let warm_vm (backend : Runtime.Interp.backend) ~(calls : int) :
    Runtime.Interp.vm * int list =
  let prog = Util.compile hot_src in
  let vm = Runtime.Interp.create ~backend prog in
  ignore (Runtime.Interp.run_main vm);
  let deltas = ref [] in
  for _ = 1 to calls do
    let c0 = vm.cycles in
    ignore (Runtime.Interp.run_meth vm "bench" [ Runtime.Values.Vunit ]);
    deltas := (vm.cycles - c0) :: !deltas
  done;
  (vm, List.rev !deltas)

let test_fused_block_profile () =
  (* every call runs the fused lowering: the per-call cycle delta must
     equal the reference walker's delta for every call *)
  let calls = 50 in
  let rvm, rdeltas = warm_vm Runtime.Interp.Reference ~calls in
  let tvm, tdeltas = warm_vm Runtime.Interp.Threaded ~calls in
  Alcotest.(check (list int)) "per-call cycle deltas identical" rdeltas tdeltas;
  Alcotest.(check int) "steps" rvm.steps tvm.steps;
  Alcotest.(check int) "cycles" rvm.cycles tvm.cycles;
  Alcotest.(check string) "folded profiles"
    (Runtime.Profile.to_text rvm.profiles)
    (Runtime.Profile.to_text tvm.profiles);
  let stats = Runtime.Interp.superinst_stats tvm in
  Alcotest.(check bool) "superinstructions were mined" true (stats <> []);
  Alcotest.(check bool) "some fused pattern has >= 2 constituents" true
    (List.exists
       (fun (s : Runtime.Interp.sstat) -> String.contains s.ss_pattern ';')
       stats);
  Alcotest.(check bool) "reference mines nothing" true
    (Runtime.Interp.superinst_stats rvm = [])

(* Fusion is planned when a method is first lowered, so a hot loop in a
   method invoked once — [bench], called once from [main] — runs fused. *)
let test_single_invocation_fused () =
  let prog = Util.compile hot_src in
  let rvm = Runtime.Interp.create ~backend:Runtime.Interp.Reference prog in
  let tvm = Runtime.Interp.create prog in
  ignore (Runtime.Interp.run_main rvm);
  ignore (Runtime.Interp.run_main tvm);
  Alcotest.(check bool) "superinstructions were mined" true
    (Runtime.Interp.superinst_stats tvm <> []);
  Alcotest.(check int) "steps" rvm.steps tvm.steps;
  Alcotest.(check int) "cycles" rvm.cycles tvm.cycles;
  Alcotest.(check string) "output" (Runtime.Interp.output rvm)
    (Runtime.Interp.output tvm);
  Alcotest.(check string) "folded profiles"
    (Runtime.Profile.to_text rvm.profiles)
    (Runtime.Profile.to_text tvm.profiles)

(* The fused total is definitionally the unfused sum — pin the arithmetic
   the handler's trap fix-up path relies on (prefix sums over this). *)
let test_fused_cost_identity () =
  let dispatch = 7 and costs = [ 3; 0; 11; 2 ] in
  Alcotest.(check int) "fused_cost = sum of dispatch + static"
    (List.fold_left (fun a c -> a + dispatch + c) 0 costs)
    (Runtime.Cost.fused_cost ~dispatch costs)

(* ---------- traps landing mid-segment ---------- *)

(* The fused handler batches its step/cycle bookkeeping, then unwinds it
   when a constituent traps. Sweep the step budget across a window that
   straddles fused segments: every landing point must report the same
   message, steps, cycles and output as the reference walker. *)

let budget_snap (backend : Runtime.Interp.backend) (extra : int) :
    string * int * int * string =
  let prog = Util.compile hot_src in
  let vm = Runtime.Interp.create ~backend prog in
  ignore (Runtime.Interp.run_main vm);
  (* a few warm calls first, so the trapping call starts mid-run *)
  for _ = 1 to 4 do
    ignore (Runtime.Interp.run_meth vm "bench" [ Runtime.Values.Vunit ])
  done;
  vm.max_steps <- vm.steps + extra;
  let msg =
    match Runtime.Interp.run_meth vm "bench" [ Runtime.Values.Vunit ] with
    | v -> "no trap: " ^ Runtime.Values.to_string v
    | exception Runtime.Values.Trap m -> m
  in
  (msg, vm.steps, vm.cycles, Runtime.Interp.output vm)

let test_budget_mid_segment () =
  for extra = 1 to 40 do
    let rmsg, rsteps, rcycles, rout = budget_snap Runtime.Interp.Reference extra in
    let tmsg, tsteps, tcycles, tout = budget_snap Runtime.Interp.Threaded extra in
    let what = Printf.sprintf "budget +%d" extra in
    Alcotest.(check string) (what ^ ": message") rmsg tmsg;
    Alcotest.(check int) (what ^ ": steps") rsteps tsteps;
    Alcotest.(check int) (what ^ ": cycles") rcycles tcycles;
    Alcotest.(check string) (what ^ ": output") rout tout
  done

(* Division by zero inside what fuses into a segment: the trap must
   surface at the exact same steps/cycles as stepwise execution. *)
let test_trap_mid_segment () =
  let src =
    {|def bench(d: Int): Int = {
  var acc = 0;
  var i = 0;
  while (i < 6) {
    acc = acc + i * 2;
    acc = acc + 100 / (d - i);
    acc = acc - 1;
    i = i + 1;
  };
  acc
}
def main(): Unit = { println(bench(100)) }|}
  in
  let snap backend =
    let prog = Util.compile src in
    let vm = Runtime.Interp.create ~backend prog in
    ignore (Runtime.Interp.run_main vm);
    for _ = 1 to 4 do
      ignore
        (Runtime.Interp.run_meth vm "bench"
           [ Runtime.Values.Vunit; Runtime.Values.Vint 100 ])
    done;
    (* now trap mid-loop: d = 3 divides by zero on iteration i = 3 *)
    let msg =
      match
        Runtime.Interp.run_meth vm "bench"
          [ Runtime.Values.Vunit; Runtime.Values.Vint 3 ]
      with
      | v -> "no trap: " ^ Runtime.Values.to_string v
      | exception Runtime.Values.Trap m -> m
    in
    (msg, vm.steps, vm.cycles, Runtime.Profile.to_text vm.profiles)
  in
  let rmsg, rsteps, rcycles, rprof = snap Runtime.Interp.Reference in
  let tmsg, tsteps, tcycles, tprof = snap Runtime.Interp.Threaded in
  Alcotest.(check string) "message" rmsg tmsg;
  Alcotest.(check int) "steps at trap" rsteps tsteps;
  Alcotest.(check int) "cycles at trap" rcycles tcycles;
  Alcotest.(check string) "profiles at trap" rprof tprof

(* ---------- mined-table determinism ---------- *)

let table_text (stats : Runtime.Interp.sstat list) : string =
  String.concat "\n"
    (List.map
       (fun (s : Runtime.Interp.sstat) ->
         Printf.sprintf "%s sites=%d" s.ss_pattern s.ss_sites)
       stats)

let test_superinst_determinism () =
  let mine () =
    let vm, _ = warm_vm Runtime.Interp.Threaded ~calls:50 in
    table_text (Runtime.Interp.superinst_stats vm)
  in
  let t1 = mine () and t2 = mine () in
  Alcotest.(check bool) "table nonempty" true (t1 <> "");
  Alcotest.(check string) "same run, same mined table" t1 t2

(* ---------- frames and calls ---------- *)

module Vids = Set.Make (Int)

(* The distinct vids a body's live blocks name: phi and instruction
   results, their operands (phi inputs included) and the terminators'
   operands. *)
let named_vids (fn : Ir.Types.fn) : Vids.t =
  Ir.Fn.fold_blocks
    (fun acc (blk : Ir.Types.block) ->
      let acc =
        List.fold_left
          (fun acc v -> Vids.union acc (Vids.of_list (v :: Ir.Instr.operands (Ir.Fn.kind fn v))))
          acc blk.instrs
      in
      match blk.term with
      | If { cond = v; _ } | Return v -> Vids.add v acc
      | Goto _ | Unreachable -> acc)
    Vids.empty fn

(* The frame a vid's static type puts it in: Int and Bool values in the
   int frame, every other value in the value frame. *)
let static_kind (fn : Ir.Types.fn) (v : int) : Runtime.Prepared.kind =
  match Ir.Instr.result_ty ~param_ty:(Array.get fn.param_tys) (Ir.Fn.kind fn v) with
  | Tint -> Kint
  | Tbool -> Kbool
  | _ -> Kval

(* Liveness recomputed naively, as one vid set per program point, on
   the blocks a path from the entry reaches. The points are where a
   frame holds values at once: the frame's build, where a call writes
   every [Param] before the entry block, with whatever is live into the
   entry block; each block's entry, where its phis are written; and the
   point right after every other definition, which counts the defined
   value even when nobody reads it. A [Param] defines nothing where it
   is listed, so a parameter is live from the build to its last use on
   any path, around a loop back into the entry block too. A phi's input
   is live out of its predecessor. *)
let live_points (fn : Ir.Types.fn) : Vids.t list =
  let open Ir.Types in
  let reachable = Ir.Fn.reachable fn in
  let is_phi v = Ir.Instr.is_phi (Ir.Fn.kind fn v) in
  let is_param v = match Ir.Fn.kind fn v with Param _ -> true | _ -> false in
  let blocks = List.filter reachable (Ir.Fn.block_ids fn) in
  let phis b = List.filter is_phi (Ir.Fn.block fn b).instrs in
  let live_in = Hashtbl.create 16 in
  let get_in b = Option.value ~default:Vids.empty (Hashtbl.find_opt live_in b) in
  let live_out b =
    List.fold_left
      (fun acc s ->
        List.fold_left
          (fun acc p ->
            match Ir.Fn.kind fn p with
            | Phi { inputs; _ } -> (
                match List.assoc_opt b inputs with Some x -> Vids.add x acc | None -> acc)
            | _ -> acc)
          (Vids.union acc (get_in s))
          (phis s))
      Vids.empty (Ir.Fn.succs fn b)
  in
  (* the sets right after each non-phi instruction, and the set live
     into the block *)
  let walk b =
    let blk = Ir.Fn.block fn b in
    let live =
      ref
        (match blk.term with
        | If { cond = v; _ } | Return v -> Vids.add v (live_out b)
        | Goto _ | Unreachable -> live_out b)
    in
    let after =
      List.fold_left
        (fun acc v ->
          let here = (v, !live) in
          if not (is_param v) then live := Vids.remove v !live;
          live := Vids.union !live (Vids.of_list (Ir.Instr.operands (Ir.Fn.kind fn v)));
          here :: acc)
        []
        (List.rev (List.filter (fun v -> not (is_phi v)) blk.instrs))
    in
    (after, Vids.diff !live (Vids.of_list (phis b)))
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        let i = snd (walk b) in
        if not (Vids.equal i (get_in b)) then begin
          Hashtbl.replace live_in b i;
          changed := true
        end)
      blocks
  done;
  let params =
    Ir.Fn.fold_blocks
      (fun acc (blk : block) -> acc @ List.filter is_param blk.instrs)
      [] fn
  in
  Vids.union (get_in fn.entry) (Vids.of_list params)
  :: List.concat_map
       (fun b ->
         Vids.union (get_in b) (Vids.of_list (phis b))
         :: List.filter_map
              (fun (v, s) -> if is_param v then None else Some (Vids.add v s))
              (fst (walk b)))
       blocks

(* A fresh inline-cache counter record per call site, for bodies
   prepared outside a VM. *)
let fresh_stat (site : Ir.Types.site) (selector : string) : Runtime.Ic.stat =
  { st_site = site; st_selector = selector; st_hits = 0; st_misses = 0; st_mega = 0 }

(* The slot allocator of [Prepared.prepare] against [live_points]: two
   vids live at one point never share a slot, every named vid's slot is
   in the frame of its static type, and each frame has exactly as many
   slots as the most values of it live at one point (1 when only blocks
   no path reaches name values of it: those values get slot 0). *)
let check_frames (what : string) (fn : Ir.Types.fn) (pcode : Runtime.Prepared.code) =
  let named = named_vids fn in
  let frame v = if static_kind fn v = Kval then 0 else 1 in
  Array.iteri
    (fun v s ->
      if Vids.mem v named <> (s <> Runtime.Prepared.none) then
        Alcotest.failf "%s: v%d is named %b but has slot %d" what v (Vids.mem v named) s;
      if Vids.mem v named && Runtime.Prepared.kind s <> static_kind fn v then
        Alcotest.failf "%s: v%d is in the wrong frame" what v)
    pcode.slots;
  let most = [| 0; 0 |] and seen = ref Vids.empty in
  List.iter
    (fun live ->
      let held = Hashtbl.create 16 and n = [| 0; 0 |] in
      Vids.iter
        (fun v ->
          let key = (frame v, Runtime.Prepared.index pcode.slots.(v)) in
          (match Hashtbl.find_opt held key with
          | Some u -> Alcotest.failf "%s: v%d and v%d, live at one point, share a slot" what u v
          | None -> Hashtbl.replace held key v);
          n.(frame v) <- n.(frame v) + 1)
        live;
      most.(0) <- max most.(0) n.(0);
      most.(1) <- max most.(1) n.(1);
      seen := Vids.union !seen live)
    (live_points fn);
  Vids.iter (fun v -> most.(frame v) <- max 1 most.(frame v)) (Vids.diff named !seen);
  Alcotest.(check int) (what ^ ": value frame") most.(0) pcode.nregs;
  Alcotest.(check int) (what ^ ": int frame") most.(1) pcode.nints

(* Every compiled body and every method body of a tiered run of each
   workload, so interpreted frontend code and inlined, optimized code
   both count. *)
let test_frame_slots () =
  let smaller = ref 0 in
  List.iter
    (fun (w : Workloads.Defs.t) ->
      let bodies = ref [] in
      let compiler prog profiles m =
        let body = (Util.incremental ()) prog profiles m in
        bodies := ((Ir.Program.meth prog m).m_name ^ " (compiled)", body) :: !bodies;
        body
      in
      let e =
        Jit.Engine.create (Workloads.Registry.compile w)
          { name = "slots"; compiler = Some compiler; hotness_threshold = 8;
            compile_cost_per_node = 50; verify = false }
      in
      ignore (Jit.Engine.run_main e);
      Ir.Program.iter_meths
        (fun (m : Ir.Types.meth) ->
          Option.iter (fun fn -> bodies := (m.m_name, fn) :: !bodies) m.body)
        e.vm.prog;
      List.iter
        (fun (name, fn) ->
          let pcode =
            Runtime.Prepared.prepare ~cost:Runtime.Cost.default ~ic_stat:fresh_stat e.vm.prog fn
          in
          check_frames (Printf.sprintf "%s/%s" w.name name) fn pcode;
          if pcode.nregs + pcode.nints < Vids.cardinal (named_vids fn) then incr smaller)
        !bodies)
    Workloads.Registry.all;
  Alcotest.(check bool) "some frame is smaller than the values its body names" true
    (!smaller > 0)

(* Liveness costs memory in proportion to what is live, not to blocks
   times values: one function of 8,000 [if]s that cannot fold (24,001
   blocks, 48,001 values, at most three live at a time) prepares with
   270 words a block, where bitsets of every value per block took
   4,120. *)
let test_prepare_memory () =
  let open Ir.Types in
  let n = 8_000 in
  let fn = Ir.Fn.create ~fname:"ifs" ~param_tys:[| Tunit; Tint |] ~rty:Tint in
  let b0 = Ir.Fn.add_block fn in
  fn.entry <- b0;
  let x = Ir.Fn.append fn b0 (Param 1) in
  let a = ref x and join = ref b0 in
  for i = 1 to n do
    let k = Ir.Fn.append fn !join (Const (Cint i)) in
    let c = Ir.Fn.append fn !join (Binop (Lt, !a, k)) in
    let t = Ir.Fn.add_block fn and e = Ir.Fn.add_block fn and j = Ir.Fn.add_block fn in
    Ir.Fn.set_term fn !join (If { cond = c; site = { sm = 0; sidx = i }; tb = t; fb = e });
    let up = Ir.Fn.append fn t (Binop (Add, !a, Ir.Fn.append fn t (Const (Cint 1)))) in
    Ir.Fn.set_term fn t (Goto j);
    let down = Ir.Fn.append fn e (Binop (Sub, !a, x)) in
    Ir.Fn.set_term fn e (Goto j);
    let p = Ir.Fn.append fn j (Phi { ty = Tint; inputs = [] }) in
    Ir.Fn.set_phi_inputs fn p [ (t, up); (e, down) ];
    a := p;
    join := j
  done;
  Ir.Fn.set_term fn !join (Return !a);
  Util.check_verifies fn;
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = words () in
  let code =
    Runtime.Prepared.prepare ~cost:Runtime.Cost.default ~ic_stat:fresh_stat
      (Ir.Program.create ()) fn
  in
  let per_block = (words () -. before) /. float (Array.length code.blocks) in
  Alcotest.(check int) "blocks" ((3 * n) + 1) (Array.length code.blocks);
  Alcotest.(check int) "int frame" 3 code.nints;
  if per_block >= 1000. then
    Alcotest.failf "preparing %d ifs allocates %.0f words a block (bound 1,000)" n per_block

(* A loop back into the entry block re-enters its [Param]s, which do
   nothing in the threaded tier: the call wrote the arguments when it
   built the frame. An allocator that took [v0 = param 0] for [v0]'s
   definition gave [v0]'s slot to [v6] after [v4], [v0]'s last use in
   b0, and its second pass multiplied by [v6]'s 0 or 1, returning
   1259557135292 after 93 steps. The walker exhausts the step budget. *)
let loop_into_entry =
  {|fn rand(Int, Int) : Int  entry=b0
b0:
  v0 = param 0
  v1 = param 1
  v2 = const 97
  v3 = shl v1, v2
  v4 = mul v1, v0
  v6 = lt v3, v4
  if v6 then b0 else b3 @m0.0
b3:
  v5 = bxor v1, v4
  return v5
|}

let test_loop_into_entry () =
  let fn = Ir.Parse.parse_fn loop_into_entry in
  Util.check_verifies fn;
  let run backend =
    let vm =
      Runtime.Interp.create ~backend ~max_steps:20_000 (Util.compile "def main(): Unit = {}")
    in
    let outcome =
      match
        Util.exec_compiled vm fn [ Runtime.Values.Vint 13; Runtime.Values.Vint (-7) ]
      with
      | v -> Runtime.Values.to_string v
      | exception Runtime.Values.Trap msg -> msg
    in
    (outcome, vm.steps, vm.cycles)
  in
  let r_out, r_steps, r_cycles = run Runtime.Interp.Reference in
  let t_out, t_steps, t_cycles = run Runtime.Interp.Threaded in
  Alcotest.(check string) "the walker runs out of steps" "step budget exceeded" r_out;
  Alcotest.(check string) "outcome" r_out t_out;
  Alcotest.(check int) "steps" r_steps t_steps;
  Alcotest.(check int) "cycles" r_cycles t_cycles

(* What an interpreted call allocates beyond the work it does: nothing
   for its activation, which runs in the record of its call depth, with
   [step]'s argument written straight into its slot. What remains is the
   box of the returned Int when it is at least 1024 (2 words, 1.80 a
   call over this loop) and, spread over the loop, [step]'s lowering and
   the first record of its depth: 1.89 words a call. [Gc.minor_words]
   sees every word, all of it small. *)
let test_call_allocation () =
  let words body =
    let src =
      Printf.sprintf
        {|def step(x: Int): Int = x + 1
def main(): Unit = {
  var i = 0;
  var acc = 0;
  while (i < 10000) { acc = acc + %s; i = i + 1 };
  println(acc)
}|}
        body
    in
    let vm = Runtime.Interp.create (Util.compile src) in
    let before = Gc.minor_words () in
    ignore (Runtime.Interp.run_main vm);
    Gc.minor_words () -. before
  in
  let per_call = (words "step(i)" -. words "(i + 1)") /. 10000. in
  if per_call > 2.5 then
    Alcotest.failf "a call allocates %.2f words beyond its inlined body (bound 2.5)"
      per_call

(* An interpreted body's block and branch counters are bound when it is
   lowered, so the first run of a block that has not run yet allocates
   no more than a later run: [f(1)] lowers [f] and runs the then block,
   and the first [f(-1)] is the first run of the else block. *)
let test_cold_block_allocation () =
  let vm =
    Runtime.Interp.create
      (Util.compile
         {|def f(x: Int): Int = if (x > 0) { x + 1 } else { x - 1 }
def main(): Unit = {}|})
  in
  let words x =
    let before = Gc.minor_words () in
    ignore (Runtime.Interp.run_meth vm "f" Runtime.Values.[ Vunit; Vint x ]);
    Gc.minor_words () -. before
  in
  ignore (words 1);
  let first = words (-1) in
  let second = words (-1) in
  if first > second then
    Alcotest.failf "the first run of the else block allocates %.0f words, a later one %.0f"
      first second

(* Three methods with frames of different sizes call each other in a
   cycle, small -> mid -> big -> small, so runs that start at different
   ones put different methods at each depth: every record is reused by
   activations whose frames are larger and smaller than its last one's,
   including after a run that trapped halfway down. Records are never
   cleared between activations, so a read of a slot no earlier op of the
   activation wrote would show here as a result, step or cycle count
   that differs from the walker's. [t = 1] divides by zero at the
   bottom. *)
let cycle_src =
  {|class Box(v: Int, s: String) {}
def small(n: Int, t: Int): Int = if (n == 0) 10 / (1 - t) else mid(n - 1, t) + 1
def mid(n: Int, t: Int): Int =
  if (n == 0) 10 / (1 - t)
  else {
    val b = new Box(n, "m");
    big(n - 1, t) + b.v + n * 3 % 7
  }
def big(n: Int, t: Int): Int =
  if (n == 0) 10 / (1 - t)
  else {
    val a = new Box(n, "a");
    val b = new Box(n + 1, "bb");
    val x = n * 2;
    val y = x + 3;
    val even = n % 2 == 0;
    val r = small(n - 1, t);
    if (even) r + x + y + a.s.length else r - x * y % 5 + b.v + b.s.length
  }
def main(): Unit = {}
|}

let test_records_reused () =
  let run (vm : Runtime.Interp.vm) (name, n, t) =
    let steps = vm.steps and cycles = vm.cycles in
    let outcome =
      match Runtime.Interp.run_meth vm name Runtime.Values.[ Vunit; Vint n; Vint t ] with
      | v -> Runtime.Values.to_string v
      | exception Runtime.Values.Trap msg -> "trap: " ^ msg
    in
    (outcome, vm.steps - steps, vm.cycles - cycles)
  in
  let vm = Runtime.Interp.create (Util.compile cycle_src) in
  List.iter
    (fun ((name, n, _) as call) ->
      let what = Printf.sprintf "%s(%d)" name n in
      let walker =
        run (Runtime.Interp.create ~backend:Runtime.Interp.Reference (Util.compile cycle_src)) call
      in
      let r_out, r_steps, r_cycles = walker and t_out, t_steps, t_cycles = run vm call in
      Alcotest.(check string) (what ^ ": outcome") r_out t_out;
      Alcotest.(check int) (what ^ ": steps") r_steps t_steps;
      Alcotest.(check int) (what ^ ": cycles") r_cycles t_cycles)
    [ ("small", 4999, 0); ("big", 4999, 0); ("mid", 2999, 1); ("mid", 4999, 0) ];
  Alcotest.(check int) "depth" 0 vm.depth

(* Back at depth 0, returned or trapped, an entry point fills the value
   frames its run used with [Vunit], so nothing the run computed stays
   reachable from a record. [f] passes a box down to [g], so both
   callees' value frames hold it; once the run is over only a weak
   pointer names it, and a major collection frees it. *)
let release_src =
  {|class Box(v: Int) {}
def g(b: Box, t: Int): Int = b.v / (1 - t)
def f(b: Box, t: Int): Int = g(b, t) + 1
def main(): Unit = {}
|}

let[@inline never] run_weakly (vm : Runtime.Interp.vm) (cls : Ir.Types.class_id) (t : int)
    : Runtime.Values.value Weak.t =
  let w = Weak.create 1 in
  let o = Runtime.Values.alloc_obj vm.prog cls in
  Weak.set w 0 (Some o);
  (match Runtime.Interp.run_meth vm "f" Runtime.Values.[ Vunit; o; Vint t ] with
  | _ -> ()
  | exception Runtime.Values.Trap _ -> ());
  w

let test_records_released () =
  let prog = Util.compile release_src in
  let cls = ref (-1) in
  Ir.Program.iter_classes (fun (c : Ir.Types.cls) -> if c.c_name = "Box" then cls := c.c_id) prog;
  let vm = Runtime.Interp.create prog in
  List.iter
    (fun (what, t) ->
      let w = run_weakly vm !cls t in
      Gc.full_major ();
      if Weak.check w 0 then Alcotest.failf "%s: its argument outlived the run" what)
    [ ("a run that returned", 0); ("a run that trapped", 1) ]

(* Int and Bool values live unboxed in the int frame, so a loop of Int
   arithmetic, comparisons, branches and Int intrinsics allocates
   nothing per iteration: the difference between 20,000 and 10,000
   iterations cancels the per-run costs (lowering, frames, output). *)
let test_arith_allocation () =
  let per_iteration body =
    let words n =
      let src =
        Printf.sprintf
          {|def main(): Unit = {
  var i = 0;
  var acc = 0;
  while (i < %d) { %s; i = i + 1 };
  println(acc)
}|}
          n body
      in
      let vm = Runtime.Interp.create (Util.compile src) in
      let before = Gc.minor_words () in
      ignore (Runtime.Interp.run_main vm);
      Gc.minor_words () -. before
    in
    (words 20000 -. words 10000) /. 10000.
  in
  List.iter
    (fun body ->
      let w = per_iteration body in
      if w >= 1. then
        Alcotest.failf "%s allocates %.2f words per iteration (bound 1)" body w)
    [ "acc = acc + i * 3";
      "if (i % 3 == 0) { acc = acc + 1 } else { acc = acc - 1 }";
      "acc = max(acc, i * 3) + abs(0 - i) - min(i, 5)" ]

(* The threaded tier runs verified, well-typed IR only. A body that
   breaks that contract is refused when it is prepared or lowered, with
   one internal trap that names the function, before any of it runs;
   the reference walker, the permissive oracle, still runs the
   ill-typed body up to its own trap. *)
let test_ill_formed_refused () =
  let open Ir.Types in
  let body fname param_tys build =
    let fn = Ir.Fn.create ~fname ~param_tys ~rty:Tint in
    let b0 = Ir.Fn.add_block fn in
    fn.entry <- b0;
    build fn b0;
    fn
  in
  let ill_typed =
    body "ill_typed" [| Tbool; Tint |] (fun fn b0 ->
        let p = Ir.Fn.append fn b0 (Param 0) in
        let q = Ir.Fn.append fn b0 (Param 1) in
        Ir.Fn.set_term fn b0 (Return (Ir.Fn.append fn b0 (Binop (Add, p, q)))))
  in
  let entry_phi =
    body "entry_phi" [||] (fun fn b0 ->
        let x = Ir.Fn.append fn b0 (Phi { ty = Tint; inputs = [] }) in
        let one = Ir.Fn.append fn b0 (Const (Cint 1)) in
        Ir.Fn.set_phi_inputs fn x [ (b0, one) ];
        Ir.Fn.set_term fn b0 (Goto b0))
  in
  let dead_target =
    body "dead_target" [||] (fun fn b0 ->
        let b1 = Ir.Fn.add_block fn in
        Ir.Fn.set_term fn b1 (Return (Ir.Fn.append fn b1 (Const (Cint 1))));
        Ir.Fn.set_term fn b0 (Goto b1);
        Ir.Fn.delete_block fn b1)
  in
  (* verification ignores unreachable blocks, so this body passes it *)
  let unreachable_garbage =
    body "unreachable_garbage" [||] (fun fn b0 ->
        Ir.Fn.set_term fn b0 (Return (Ir.Fn.append fn b0 (Const (Cint 1))));
        ignore (Ir.Fn.append fn (Ir.Fn.add_block fn) (Binop (Add, 1000, 1001))))
  in
  Alcotest.(check bool) "garbage in an unreachable block verifies" true
    (Ir.Verify.is_well_formed unreachable_garbage);
  let args = [ Runtime.Values.Vbool true; Runtime.Values.Vint 1 ] in
  let trap backend (fn : fn) =
    let vm = Runtime.Interp.create ~backend (Util.compile "def main(): Unit = {}") in
    match Util.exec_compiled vm fn args with
    | _ -> Alcotest.failf "%s ran" fn.fname
    | exception Runtime.Values.Trap msg -> (msg, vm.steps)
  in
  List.iter
    (fun (fn : fn) ->
      let msg, steps = trap Runtime.Interp.Threaded fn in
      Alcotest.(check bool) (fn.fname ^ ": an internal trap") true
        (String.starts_with ~prefix:"internal:" msg);
      Alcotest.(check bool) (fn.fname ^ ": names the function") true
        (Util.contains_substring ~needle:fn.fname msg);
      Alcotest.(check int) (fn.fname ^ ": nothing ran") 0 steps)
    [ ill_typed; entry_phi; dead_target; unreachable_garbage ];
  let msg, steps = trap Runtime.Interp.Reference ill_typed in
  Alcotest.(check string) "the walker's own trap" "expected Int, got Bool" msg;
  Alcotest.(check bool) "the walker ran the body" true (steps > 0)

let () =
  Alcotest.run "threaded"
    [
      ("random", [ QCheck_alcotest.to_alcotest prop_tiered_differential ]);
      ( "fusion",
        [
          test "fused segments keep block profiles and costs exact"
            test_fused_block_profile;
          test "fused_cost is the unfused sum" test_fused_cost_identity;
          test "a single-invocation hot loop runs fused" test_single_invocation_fused;
        ] );
      ( "traps",
        [
          test "step budget lands identically mid-segment" test_budget_mid_segment;
          test "constituent traps unwind batched bookkeeping" test_trap_mid_segment;
        ] );
      ( "determinism",
        [ test "mined superinstruction table is deterministic" test_superinst_determinism ] );
      ( "frames",
        [
          test "a frame holds the most values live at one point" test_frame_slots;
          test "a loop back into the entry block keeps its parameters"
            test_loop_into_entry;
          test "liveness memory follows what is live" test_prepare_memory;
          test "an interpreted call allocates at most 2.5 words" test_call_allocation;
          test "the first run of a cold interpreted block allocates no more than later runs"
            test_cold_block_allocation;
          test "records are reused across depths, sizes and traps" test_records_reused;
          test "a finished run's values are not kept by the records"
            test_records_released;
          test "Int and Bool arithmetic allocates nothing" test_arith_allocation;
          test "ill-formed or ill-typed IR is refused before it runs"
            test_ill_formed_refused;
        ] );
    ]
