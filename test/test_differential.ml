(* Differential tests for the production execution engine: the [Threaded]
   backend must be observationally identical to the [Reference] IR walker
   — same output, same results, same simulated cycles, same step counts,
   same recorded profiles — on every registered workload, on random
   programs, across the tiered engine (where compiled-code installation
   empties and refills the methods' code slots), and on trapping
   programs. The tiered random-program differential is in
   test_threaded.ml. The threaded tier fuses every block at its first
   lowering, so every threaded run executes fused code. The reference
   walker never consults an inline cache, so these checks also pin IC
   transparency.

   The reference backend is the seed interpreter kept verbatim; these
   tests are the proof that preparation and threading changed *when* work
   happens, not *what* the program observes. *)

open Util

(* Everything one execution observes. *)
type snap = {
  output : string;
  results : string list;  (* rendered values of each entry call *)
  cycles : int;
  steps : int;
  profile : string;
  installed : int;        (* compiled methods at the end *)
}

(* Every filled code slot holds the entry lowered from the body a call of
   its method runs now, for that body's tier: an interpreted entry counts
   calls into the method's invocation counter, a compiled one into a
   private cell. The walker fills no slot. Returns the number of filled
   slots and of those holding compiled code. *)
let check_slots (what : string) (vm : Runtime.Interp.vm) : int * int =
  let check m fmt =
    Fmt.kstr
      (fun s ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s %s" what (Ir.Program.meth vm.prog m).m_name s)
          true)
      fmt
  in
  let filled = ref 0 and compiled = ref 0 in
  Array.iteri
    (fun m -> function
      | None -> ()
      | Some (e : Runtime.Interp.prepared_entry) ->
          incr filled;
          check m "has a slot only under the threaded backend"
            (vm.backend = Runtime.Interp.Threaded);
          check m "runs the body its slot was lowered from"
            (match (Runtime.Interp.installed vm m, (Ir.Program.meth vm.prog m).body) with
            | Some fn, _ | None, Some fn -> fn == e.src
            | None, None -> false);
          (* a count means a cell exists, so reading it creates none *)
          let cell () =
            Runtime.Profile.invocation_count vm.profiles m > 0
            && e.inv == Runtime.Profile.invocation_cell vm.profiles m
          in
          if Option.is_some (Runtime.Interp.installed vm m) then begin
            incr compiled;
            check m "counts compiled calls into a private cell" (not (cell ()))
          end
          else check m "counts interpreted calls into its profile" (cell ()))
    vm.code;
  (!filled, !compiled)

let check_same what (ref_ : snap) (thr : snap) =
  let s = Alcotest.(check string) and i = Alcotest.(check int) in
  s (what ^ ": output") ref_.output thr.output;
  Alcotest.(check (list string)) (what ^ ": results") ref_.results thr.results;
  i (what ^ ": cycles") ref_.cycles thr.cycles;
  i (what ^ ": steps") ref_.steps thr.steps;
  s (what ^ ": profiles") ref_.profile thr.profile;
  i (what ^ ": installed methods") ref_.installed thr.installed

(* One engine run over a freshly compiled workload: main once, then the
   bench entry [iters] times. Also returns {!check_slots}' counts. *)
let run_workload ?compiler ?spec_miss_threshold ~(hotness : int) ~(iters : int)
    (backend : Runtime.Interp.backend) (w : Workloads.Defs.t) : snap * (int * int) =
  let prog = Workloads.Registry.compile w in
  let engine =
    Jit.Engine.create ?spec_miss_threshold prog
      {
        name = "diff";
        compiler;
        hotness_threshold = hotness;
        compile_cost_per_node = 50;
        verify = false;
      }
  in
  engine.vm.backend <- backend;
  let results = ref [] in
  let record v = results := Runtime.Values.to_string v :: !results in
  record (Jit.Engine.run_main engine);
  for _ = 1 to iters do
    record (Jit.Engine.run_meth engine "bench" [ Runtime.Values.Vunit ])
  done;
  ( {
      output = Jit.Engine.output engine;
      results = List.rev !results;
      cycles = engine.vm.cycles;
      steps = engine.vm.steps;
      profile = Runtime.Profile.to_text engine.vm.profiles;
      installed = Jit.Engine.installed_methods engine;
    },
    check_slots w.name engine.vm )

(* ---------- every workload, interpreter only ---------- *)

let test_workloads_interp () =
  List.iter
    (fun (w : Workloads.Defs.t) ->
      let run b = run_workload ~hotness:max_int ~iters:6 b w in
      let ref_, _ = run Runtime.Interp.Reference in
      let thr, (filled, compiled) = run Runtime.Interp.Threaded in
      check_same w.name ref_ thr;
      Alcotest.(check bool) (w.name ^ ": calls filled code slots") true (filled > 0);
      Alcotest.(check int) (w.name ^ ": no slot holds compiled code") 0 compiled)
    Workloads.Registry.all

(* ---------- tiered engine: compile, install, invalidate ---------- *)

(* The incremental inliner compiles hot methods mid-run, so installed code
   replaces interpreted execution while cycles keep accumulating — any
   stale prepared code or accounting drift diverges the clock instantly.
   A low spec-miss threshold also exercises code invalidation. *)
let test_workloads_tiered () =
  let subset =
    List.filteri (fun i _ -> i mod 3 = 0) Workloads.Registry.all (* every 3rd *)
  in
  List.iter
    (fun (w : Workloads.Defs.t) ->
      let run b =
        run_workload
          ~compiler:(Util.incremental ())
          ~spec_miss_threshold:4 ~hotness:3 ~iters:(min w.iters 12) b w
      in
      let ref_, _ = run Runtime.Interp.Reference in
      let thr, (_, compiled) = run Runtime.Interp.Threaded in
      check_same (w.name ^ " (tiered)") ref_ thr;
      if thr.installed > 0 then
        Alcotest.(check bool)
          (w.name ^ ": installed code runs from a code slot")
          true (compiled > 0))
    subset

(* ---------- code slots follow installs ---------- *)

let test_invalidation () =
  let src =
    {|def f(x: Int): Int = x * 2 + 1
def main(): Unit = {
  var i = 0;
  while (i < 20) { println(f(i)); i = i + 1; }
}|}
  in
  let c1 : Jit.Engine.compiler =
   fun prog _ m ->
    match (Ir.Program.meth prog m).body with
    | Some fn -> Ir.Fn.copy fn
    | None -> Alcotest.fail "no body"
  in
  let engine = Util.engine ~hotness:3 src (Some c1) "inv" in
  ignore (Jit.Engine.run_main engine);
  Alcotest.(check bool) "something compiled" true
    (Jit.Engine.installed_methods engine > 0);
  (* no slot holds an entry lowered from a body that is no longer what a
     call of its method runs, and f's calls since its install ran its
     compiled code from its slot *)
  let _, compiled = check_slots "inv" engine.vm in
  Alcotest.(check bool) "a slot holds compiled code" true (compiled > 0);
  let expected =
    String.concat "" (List.init 20 (fun i -> string_of_int (i * 2 + 1) ^ "\n"))
  in
  Alcotest.(check string) "output survives recompilation" expected
    (Jit.Engine.output engine)

(* One method through every change of the body its calls run: [f] runs
   interpreted, is installed, invalidated by speculation misses,
   installed again, and evicted by a bounded code cache when [big]
   installs. Every [set_installed] of [f] must leave its slot empty, seen
   from the next method entry, and the next call of [f] must fill it from
   the body of [f]'s tier. The whole run must observe what the walker
   observes. *)
let lifecycle_src =
  {|abstract class Shape { def area(): Int }
class Sq(s: Int) extends Shape { def area(): Int = this.s * this.s }
class Rect(w: Int, h: Int) extends Shape { def area(): Int = this.w * this.h }
def f(s: Shape): Int = s.area() + 1
def big(n: Int): Int = {
  var acc = 0;
  var i = 0;
  while (i < n) {
    if (i % 3 == 0) { acc = acc + i * 7 } else { acc = acc - i };
    if (acc > 1000) { acc = acc % 97 };
    i = i + 1
  };
  acc
}
def main(): Unit = {}|}

type transition = Installed | Retired

let run_lifecycle (backend : Runtime.Interp.backend) : snap * transition list =
  let prog = Util.compile lifecycle_src in
  Opt.Driver.prepare_program prog;
  let f = Option.get (Ir.Program.find_meth prog "f") in
  let big_size = Ir.Fn.size (Util.body_of prog "big") in
  (* only f (through the inliner, which speculates on its receiver) and
     big (as it is) compile; any other method's compile bails out *)
  let compiler : Jit.Engine.compiler =
   fun p profiles m ->
    match (Ir.Program.meth p m).m_name with
    | "f" -> Util.incremental () p profiles m
    | "big" -> Ir.Fn.copy (Util.body_of p "big")
    | name -> failwith (name ^ " is not compiled here")
  in
  (* room for big, not for big and f *)
  let e =
    Jit.Engine.create ~osr:false ~spec_miss_threshold:2 ~cache_capacity:(big_size + 1)
      prog
      { name = "lifecycle"; compiler = Some compiler; hotness_threshold = 3;
        compile_cost_per_node = 50; verify = true }
  in
  let vm = e.vm in
  vm.backend <- backend;
  let threaded = backend = Runtime.Interp.Threaded in
  let seen = ref None and transitions = ref [] in
  let observe () =
    let now = Runtime.Interp.installed vm f in
    let same =
      match (now, !seen) with Some a, Some b -> a == b | None, None -> true | _ -> false
    in
    if not same then begin
      transitions := (if Option.is_some now then Installed else Retired) :: !transitions;
      seen := now;
      Alcotest.(check bool) "set_installed empties f's slot" true
        (f >= Array.length vm.code || Option.is_none vm.code.(f))
    end
  in
  let hook = vm.on_entry in
  vm.on_entry <- (fun m -> hook m; observe ());
  let results = ref [] in
  let call name args =
    results := Runtime.Values.to_string (Jit.Engine.run_meth e name args) :: !results;
    observe ()
  in
  let obj name fields =
    let c =
      List.find
        (fun c -> (Ir.Program.cls prog c).c_name = name)
        (List.init (Ir.Program.num_classes prog) Fun.id)
    in
    Runtime.Values.Vobj { o_cls = c; fields = Array.map (fun n -> Runtime.Values.Vint n) fields }
  in
  let sq = obj "Sq" [| 3 |] and rect = obj "Rect" [| 2; 5 |] in
  (* a call of f, after which f is in the tier [installed] says and, unless
     the call itself retired f's code, its slot holds an entry lowered
     from the body of that tier *)
  let call_f ?(filled = true) what arg ~installed =
    call "f" [ Runtime.Values.Vunit; arg ];
    Alcotest.(check bool) (what ^ ": f's tier") installed
      (Option.is_some (Runtime.Interp.installed vm f));
    if threaded then begin
      ignore (check_slots what vm);
      Alcotest.(check bool) (what ^ ": f's slot is filled") filled
        (f < Array.length vm.code && Option.is_some vm.code.(f))
    end
  in
  call_f "interpreted" sq ~installed:false;
  call_f "interpreted" sq ~installed:false;
  call_f "installed" sq ~installed:true;
  call_f "one miss" rect ~installed:true;
  (* the second miss retires f's code while the call runs it *)
  call_f "invalidated" rect ~installed:false ~filled:false;
  call_f "re-profiled" sq ~installed:false;
  call_f "re-profiled" rect ~installed:false;
  call_f "installed again" sq ~installed:true;
  for _ = 1 to 3 do
    call "big" [ Runtime.Values.Vunit; Runtime.Values.Vint 300 ]
  done;
  Alcotest.(check bool) "big is installed" true
    (Option.is_some (Runtime.Interp.installed vm (Option.get (Ir.Program.find_meth prog "big"))));
  call_f "evicted" rect ~installed:false;
  Alcotest.(check int) "f was invalidated once" 1 (Jit.Engine.state e f).recompiles;
  Alcotest.(check int) "f was evicted once" 1 (Jit.Engine.state e f).evicts;
  ( {
      output = Jit.Engine.output e;
      results = List.rev !results;
      cycles = vm.cycles;
      steps = vm.steps;
      profile = Runtime.Profile.to_text vm.profiles;
      installed = Jit.Engine.installed_methods e;
    },
    List.rev !transitions )

let test_slot_lifecycle () =
  let ref_, ref_transitions = run_lifecycle Runtime.Interp.Reference in
  let thr, transitions = run_lifecycle Runtime.Interp.Threaded in
  check_same "lifecycle" ref_ thr;
  Alcotest.(check bool) "installed, retired, installed again, retired" true
    (transitions = [ Installed; Retired; Installed; Retired ]);
  Alcotest.(check bool) "the walker sees the same installs" true
    (ref_transitions = transitions)

(* ---------- random programs ---------- *)

(* Interpreter-only differential on a raw VM (no engine, no opts). *)
let vm_snap (backend : Runtime.Interp.backend) (src : string) : snap =
  let prog = Util.compile src in
  let vm = Runtime.Interp.create ~backend prog in
  let v = Runtime.Interp.run_main vm in
  {
    output = Runtime.Interp.output vm;
    results = [ Runtime.Values.to_string v ];
    cycles = vm.cycles;
    steps = vm.steps;
    profile = Runtime.Profile.to_text vm.profiles;
    installed = 0;
  }

let same what (ref_ : snap) (thr : snap) =
  if ref_ <> thr then
    QCheck.Test.fail_reportf
      "%s diverged:@.cycles %d vs %d, steps %d vs %d@.output %S vs %S" what
      ref_.cycles thr.cycles ref_.steps thr.steps ref_.output thr.output;
  true

let prop_interp_differential =
  QCheck.Test.make ~name:"threaded = reference on random programs (interp)"
    ~count:100 Sel_gen.program (fun src ->
      same "interp" (vm_snap Runtime.Interp.Reference src)
        (vm_snap Runtime.Interp.Threaded src))

(* ---------- Int and Bool values across frame boundaries ---------- *)

(* The threaded tier keeps Int and Bool values unboxed in an int frame
   and boxes them where they leave it. This program moves them through
   every boundary: direct and virtual calls (one with five arguments),
   returns, Int and Bool fields, Array[Int] and Array[Bool] elements,
   phis of Int, Bool, String and object type, [==]/[!=] on each kind of
   operand, and a hot loop whose Int and Bool live-ins an OSR transfer
   carries into compiled code. The random generator emits no Bool
   parameter, field or array, so nothing else covers these paths. *)
let boundary_src =
  {|abstract class Cell {
  def bump(k: Int, up: Bool): Int
  def flag(): Bool
}
class Small(v: Int, on: Bool) extends Cell {
  def bump(k: Int, up: Bool): Int = {
    if (up) { v = v + k } else { v = v - k };
    on = !on;
    v
  }
  def flag(): Bool = on
}
class Big(v: Int, on: Bool) extends Cell {
  def bump(k: Int, up: Bool): Int = {
    v = v * 3 + k;
    if (v > 100000) { v = v % 9973 };
    on = up != on;
    v
  }
  def flag(): Bool = on & v > 500
}
def mix(a: Int, b: Bool, c: Int, d: Bool, s: String): Int = {
  var r = a * 7 - c;
  if (b == d) { r = r + s.length } else { r = r - 2000 };
  if (b != (a > c)) { r = r + 1 };
  r
}
def even(n: Int): Bool = n % 2 == 0
def pick(i: Int, a: Cell, b: Cell): Cell = if (i % 3 == 0) { a } else { b }
def main(): Int = {
  val ints = new Array[Int](8);
  val bools = new Array[Bool](8);
  val a: Cell = new Small(5, true);
  val b: Cell = new Big(1000, false);
  val step = ints.length / 8;
  val start = b.flag();
  var acc = 0;
  var seen = start;
  var name = "x";
  var last = a;
  var i = 0;
  while (i < 600) {
    val c = pick(i, a, b);
    val up = even(i) || c.flag();
    val v = c.bump(i, up);
    ints[i % 8] = v;
    bools[i % 8] = up != start;
    acc = acc + mix(v, up, ints[(i + 3) % 8], bools[(i + 5) % 8], name);
    if (c == last) { seen = !seen } else { last = c };
    if (seen) { name = "yy" } else { name = "x" };
    if (name == "yy" && v != acc) { acc = acc + 3 };
    if (seen != up) { acc = acc - 1 };
    if (c != b) { acc = acc % 1000003 };
    i = i + step
  };
  println(acc);
  println(seen);
  println(name);
  println(ints[3]);
  println(bools[2]);
  acc
}|}

let test_boundaries () =
  check_same "interpreter only"
    (vm_snap Runtime.Interp.Reference boundary_src)
    (vm_snap Runtime.Interp.Threaded boundary_src);
  let tiered backend =
    let e =
      Jit.Engine.create ~osr_threshold:16 (Util.compile boundary_src)
        { name = "boundaries"; compiler = Some (Util.incremental ());
          hotness_threshold = 2; compile_cost_per_node = 50; verify = false }
    in
    e.vm.backend <- backend;
    let v = Jit.Engine.run_main e in
    ( e,
      {
        output = Jit.Engine.output e;
        results = [ Runtime.Values.to_string v ];
        cycles = e.vm.cycles;
        steps = e.vm.steps;
        profile = Runtime.Profile.to_text e.vm.profiles;
        installed = Jit.Engine.installed_methods e;
      } )
  in
  let _, ref_ = tiered Runtime.Interp.Reference in
  let e, thr = tiered Runtime.Interp.Threaded in
  check_same "tiered" ref_ thr;
  (* main's loop transferred, and the transfer's live-ins include an Int
     and a Bool *)
  Alcotest.(check bool) "an OSR transfer was taken" true (e.osr_enters > 0);
  let live_in_tys =
    Hashtbl.fold
      (fun _ (s : Jit.Engine.osr_site) acc ->
        match s.enter with
        | Some tr -> (
            match (Ir.Program.meth e.vm.prog tr.osr_target).body with
            | Some fn ->
                Array.to_list (Array.sub fn.param_tys 0 (Array.length tr.osr_live_ins))
                @ acc
            | None -> acc)
        | None -> acc)
      e.osr_sites []
  in
  Alcotest.(check bool) "the transfer carries Int and Bool live-ins" true
    (List.mem Ir.Types.Tint live_in_tys && List.mem Ir.Types.Tbool live_in_tys)

(* ---------- inline caches ---------- *)

let ic_src =
  {|abstract class A { def m(x: Int): Int }
class A1() extends A { def m(x: Int): Int = x + 1 }
class A2() extends A { def m(x: Int): Int = x * 2 }
class A3() extends A { def m(x: Int): Int = x - 3 }
def pick(i: Int): A = {
  val k = i % 3;
  var p: A = new A1();
  if (k == 1) { p = new A2() };
  if (k == 2) { p = new A3() };
  p
}
def bench(): Int = {
  var acc = 0;
  var i = 0;
  while (i < 30) { acc = acc + pick(i).m(i); i = i + 1; };
  acc
}
def main(): Unit = { println(bench()) }|}

let ic_totals (stats : Runtime.Interp.ic_stat list) : int * int * int =
  List.fold_left
    (fun (h, m, g) (st : Runtime.Interp.ic_stat) ->
      (h + st.st_hits, m + st.st_misses, g + st.st_mega))
    (0, 0, 0) stats

(* Installs and invalidations drop prepared code; the counters of its
   inline caches belong to their call sites and survive it — never lost,
   never double-counted — and fresh code rebuilds its caches from
   scratch. *)
let test_ic_flush () =
  let c1 : Jit.Engine.compiler =
   fun prog _ m ->
    match (Ir.Program.meth prog m).body with
    | Some fn -> Ir.Fn.copy fn
    | None -> Alcotest.fail "no body"
  in
  let engine = Util.engine ~hotness:3 ~verify:false ic_src (Some c1) "ic-flush" in
  ignore (Jit.Engine.run_main engine);
  for _ = 1 to 10 do
    ignore (Jit.Engine.run_meth engine "bench" [ Runtime.Values.Vunit ])
  done;
  Alcotest.(check bool) "something compiled" true
    (Jit.Engine.installed_methods engine > 0);
  let stats = Jit.Engine.ic_stats engine in
  Alcotest.(check bool) "ic stats nonempty" true (stats <> []);
  let h0, m0, g0 = ic_totals stats in
  Alcotest.(check bool) "hits dominate misses" true (h0 > m0);
  (* flush everything: every code slot must empty and every counter must
     survive, exactly once *)
  Ir.Program.iter_meths
    (fun (m : Ir.Types.meth) ->
      Runtime.Interp.set_installed engine.vm m.m_id
        (Runtime.Interp.installed engine.vm m.m_id))
    engine.vm.prog;
  Alcotest.(check int) "code slots flushed" 0
    (Array.fold_left
       (fun acc e -> match e with Some _ -> acc + 1 | None -> acc)
       0 engine.vm.code);
  let h1, m1, g1 = ic_totals (Jit.Engine.ic_stats engine) in
  Alcotest.(check int) "hits preserved across flush" h0 h1;
  Alcotest.(check int) "misses preserved across flush" m0 m1;
  Alcotest.(check int) "megamorphic preserved across flush" g0 g1;
  (* fresh prepared code rebuilds its caches and keeps counting *)
  for _ = 1 to 5 do
    ignore (Jit.Engine.run_meth engine "bench" [ Runtime.Values.Vunit ])
  done;
  let h2, _, _ = ic_totals (Jit.Engine.ic_stats engine) in
  Alcotest.(check bool) "totals grow after re-prepare" true (h2 > h1)

(* A frame keeps running its code after the code left its method's slot.
   [loop] gets compiled code at the 500th call of [B.m], while its one
   interpreted frame is still in the loop: that frame keeps dispatching
   through its own cache, and all 1,000 dispatches count at the site. *)
let test_ic_outlives_slot () =
  let src =
    {|abstract class A { def m(x: Int): Int }
class B() extends A { def m(x: Int): Int = x + 1 }
class C() extends A { def m(x: Int): Int = x * 2 }
def loop(a: A): Int = {
  var s = 0;
  var i = 0;
  while (i < 1000) { s = s + a.m(i); i = i + 1 };
  s
}
def main(): Unit = println(loop(new B()))|}
  in
  let prog = Util.compile src in
  let vm = Runtime.Interp.create prog in
  let loop = Option.get (Ir.Program.find_meth prog "loop") in
  let bm = Option.get (Ir.Program.find_meth prog "B.m") in
  let calls = ref 0 in
  vm.on_entry <-
    (fun m ->
      if m = bm then begin
        incr calls;
        if !calls = 500 then
          Runtime.Interp.set_installed vm loop
            (Some (Ir.Fn.copy (Util.body_of prog "loop")))
      end);
  ignore (Runtime.Interp.run_main vm);
  Alcotest.(check string) "output" "500500\n" (Runtime.Interp.output vm);
  Alcotest.(check bool) "compiled code installed" true
    (Runtime.Interp.installed vm loop <> None);
  let sites =
    List.filter
      (fun (st : Runtime.Interp.ic_stat) -> st.st_site.sm = loop)
      (Runtime.Interp.ic_stats vm)
  in
  Alcotest.(check int) "one site" 1 (List.length sites);
  let h, m, g = ic_totals sites in
  Alcotest.(check int) "dispatches at the site" 1000 (h + m + g)

(* A site seeing more receiver classes than the cache depth must go
   megamorphic — new classes fall through to the slow path — while the
   classes already cached keep hitting. *)
let test_ic_megamorphic () =
  let src =
    {|abstract class K { def m(x: Int): Int }
class K1() extends K { def m(x: Int): Int = x + 1 }
class K2() extends K { def m(x: Int): Int = x * 2 }
class K3() extends K { def m(x: Int): Int = x - 3 }
class K4() extends K { def m(x: Int): Int = x * x }
class K5() extends K { def m(x: Int): Int = 0 - x }
def pick(i: Int): K = {
  val k = i % 5;
  var p: K = new K1();
  if (k == 1) { p = new K2() };
  if (k == 2) { p = new K3() };
  if (k == 3) { p = new K4() };
  if (k == 4) { p = new K5() };
  p
}
def main(): Unit = {
  var acc = 0;
  var i = 0;
  while (i < 40) { acc = acc + pick(i).m(i); i = i + 1; };
  println(acc)
}|}
  in
  let prog = Util.compile src in
  let vm = Runtime.Interp.create prog in
  ignore (Runtime.Interp.run_main vm);
  let hits, _, mega = ic_totals (Runtime.Interp.ic_stats vm) in
  Alcotest.(check bool) "megamorphic fallbacks counted" true (mega > 0);
  Alcotest.(check bool) "cached classes keep hitting" true (hits > 0);
  (* and the caches stay transparent on the megamorphic program: the
     reference walker dispatches without them *)
  ignore
    (same "megamorphic"
       (vm_snap Runtime.Interp.Reference src)
       (vm_snap Runtime.Interp.Threaded src))

(* ---------- traps ---------- *)

(* Trapping executions must diverge identically: same message, same
   output, cycles and steps at the moment of the trap. *)
let trap_snap ?max_steps (backend : Runtime.Interp.backend) (src : string) :
    string * snap =
  let prog = Util.compile src in
  let vm = Runtime.Interp.create ~backend prog in
  (match max_steps with Some n -> vm.max_steps <- n | None -> ());
  let msg =
    match Runtime.Interp.run_main vm with
    | v -> "no trap: " ^ Runtime.Values.to_string v
    | exception Runtime.Values.Trap m -> m
  in
  ( msg,
    {
      output = Runtime.Interp.output vm;
      results = [];
      cycles = vm.cycles;
      steps = vm.steps;
      profile = Runtime.Profile.to_text vm.profiles;
      installed = 0;
    } )

let trap_cases =
  [
    ("division by zero", None,
     "def main(): Unit = { var d = 0; println(1 / d) }");
    ("remainder by zero", None,
     "def main(): Unit = { var d = 0; println(1 % d) }");
    ("array index out of bounds", None,
     "def main(): Unit = { val a = new Array[Int](3); var i = 5; println(a[i]) }");
    ("string index out of bounds", None,
     "def main(): Unit = { println(strget(\"abc\", 5)) }");
    ("step budget exceeded", Some 100,
     "def main(): Unit = { var i = 0; while (i < 100000) { i = i + 1; }; println(i) }");
  ]

let test_traps () =
  List.iter
    (fun (name, max_steps, src) ->
      let rmsg, rsnap = trap_snap ?max_steps Runtime.Interp.Reference src in
      let tmsg, tsnap = trap_snap ?max_steps Runtime.Interp.Threaded src in
      Alcotest.(check string) (name ^ ": message") rmsg tmsg;
      check_same name rsnap tsnap)
    trap_cases

let () =
  Alcotest.run "differential"
    [
      ( "workloads",
        [
          test "all workloads, interpreter only" test_workloads_interp;
          test "workload subset, tiered with invalidation" test_workloads_tiered;
          test "installs drop stale prepared code" test_invalidation;
          test "a slot follows install, invalidation and eviction" test_slot_lifecycle;
        ] );
      ("random", [ QCheck_alcotest.to_alcotest prop_interp_differential ]);
      ( "frames",
        [ test "Int and Bool values cross every frame boundary" test_boundaries ] );
      ( "inline caches",
        [
          test "installs and invalidations retire ic counters" test_ic_flush;
          test "a frame out of its slot counts at its site" test_ic_outlives_slot;
          test "megamorphic sites fall back, cached classes hit" test_ic_megamorphic;
        ] );
      ("traps", [ test "trapping programs trap identically" test_traps ]);
    ]
