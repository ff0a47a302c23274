(* Differential tests for the production execution engine: the [Threaded]
   backend must be observationally identical to the [Reference] IR walker
   — same output, same results, same simulated cycles, same step counts,
   same recorded profiles — on every registered workload, on random
   programs, across the tiered engine (where compiled-code installation
   exercises prepared-cache invalidation), and on trapping programs. The
   tiered random-program differential is in test_threaded.ml. The
   threaded tier fuses every block at its first lowering, so every
   threaded run executes fused code. The reference walker never consults
   an inline cache, so these checks also pin IC transparency.

   The reference backend is the seed interpreter kept verbatim; these
   tests are the proof that preparation and threading changed *when* work
   happens, not *what* the program observes. *)

open Util

(* Everything one execution observes. [epoch] is the prepared-cache
   version counter: it must advance on every code install/invalidation
   and stay at zero interpreter-only. *)
type snap = {
  output : string;
  results : string list;  (* rendered values of each entry call *)
  cycles : int;
  steps : int;
  profile : string;
  installed : int;        (* compiled methods at the end *)
  epoch : int;
}

let check_same what (ref_ : snap) (thr : snap) =
  let s = Alcotest.(check string) and i = Alcotest.(check int) in
  s (what ^ ": output") ref_.output thr.output;
  Alcotest.(check (list string)) (what ^ ": results") ref_.results thr.results;
  i (what ^ ": cycles") ref_.cycles thr.cycles;
  i (what ^ ": steps") ref_.steps thr.steps;
  s (what ^ ": profiles") ref_.profile thr.profile;
  i (what ^ ": installed methods") ref_.installed thr.installed

(* One engine run over a freshly compiled workload: main once, then the
   bench entry [iters] times. *)
let run_workload ?compiler ?spec_miss_threshold ~(hotness : int) ~(iters : int)
    (backend : Runtime.Interp.backend) (w : Workloads.Defs.t) : snap =
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
  {
    output = Jit.Engine.output engine;
    results = List.rev !results;
    cycles = engine.vm.cycles;
    steps = engine.vm.steps;
    profile = Runtime.Profile.to_text engine.vm.profiles;
    installed = Jit.Engine.installed_methods engine;
    epoch = engine.vm.code_epoch;
  }

(* ---------- every workload, interpreter only ---------- *)

let test_workloads_interp () =
  List.iter
    (fun (w : Workloads.Defs.t) ->
      let run b = run_workload ~hotness:max_int ~iters:6 b w in
      let ref_ = run Runtime.Interp.Reference in
      let thr = run Runtime.Interp.Threaded in
      check_same w.name ref_ thr;
      Alcotest.(check int) (w.name ^ ": no installs, epoch stays 0") 0 thr.epoch)
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
      let ref_ = run Runtime.Interp.Reference in
      let thr = run Runtime.Interp.Threaded in
      check_same (w.name ^ " (tiered)") ref_ thr;
      if thr.installed > 0 then
        Alcotest.(check bool)
          (w.name ^ ": installs bumped the code epoch")
          true (thr.epoch > 0))
    subset

(* ---------- cache invalidation drops stale prepared code ---------- *)

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
  Alcotest.(check bool) "install invalidated prepared code" true
    (engine.vm.code_epoch > 0);
  (* the cache must hold no entry translated from a body that is no longer
     what the tier dispatch would execute *)
  Array.iteri
    (fun key entry ->
      match entry with
      | None -> ()
      | Some (e : Runtime.Interp.prepared_entry) -> (
          let m = key / 2 in
          let current =
            match Runtime.Interp.installed engine.vm m with
            | Some fn -> Some fn
            | None -> (Ir.Program.meth engine.vm.prog m).body
          in
          match current with
          | Some fn
            when key mod 2 = 1 || Option.is_none (Runtime.Interp.installed engine.vm m)
            ->
              Alcotest.(check bool) "cached entry matches live body" true
                (e.src == fn)
          | _ -> ()))
    engine.vm.prepared_cache;
  let expected =
    String.concat "" (List.init 20 (fun i -> string_of_int (i * 2 + 1) ^ "\n"))
  in
  Alcotest.(check string) "output survives recompilation" expected
    (Jit.Engine.output engine)

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
    epoch = vm.code_epoch;
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
        epoch = e.vm.code_epoch;
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
      (fun _ (tr : Runtime.Interp.osr_transfer) acc ->
        match (Ir.Program.meth e.vm.prog tr.osr_target).body with
        | Some fn ->
            Array.to_list (Array.sub fn.param_tys 0 (Array.length tr.osr_live_ins))
            @ acc
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

(* Installs and invalidations drop prepared code; the inline-cache
   counters inside must be retired — never lost, never double-counted —
   and fresh code must rebuild its caches from scratch. *)
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
  Alcotest.(check bool) "installs retired inline caches" true
    (Hashtbl.length engine.vm.ic_retired > 0);
  let stats = Jit.Engine.ic_stats engine in
  Alcotest.(check bool) "ic stats nonempty" true (stats <> []);
  let h0, m0, g0 = ic_totals stats in
  Alcotest.(check bool) "hits dominate misses" true (h0 > m0);
  (* flush everything: the prepared cache must empty and every live
     counter must survive into the retired table, exactly once *)
  Ir.Program.iter_meths
    (fun (m : Ir.Types.meth) ->
      Runtime.Interp.set_installed engine.vm m.m_id
        (Runtime.Interp.installed engine.vm m.m_id))
    engine.vm.prog;
  Alcotest.(check int) "prepared cache flushed" 0
    (Array.fold_left
       (fun acc e -> match e with Some _ -> acc + 1 | None -> acc)
       0 engine.vm.prepared_cache);
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
      epoch = 0;
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
        ] );
      ("random", [ QCheck_alcotest.to_alcotest prop_interp_differential ]);
      ( "frames",
        [ test "Int and Bool values cross every frame boundary" test_boundaries ] );
      ( "inline caches",
        [
          test "installs and invalidations retire ic counters" test_ic_flush;
          test "megamorphic sites fall back, cached classes hit" test_ic_megamorphic;
        ] );
      ("traps", [ test "trapping programs trap identically" test_traps ]);
    ]
