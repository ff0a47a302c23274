(* Robustness suite: compilation bailouts, exponential backoff,
   blacklisting, the compile-fuel watchdog, and the deterministic chaos
   fault plan.

   The contract under test is the engine's graceful-degradation
   guarantee: under ANY fault sequence the program's observable behavior
   is bit-identical to the pure interpreter, and the engine converges —
   a method whose compilations keep failing is blacklisted after the cap
   and never consumes compile cycles again. *)

open Util

(* A method hot enough to cross any small threshold many times over. *)
let hot_src =
  {|def f(x: Int): Int = x * 2 + 1
def main(): Unit = {
  var i = 0;
  var acc = 0;
  while (i < 40) { acc = acc + f(i); i = i + 1; }
  println(acc);
}|}

let make ?(hotness = 4) ?compile_fuel ?spec_miss_threshold
    (src : string) (compiler : Jit.Engine.compiler option) : Jit.Engine.t =
  let prog = Util.compile src in
  Jit.Engine.create ?compile_fuel ?spec_miss_threshold prog
    {
      name = "chaos-test";
      compiler;
      hotness_threshold = hotness;
      compile_cost_per_node = 50;
      verify = true;
    }

(* ---------- backoff and blacklist ---------- *)

(* A compiler that always dies records at which invocation counts the
   engine retried it. With hotness 4 and the doubling cooldown the
   attempts must land exactly at pre-increment counts 3, 6 and 13 —
   calls #4, #7 and #14 — and then never again: the method is
   blacklisted at the third failure. *)
let test_backoff_doubling () =
  let attempts = ref [] in
  let crashing : Jit.Engine.compiler =
   fun _ profiles m ->
    attempts := (m, Runtime.Profile.invocation_count profiles m) :: !attempts;
    failwith "deliberate compiler crash"
  in
  let e = make hot_src (Some crashing) in
  ignore (Jit.Engine.run_main e);
  let f_id =
    match Ir.Program.find_meth e.vm.prog "f" with
    | Some m -> m
    | None -> Alcotest.fail "no f"
  in
  let f_attempts =
    List.rev_map snd (List.filter (fun (m, _) -> m = f_id) !attempts)
  in
  Alcotest.(check (list int)) "attempts at doubling cooldowns" [ 3; 6; 13 ] f_attempts;
  let stats = Jit.Engine.bailout_stats e in
  Alcotest.(check int) "three failed attempts" 3 stats.failed_attempts;
  Alcotest.(check bool) "f blacklisted" true (Jit.Engine.blacklisted e f_id);
  Alcotest.(check (list int)) "blacklist lists f" [ f_id ] stats.blacklisted_methods;
  (* failure metadata on the recorded bailouts: failures count up and only
     the final one blacklists *)
  let by_time = List.rev e.bailouts in
  Alcotest.(check (list int)) "failure counts" [ 1; 2; 3 ]
    (List.map (fun (b : Jit.Engine.bailout) -> b.failures) by_time);
  Alcotest.(check (list bool)) "only the last blacklists" [ false; false; true ]
    (List.map (fun (b : Jit.Engine.bailout) -> b.blacklisted) by_time);
  (* each dead attempt charged the cycles it burned *)
  Alcotest.(check bool) "compile cycles charged" true (e.compile_cycles > 0);
  List.iter
    (fun (b : Jit.Engine.bailout) ->
      Alcotest.(check bool) "per-attempt charge positive" true (b.charged > 0))
    by_time;
  (* and the program still ran to completion on the interpreter *)
  Alcotest.(check int) "nothing installed" 0 (Jit.Engine.installed_methods e);
  Alcotest.(check string) "output intact" "1600\n" (Jit.Engine.output e)

(* Convergence: once blacklisted, the compiler is never called again no
   matter how many further invocations arrive. *)
let test_blacklist_converges () =
  let calls = ref 0 in
  let crashing : Jit.Engine.compiler = fun _ _ _ -> incr calls; failwith "boom" in
  let cap = Jit.Engine.max_compile_failures in
  let e = make ~hotness:2 hot_src (Some crashing) in
  ignore (Jit.Engine.run_main e);
  Alcotest.(check bool) "attempts capped" true (!calls <= 2 * cap);
  (* keep invoking until every hot method has exhausted its cap; the
     bound covers three compile subjects, [cap] attempts each: main, f,
     and the OSR continuation of main's loop (its header crosses the
     backedge threshold across these invocations) *)
  for _ = 1 to 10 do
    ignore (Jit.Engine.run_meth e "main" [ Runtime.Values.Vunit ])
  done;
  let after_loop = !calls in
  Alcotest.(check bool) "attempts capped after cooldowns" true (after_loop <= 3 * cap);
  (* ... then nothing may ever re-enter compilation *)
  for _ = 1 to 5 do
    ignore (Jit.Engine.run_meth e "main" [ Runtime.Values.Vunit ])
  done;
  Alcotest.(check int) "no attempts after blacklist" after_loop !calls;
  let stats = Jit.Engine.bailout_stats e in
  Alcotest.(check bool) "methods blacklisted" true
    (stats.blacklisted_methods <> [])

(* The failure cap is per method: a method that succeeds after one
   failure is *not* blacklisted and installs normally. *)
let test_transient_failure_recovers () =
  let attempt = ref 0 in
  let flaky : Jit.Engine.compiler =
   fun prog _ m ->
    incr attempt;
    if !attempt = 1 then failwith "transient";
    match (Ir.Program.meth prog m).body with
    | Some fn -> Ir.Fn.copy fn
    | None -> Alcotest.fail "no body"
  in
  let e = make hot_src (Some flaky) in
  ignore (Jit.Engine.run_main e);
  Alcotest.(check bool) "recovered and installed" true
    (Jit.Engine.installed_methods e > 0);
  let stats = Jit.Engine.bailout_stats e in
  Alcotest.(check int) "one bailout recorded" 1 stats.failed_attempts;
  Alcotest.(check (list int)) "nothing blacklisted" [] stats.blacklisted_methods;
  Alcotest.(check string) "output intact" "1600\n" (Jit.Engine.output e)

(* ---------- the compile-fuel watchdog ---------- *)

(* A call chain deep enough for several inlining rounds. *)
let deep_src =
  {|def leaf(x: Int): Int = x + 1
def mid(x: Int): Int = leaf(x) + leaf(x + 1)
def top(x: Int): Int = mid(x) + mid(x + 2)
def bench(): Int = {
  var acc = 0;
  var i = 0;
  while (i < 30) { acc = acc + top(i); i = i + 1; }
  acc
}
def main(): Unit = { println(bench()) }|}

(* Budget scan: under every budget the watchdog either aborts the
   compilation entirely (Fuel.Exhausted escapes: not even one round
   finished) or returns a body that passes the verifier. Tiny budgets
   must abort; generous ones must complete with the same result as an
   unbounded compile. *)
let test_watchdog_budget_scan () =
  let prog = Util.compile deep_src in
  Opt.Driver.prepare_program prog;
  let vm = Runtime.Interp.create prog in
  for _ = 1 to 5 do
    ignore (Runtime.Interp.run_main vm)
  done;
  let m =
    match Ir.Program.find_meth prog "bench" with
    | Some m -> m
    | None -> Alcotest.fail "no bench"
  in
  let unbounded =
    Inliner.Algorithm.compile prog vm.profiles Inliner.Params.default m
  in
  Util.check_verifies unbounded.body;
  let aborted = ref 0 and partial = ref 0 and complete = ref 0 in
  for budget = 1 to 80 do
    match
      Support.Fuel.with_budget budget (fun () ->
          Inliner.Algorithm.compile prog vm.profiles Inliner.Params.default m)
    with
    | exception Support.Fuel.Exhausted -> incr aborted
    | result ->
        Util.check_verifies result.body;
        Alcotest.(check bool) "at least one round completed" true
          (result.stats.rounds >= 1);
        if result.stats.rounds < unbounded.stats.rounds then incr partial
        else incr complete
  done;
  Alcotest.(check bool) "tiny budgets abort entirely" true (!aborted > 0);
  Alcotest.(check bool) "generous budgets complete" true (!complete > 0);
  Alcotest.(check bool) "watchdog exercised across the scan" true
    (!aborted + !partial + !complete = 80)

(* Through the engine: a starved per-compilation budget must degrade to
   bailouts (soft failures feeding the backoff path), never break the
   program, and a generous one must compile normally. *)
let test_engine_compile_fuel () =
  let interp = make hot_src None in
  ignore (Jit.Engine.run_main interp);
  let starved = make ~compile_fuel:1 hot_src (Some (Util.incremental ())) in
  ignore (Jit.Engine.run_main starved);
  Alcotest.(check string) "starved output = interp output"
    (Jit.Engine.output interp) (Jit.Engine.output starved);
  Alcotest.(check bool) "fuel exhaustion recorded as bailouts" true
    ((Jit.Engine.bailout_stats starved).failed_attempts > 0);
  List.iter
    (fun (b : Jit.Engine.bailout) ->
      Alcotest.(check string) "bailout reason" "fuel exhausted" b.reason)
    starved.bailouts;
  let roomy = make ~compile_fuel:100_000 hot_src (Some (Util.incremental ())) in
  ignore (Jit.Engine.run_main roomy);
  Alcotest.(check int) "generous budget: no bailouts" 0
    (Jit.Engine.bailout_stats roomy).failed_attempts;
  Alcotest.(check bool) "generous budget compiles" true
    (Jit.Engine.installed_methods roomy > 0)

(* ---------- chaos: determinism ---------- *)

let chaos_trace ~seed ~rate (src : string) : string list * string =
  let sink, lines = Obs.Trace.memory_sink () in
  let out =
    Obs.Trace.scoped sink (fun () ->
        Support.Chaos.scoped ~seed ~rate (fun () ->
            let e = make ~hotness:3 src (Some (Util.incremental ())) in
            ignore (Jit.Engine.run_main e);
            Jit.Engine.output e))
  in
  (lines (), out)

(* Same (seed, rate) → byte-identical trace, fault for fault. A different
   seed must eventually produce a different fault plan. *)
let test_chaos_deterministic () =
  let t1, o1 = chaos_trace ~seed:42 ~rate:0.5 deep_src in
  let t2, o2 = chaos_trace ~seed:42 ~rate:0.5 deep_src in
  Alcotest.(check (list string)) "same seed: identical traces" t1 t2;
  Alcotest.(check string) "same seed: identical output" o1 o2;
  let different =
    List.exists
      (fun seed -> fst (chaos_trace ~seed ~rate:0.5 deep_src) <> t1)
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check bool) "some other seed diverges the fault plan" true different

(* ---------- chaos: invalidation storms ---------- *)

(* Storms throw away installed code but are bounded by max_recompiles, so
   even rate 1.0 converges: after the cap the code stays installed. *)
let test_invalidation_storm_bounded () =
  let interp = make hot_src None in
  ignore (Jit.Engine.run_main interp);
  for _ = 1 to 3 do
    ignore (Jit.Engine.run_meth interp "main" [ Runtime.Values.Vunit ])
  done;
  let copying : Jit.Engine.compiler =
   fun prog _ m ->
    match (Ir.Program.meth prog m).body with
    | Some fn -> Ir.Fn.copy fn
    | None -> Alcotest.fail "no body"
  in
  let e = make hot_src (Some copying) in
  (* install code before the fault plan goes live: at rate 1.0 every
     in-plan compile attempt is killed, so nothing would install *)
  ignore (Jit.Engine.run_main e);
  Alcotest.(check bool) "installed before the storm" true
    (Jit.Engine.installed_methods e > 0);
  Support.Chaos.scoped ~seed:7 ~rate:1.0 (fun () ->
      for _ = 1 to 3 do
        ignore (Jit.Engine.run_meth e "main" [ Runtime.Values.Vunit ])
      done);
  Alcotest.(check string) "output survives the storm" (Jit.Engine.output interp)
    (Jit.Engine.output e);
  Alcotest.(check bool) "storms invalidated code" true
    (List.length e.invalidations > 0);
  (* boundedness: no method is invalidated more than max_recompiles *)
  let per_meth = Hashtbl.create 8 in
  List.iter
    (fun (m, _) ->
      Hashtbl.replace per_meth m
        (1 + Option.value ~default:0 (Hashtbl.find_opt per_meth m)))
    e.invalidations;
  Hashtbl.iter
    (fun _ n ->
      Alcotest.(check bool) "invalidations bounded by max_recompiles" true
        (n <= Jit.Engine.max_recompiles))
    per_meth

(* ---------- chaos: the differential property ---------- *)

(* Observable behavior one run exposes to the program. *)
type obs = { output : string; results : string list }

let interp_obs (src : string) ~(extra : int) : obs =
  let e = make src None in
  let results = ref [ Runtime.Values.to_string (Jit.Engine.run_main e) ] in
  for _ = 1 to extra do
    results :=
      Runtime.Values.to_string (Jit.Engine.run_meth e "main" [ Runtime.Values.Vunit ])
      :: !results
  done;
  { output = Jit.Engine.output e; results = List.rev !results }

let chaos_obs ~seed ~rate (src : string) ~(extra : int) : obs * Jit.Engine.t =
  Support.Chaos.scoped ~seed ~rate (fun () ->
      let e = make ~hotness:3 src (Some (Util.incremental ())) in
      let results = ref [ Runtime.Values.to_string (Jit.Engine.run_main e) ] in
      for _ = 1 to extra do
        results :=
          Runtime.Values.to_string
            (Jit.Engine.run_meth e "main" [ Runtime.Values.Vunit ])
          :: !results
      done;
      ({ output = Jit.Engine.output e; results = List.rev !results }, e))

(* Workload sources for the property: distinct shapes — straight-line
   hot loop, deep call chain, polymorphic dispatch. *)
let poly_src =
  {|abstract class Shape { def area(): Int }
class Sq(s: Int) extends Shape { def area(): Int = this.s * this.s }
class Rect(w: Int, h: Int) extends Shape { def area(): Int = this.w * this.h }
def pick(i: Int): Shape = if (i % 2 == 0) { new Sq(i) } else { new Rect(i, i + 1) }
def main(): Unit = {
  var i = 0;
  var acc = 0;
  while (i < 40) { acc = acc + pick(i).area(); i = i + 1; }
  println(acc);
}|}

let property_sources = [ hot_src; deep_src; poly_src ]

(* Under ANY fault plan (seed × rate × program), the tiered engine with
   chaos must be output- and result-identical to the pure interpreter,
   no exception may escape, and no method may fail more often than the
   blacklist cap allows (blacklisted methods stop retrying). *)
let prop_chaos_differential =
  let gen =
    QCheck.Gen.(
      triple (int_bound 99_999)
        (oneofl [ 0.1; 0.3; 0.5; 0.8; 1.0 ])
        (int_bound (List.length property_sources - 1)))
  in
  let arb =
    QCheck.make
      ~print:(fun (seed, rate, i) ->
        Printf.sprintf "seed=%d rate=%.1f program=%d" seed rate i)
      gen
  in
  QCheck.Test.make ~name:"tiered-with-faults = pure interpreter" ~count:60 arb
    (fun (seed, rate, i) ->
      let src = List.nth property_sources i in
      let reference = interp_obs src ~extra:2 in
      let faulted, e = chaos_obs ~seed ~rate src ~extra:2 in
      if reference.output <> faulted.output then
        QCheck.Test.fail_reportf "output diverged under faults: %S vs %S"
          reference.output faulted.output;
      if reference.results <> faulted.results then
        QCheck.Test.fail_reportf "results diverged under faults";
      (* convergence: nobody fails past the cap, and every blacklisted
         method's failure count is exactly the cap *)
      Array.iteri
        (fun m (st : Jit.Engine.meth_state) ->
          let n = st.failures in
          if n > Jit.Engine.max_compile_failures then
            QCheck.Test.fail_reportf "method %d failed %d > cap" m n;
          if Jit.Engine.blacklisted e m && n <> Jit.Engine.max_compile_failures then
            QCheck.Test.fail_reportf "method %d blacklisted at %d failures" m n)
        e.meths;
      true)

(* At rate 1.0 every compilation fails, so the faulted engine must match
   the interpreter not just observably but on the execution clock: same
   cycles, same steps — proof that bailouts leave zero residue on the
   mutator. *)
let prop_chaos_rate1_exact =
  let arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 99_999) in
  QCheck.Test.make ~name:"rate 1.0: cycles and steps equal interpreter" ~count:20
    arb (fun seed ->
      List.for_all
        (fun src ->
          let interp = make src None in
          ignore (Jit.Engine.run_main interp);
          Support.Chaos.scoped ~seed ~rate:1.0 (fun () ->
              let e = make ~hotness:3 src (Some (Util.incremental ())) in
              ignore (Jit.Engine.run_main e);
              if Jit.Engine.installed_methods e <> 0 then
                QCheck.Test.fail_reportf "rate 1.0 installed code";
              if Jit.Engine.output e <> Jit.Engine.output interp then
                QCheck.Test.fail_reportf "output diverged";
              if e.vm.cycles <> interp.vm.cycles then
                QCheck.Test.fail_reportf "cycles diverged: %d vs %d" e.vm.cycles
                  interp.vm.cycles;
              if e.vm.steps <> interp.vm.steps then
                QCheck.Test.fail_reportf "steps diverged";
              true))
        property_sources)

let () =
  Alcotest.run "chaos"
    [
      ( "bailout",
        [
          test "backoff doubles and blacklists at the cap" test_backoff_doubling;
          test "blacklisted methods stop retrying" test_blacklist_converges;
          test "transient failure recovers" test_transient_failure_recovers;
        ] );
      ( "watchdog",
        [
          test "budget scan: abort or verifiable body" test_watchdog_budget_scan;
          test "engine compile-fuel degrades gracefully" test_engine_compile_fuel;
        ] );
      ( "chaos",
        [
          test "fault plan is seed-deterministic" test_chaos_deterministic;
          test "invalidation storms are bounded" test_invalidation_storm_bounded;
          QCheck_alcotest.to_alcotest prop_chaos_differential;
          QCheck_alcotest.to_alcotest prop_chaos_rate1_exact;
        ] );
    ]
