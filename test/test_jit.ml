(* Tests for the tiered engine: hotness-triggered compilation, code-cache
   installation, the compile-cycle meter, and the benchmark harness. *)

open Util

let counting_compiler (counter : int ref) : Jit.Engine.compiler =
 fun prog _profiles m ->
  incr counter;
  match (Ir.Program.meth prog m).body with
  | Some fn -> Ir.Fn.copy fn
  | None -> Alcotest.fail "compiling a method without a body"

let hot_src =
  {|def work(n: Int): Int = { var i = 0; var s = 0; while (i < n) { s = s + i; i = i + 1 }; s }
    def bench(): Int = work(20)
    def main(): Unit = println(bench())|}

let engine_tests =
  [
    test "methods compile when crossing the hotness threshold" (fun () ->
        let counter = ref 0 in
        let e = engine ~hotness:5 hot_src (Some (counting_compiler counter)) "count" in
        for _ = 1 to 4 do
          ignore (Jit.Engine.run_meth e "bench" [ Runtime.Values.Vunit ])
        done;
        Alcotest.(check int) "nothing compiled below threshold" 0 !counter;
        ignore (Jit.Engine.run_meth e "bench" [ Runtime.Values.Vunit ]);
        Alcotest.(check int) "bench and work compiled at threshold" 2 !counter);
    test "each method compiles exactly once" (fun () ->
        let counter = ref 0 in
        let e = engine ~hotness:3 hot_src (Some (counting_compiler counter)) "once" in
        for _ = 1 to 50 do
          ignore (Jit.Engine.run_meth e "bench" [ Runtime.Values.Vunit ])
        done;
        Alcotest.(check int) "bench + work" 2 !counter);
    test "installed code is actually used" (fun () ->
        (* install a stub that returns a constant and observe the change *)
        let prog = compile hot_src in
        let e =
          Jit.Engine.create prog
            {
              name = "stub";
              compiler =
                Some
                  (fun _ _ _ ->
                    let open Ir.Types in
                    let fn = Ir.Fn.create ~fname:"stub" ~param_tys:[| Tunit |] ~rty:Tint in
                    let b = Ir.Fn.add_block fn in
                    fn.entry <- b;
                    let c = Ir.Fn.append fn b (Const (Cint 777)) in
                    Ir.Fn.set_term fn b (Return c);
                    fn);
              hotness_threshold = 3;
              compile_cost_per_node = 1;
              verify = true;
            }
        in
        let last = ref Runtime.Values.Vunit in
        for _ = 1 to 5 do
          last := Jit.Engine.run_meth e "bench" [ Runtime.Values.Vunit ]
        done;
        Alcotest.(check int) "stub result" 777 (Runtime.Values.as_int !last));
    test "interpreter config never compiles" (fun () ->
        let e = engine hot_src None "interp" in
        for _ = 1 to 50 do
          ignore (Jit.Engine.run_meth e "bench" [ Runtime.Values.Vunit ])
        done;
        Alcotest.(check int) "no code" 0 (Jit.Engine.installed_methods e));
    test "compile cycles metered per installed node" (fun () ->
        let e = engine ~hotness:2 hot_src (Some (incremental ())) "meter" in
        for _ = 1 to 10 do
          ignore (Jit.Engine.run_meth e "bench" [ Runtime.Values.Vunit ])
        done;
        Alcotest.(check bool) "compile cycles > 0" true (e.compile_cycles > 0);
        Alcotest.(check int) "cycles = 50 * size" (50 * Jit.Engine.installed_code_size e)
          e.compile_cycles);
    test "code size accounts installed bodies" (fun () ->
        let e = engine ~hotness:2 hot_src (Some (incremental ())) "size" in
        for _ = 1 to 10 do
          ignore (Jit.Engine.run_meth e "bench" [ Runtime.Values.Vunit ])
        done;
        Alcotest.(check bool) "some code" true (Jit.Engine.installed_code_size e > 0);
        match Jit.Engine.compiled_body e "bench" with
        | Some fn -> check_verifies fn
        | None -> Alcotest.fail "bench not in cache");
  ]

(* Regression: an exception escaping the pluggable compiler (or the
   verify step) used to propagate out of [Interp] through [on_entry] and
   abort the whole run. The engine must contain it, record a bailout,
   and keep interpreting. *)
let bailout_tests =
  [
    test "a crashing compiler does not abort the run" (fun () ->
        let crashes = ref 0 in
        let e =
          engine ~hotness:3 hot_src
            (Some
               (fun _ _ _ ->
                 incr crashes;
                 failwith "boom: injected compiler bug"))
            "crash"
        in
        let last = ref Runtime.Values.Vunit in
        for _ = 1 to 20 do
          last := Jit.Engine.run_meth e "bench" [ Runtime.Values.Vunit ]
        done;
        Alcotest.(check int) "program result unaffected" 190
          (Runtime.Values.as_int !last);
        Alcotest.(check bool) "compiler was invoked" true (!crashes > 0);
        Alcotest.(check int) "nothing installed" 0 (Jit.Engine.installed_methods e);
        Alcotest.(check bool) "bailouts recorded" true (e.bailouts <> []);
        Alcotest.(check bool) "reason captured" true
          (List.for_all
             (fun (b : Jit.Engine.bailout) ->
               contains_substring ~needle:"boom" b.reason)
             e.bailouts));
    test "a verifier reject does not abort the run" (fun () ->
        (* a compiler producing ill-formed IR: the verify step throws *)
        let bogus : Jit.Engine.compiler =
         fun _ _ _ ->
          let open Ir.Types in
          let fn = Ir.Fn.create ~fname:"bogus" ~param_tys:[| Tunit |] ~rty:Tint in
          let b = Ir.Fn.add_block fn in
          fn.entry <- b;
          Ir.Fn.set_term fn b (Return 9999);  (* undefined value id *)
          fn
        in
        let e = engine ~hotness:3 hot_src (Some bogus) "bogus" in
        let last = ref Runtime.Values.Vunit in
        for _ = 1 to 10 do
          last := Jit.Engine.run_meth e "bench" [ Runtime.Values.Vunit ]
        done;
        Alcotest.(check int) "result correct" 190 (Runtime.Values.as_int !last);
        Alcotest.(check int) "ill-formed body never installed" 0
          (Jit.Engine.installed_methods e);
        Alcotest.(check bool) "bailout names the verifier" true
          (List.exists
             (fun (b : Jit.Engine.bailout) ->
               contains_substring ~needle:"verify" b.reason)
             e.bailouts));
    test "host-process conditions are not contained" (fun () ->
        Alcotest.(check bool) "Out_of_memory fatal" false
          (Jit.Engine.containable Out_of_memory);
        Alcotest.(check bool) "Sys.Break fatal" false
          (Jit.Engine.containable Sys.Break);
        Alcotest.(check bool) "Failure contained" true
          (Jit.Engine.containable (Failure "x"));
        Alcotest.(check bool) "Stack_overflow contained" true
          (Jit.Engine.containable Stack_overflow));
  ]

let harness_tests =
  [
    test "harness iterations speed up after compilation" (fun () ->
        let e = engine ~hotness:5 hot_src (Some (incremental ())) "warm" in
        let run = Jit.Harness.run_benchmark ~iters:30 e ~entry:"bench" ~label:"warm" in
        let first = (List.hd run.iterations).cycles in
        Alcotest.(check bool) "peak below first" true (run.peak_cycles < float_of_int first);
        Alcotest.(check int) "30 iterations" 30 (List.length run.iterations));
    test "harness peak uses the steady-state window" (fun () ->
        let e = engine hot_src None "flat" in
        let run = Jit.Harness.run_benchmark ~iters:10 e ~entry:"bench" ~label:"flat" in
        (* interpreter-only: every iteration costs the same *)
        Alcotest.(check (float 0.5)) "stddev 0" 0.0 run.peak_stddev);
    test "harness records code growth" (fun () ->
        let e = engine ~hotness:3 hot_src (Some (incremental ())) "growth" in
        let run = Jit.Harness.run_benchmark ~iters:10 e ~entry:"bench" ~label:"g" in
        let first = List.hd run.iterations in
        let last = List.nth run.iterations 9 in
        Alcotest.(check bool) "methods appear" true
          (last.compiled_methods > first.compiled_methods || first.compiled_methods > 0));
  ]

(* Phase shift: the receiver distribution at a shared callsite changes
   after the method compiles — the paper's Section II "noisy estimates /
   phase shifts" difficulty. With speculation management on, the stale
   typeswitch is invalidated and the method recompiles against the new
   profile. *)
let phase_shift_src =
  {|abstract class A { def m(): Int }
    class B() extends A { def m(): Int = 1 }
    class C() extends A { def m(): Int = 2 }
    def call(a: A): Int = a.m() + a.m() + a.m()
    def main(): Unit = println(call(new B()) + call(new C()))|}

(* [call] is driven directly with receivers built from the host side, so
   its own compiled code (and its typeswitch speculation) stays live —
   no caller ever inlines it. *)
let spec_engine ?spec_miss_threshold () =
  let prog = compile phase_shift_src in
  let e =
    Jit.Engine.create ?spec_miss_threshold prog
      {
        name = "spec";
        compiler = Some (incremental ());
        hotness_threshold = 4;
        compile_cost_per_node = 50;
        verify = true;
      }
  in
  let mk name =
    let cls =
      let r = ref (-1) in
      Ir.Program.iter_classes
        (fun (c : Ir.Types.cls) -> if c.c_name = name then r := c.c_id)
        prog;
      !r
    in
    Runtime.Values.alloc_obj prog cls
  in
  (e, mk "B", mk "C")

let drive e receiver n =
  let last = ref 0 in
  for _ = 1 to n do
    last :=
      Runtime.Values.as_int
        (Jit.Engine.run_meth e "call" [ Runtime.Values.Vunit; receiver ])
  done;
  !last

let speculation_tests =
  [
    test "phase shift invalidates and recompiles" (fun () ->
        let e, b, c = spec_engine ~spec_miss_threshold:50 () in
        (* phase 1: train the speculation on B receivers *)
        Alcotest.(check int) "phase 1 result" 3 (drive e b 30);
        Alcotest.(check int) "no invalidations yet" 0 (List.length e.invalidations);
        (* phase 2: only C receivers — every dispatch misses the typeswitch *)
        Alcotest.(check int) "phase 2 result" 6 (drive e c 60);
        Alcotest.(check bool) "call invalidated" true (List.length e.invalidations >= 1);
        let call_m = Option.get (Ir.Program.find_meth e.vm.prog "call") in
        Alcotest.(check bool) "call recompiled" true (Option.is_some (Runtime.Interp.installed e.vm call_m));
        Alcotest.(check int) "still correct" 6 (drive e c 1));
    test "recompilation improves post-shift performance" (fun () ->
        let measure ?spec_miss_threshold () =
          let e, b, c = spec_engine ?spec_miss_threshold () in
          ignore (drive e b 30);
          ignore (drive e c 60);
          let c0 = e.vm.cycles in
          ignore (drive e c 20);
          e.vm.cycles - c0
        in
        let with_inval = measure ~spec_miss_threshold:50 () in
        let without = measure () in
        if with_inval >= without then
          Alcotest.failf "recompilation did not help: %d vs %d" with_inval without);
    test "invalidations are bounded by max_recompiles" (fun () ->
        let e, b, c = spec_engine ~spec_miss_threshold:20 () in
        ignore (drive e b 10);
        (* alternate phases to provoke repeated misses *)
        for _ = 1 to 40 do
          ignore (drive e c 3);
          ignore (drive e b 3)
        done;
        Alcotest.(check bool) "bounded" true
          (List.length e.invalidations <= Jit.Engine.max_recompiles));
    test "disabled by default" (fun () ->
        let e, b, c = spec_engine () in
        ignore (drive e b 30);
        ignore (drive e c 100);
        Alcotest.(check int) "no invalidations" 0 (List.length e.invalidations));
    test "install resets stale miss counts" (fun () ->
        (* regression: misses accumulated against a previous code version
           must not count toward invalidating the freshly installed body.
           Seed a stale counter just below the threshold before the method
           compiles; installation must clear it, so a burst of misses
           smaller than the threshold cannot invalidate. *)
        let e, b, c = spec_engine ~spec_miss_threshold:50 () in
        let call_m = Option.get (Ir.Program.find_meth e.vm.prog "call") in
        (Jit.Engine.state e call_m).misses <- 49;
        (* train and install on B receivers *)
        Alcotest.(check int) "trained" 3 (drive e b 30);
        Alcotest.(check bool) "installed" true (Option.is_some (Runtime.Interp.installed e.vm call_m));
        (* 16 C calls -> 48 fresh misses: below threshold, so the stale 49
           is the only thing that could tip it over *)
        Alcotest.(check int) "shifted" 6 (drive e c 16);
        Alcotest.(check int) "stale misses did not invalidate" 0
          (List.length e.invalidations);
        (* the threshold itself still works: one more call crosses 50 *)
        ignore (drive e c 1);
        Alcotest.(check bool) "genuine misses still invalidate" true
          (List.length e.invalidations >= 1));
  ]

(* ---------- golden engine identity ---------- *)

(* Every observable output of a fixed set of engine runs, pinned byte for
   byte. One line per run: the MD5 of its trace lines, of its metrics
   export (registry reset before the run), of its timeline rows, and of
   its report JSON — [Jit.Harness.run_json] for one engine,
   [Jit.Serve.report_json] for a fleet. A change meant only to restructure
   the engine must leave this file identical. *)

let observed (label : string) (run : Obs.Timeline.t -> Support.Json.t) : string =
  let sink, trace = Obs.Trace.memory_sink () in
  let tl, timeline = Obs.Timeline.memory () in
  Obs.Metrics.reset ();
  let report = Obs.Trace.scoped sink (fun () -> Obs.Metrics.scoped (fun () -> run tl)) in
  Printf.sprintf "%s trace=%s metrics=%s timeline=%s report=%s" label
    (md5 (String.concat "\n" (trace ())))
    (md5 (Support.Json.to_string (Obs.Metrics.to_json ())))
    (md5 (String.concat "\n" (timeline ())))
    (md5 (Support.Json.to_string report))

let incremental_config ?(hotness = 8) () : Jit.Engine.config =
  {
    name = "incremental";
    compiler = Some (incremental ());
    hotness_threshold = hotness;
    compile_cost_per_node = 50;
    verify = false;
  }

let registry name =
  match Workloads.Registry.find name with
  | Some w -> w
  | None -> Alcotest.failf "no workload %s" name

(* One engine as `selvm run --timeline` arms it, driven by the harness. *)
let golden_engine label ~entry ~iters (make : unit -> Jit.Engine.t * (unit -> unit)) =
  observed label (fun tl ->
      let e, warm = make () in
      Jit.Engine.attach_timeline e ~source:label tl;
      warm ();
      let run = Jit.Harness.run_benchmark ~iters e ~entry ~label in
      Jit.Engine.sample_timeline ~force:true e;
      Jit.Engine.snapshot_metrics e;
      Jit.Harness.run_json run)

let golden_workload ?compile_fuel label name =
  let w = registry name in
  golden_engine label ~entry:"bench" ~iters:w.iters (fun () ->
      ( Jit.Engine.create ?compile_fuel (Workloads.Registry.compile w)
          (incremental_config ()),
        ignore ))

(* OSR exits: a receiver shift mid-loop invalidates the running
   continuation, and a trap unwinds out of one. *)
let osr_shift_src =
  {|abstract class A { def m(x: Int): Int }
    class B() extends A { def m(x: Int): Int = x + 1 }
    class C() extends A { def m(x: Int): Int = x * 2 }
    def pick(i: Int, k: Int): A = if (i < k) { new B() } else { new C() }
    def bench(n: Int, k: Int): Int = {
      var s = 0;
      var i = 0;
      while (i < n) { s = s + pick(i, k).m(i); i = i + 1 };
      s
    }
    def main(): Unit = println(bench(4000, 2000))|}

let osr_trap_src =
  {|def bench(n: Int): Int = {
      var s = 0;
      var i = 0 - 400;
      while (i < n) { s = s + 1000 / i; i = i + 1 };
      s
    }
    def safe(): Int = bench(0 - 1)
    def main(): Unit = println(bench(100))|}

(* The CI serve soak's fleet: 8 tenants, queue 2, cache 400, deadline 64. *)
let golden_fleet label ~chaos_rate =
  observed label (fun tl ->
      let tenants =
        List.concat_map
          (fun (name, count) ->
            let w = registry name in
            List.init count (fun k ->
                {
                  Jit.Serve.tn_id = Printf.sprintf "%s#%d" name k;
                  tn_make =
                    (fun () -> (Workloads.Registry.compile w, incremental_config ()));
                  tn_iters = w.iters;
                }))
          [ ("gauss-mix", 3); ("long-loop", 3); ("nested-loop", 2) ]
      in
      let limits =
        {
          Jit.Serve.queue_capacity = Some 2;
          queue_age_unit = 1024;
          cache_capacity = Some 400;
          compile_deadline = Some 64;
          chaos_rate;
          chaos_seed = 7;
        }
      in
      Jit.Serve.report_json (Jit.Serve.run ~limits ~timeline:tl tenants))

(* In order: [snapshot_metrics] registers per-pattern gauges that later
   exports list (at zero), so each line depends on the runs before it. *)
let golden_lines () : string list =
  List.map
    (fun run -> run ())
    [
      (fun () -> golden_workload "gauss-mix" "gauss-mix");
      (fun () -> golden_workload "long-loop" "long-loop");
      (fun () -> golden_workload "nested-loop" "nested-loop");
      (fun () ->
        Support.Chaos.scoped ~seed:7 ~rate:0.8 (fun () ->
            golden_workload "gauss-mix/chaos-0.8" "gauss-mix"));
      (fun () -> golden_workload ~compile_fuel:2 "gauss-mix/fuel-2" "gauss-mix");
      (* train [call] on B receivers, then shift to C: invalidate, recompile *)
      (fun () ->
        golden_engine "phase-shift/spec-miss-50" ~entry:"main" ~iters:3 (fun () ->
            let e, b, c = spec_engine ~spec_miss_threshold:50 () in
            (e, fun () -> ignore (drive e b 30); ignore (drive e c 60))));
      (fun () ->
        golden_engine "osr-shift/spec-miss-50" ~entry:"main" ~iters:2 (fun () ->
            ( Jit.Engine.create ~spec_miss_threshold:50 (compile osr_shift_src)
                (incremental_config ~hotness:4 ()),
              ignore )));
      (fun () ->
        golden_engine "osr-trap" ~entry:"safe" ~iters:3 (fun () ->
            let e =
              Jit.Engine.create (compile osr_trap_src) (incremental_config ~hotness:3 ())
            in
            ( e,
              fun () ->
                try ignore (Jit.Engine.run_main e) with Runtime.Values.Trap _ -> () )));
      (fun () -> golden_fleet "fleet/chaos-0.0" ~chaos_rate:0.0);
      (fun () -> golden_fleet "fleet/chaos-0.2" ~chaos_rate:0.2);
    ]

let golden_tests =
  [
    test "engine traces, metrics, timelines and reports match the golden file"
      (fun () -> check_golden "engine.golden" (golden_lines ()));
  ]

let () =
  Alcotest.run "jit"
    [
      ("golden", golden_tests);
      ("engine", engine_tests);
      ("bailout", bailout_tests);
      ("harness", harness_tests);
      ("speculation", speculation_tests);
    ]
