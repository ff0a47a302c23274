(* Tests for the telemetry subsystem: the ambient trace sink, event
   emission from the engine/inliner/optimizer, trace determinism, and the
   [selvm events] summary aggregation. *)

open Util

(* Runs [hot_src] under the incremental JIT with a memory sink installed;
   returns the collected JSONL lines. *)
let traced_run ?(iters = 20) () =
  let sink, lines = Obs.Trace.memory_sink () in
  Obs.Trace.scoped sink (fun () ->
      let e =
        engine ~hotness:3
          {|def work(n: Int): Int = { var i = 0; var s = 0; while (i < n) { s = s + i; i = i + 1 }; s }
            def bench(): Int = work(20)
            def main(): Unit = println(bench())|}
          (Some (incremental ())) "traced"
      in
      for _ = 1 to iters do
        ignore (Jit.Engine.run_meth e "bench" [ Runtime.Values.Vunit ])
      done;
      (e, lines ()))

let kind_of line =
  match Support.Json.of_string line with
  | Ok j -> Option.bind (Support.Json.member "ev" j) Support.Json.to_string_opt
  | Error _ -> None

let has_kind k lines = List.exists (fun l -> kind_of l = Some k) lines

(* Folds a trace as [selvm events] does, through the tolerant scanner,
   and requires every line to be well formed. *)
let summary_of (lines : string list) : Obs.Summary.t =
  let events, errors = Obs.Summary.parse_lines lines in
  (match errors with
  | [] -> ()
  | (n, e) :: _ -> Alcotest.failf "malformed trace line %d: %s" n e);
  Obs.Summary.of_events (List.map snd events)

let trace_tests =
  [
    test "disabled tracing emits nothing and costs nothing" (fun () ->
        Alcotest.(check bool) "not enabled" false (Obs.Trace.enabled ());
        (* the fields closure must never be forced without a sink *)
        Obs.Trace.emit "boom" (fun () -> Alcotest.fail "fields forced while disabled");
        let _, lines = traced_run () in
        Alcotest.(check bool) "sink collected events" true (lines <> []);
        (* after the scoped run the ambient sink is restored to nothing *)
        Alcotest.(check bool) "disabled again" false (Obs.Trace.enabled ()));
    test "every line is valid single-object JSON with ev and cycles" (fun () ->
        let _, lines = traced_run () in
        List.iter
          (fun line ->
            match Support.Json.of_string line with
            | Error e -> Alcotest.failf "bad JSONL line %S: %s" line e
            | Ok j ->
                Alcotest.(check bool) "has ev" true
                  (Support.Json.member "ev" j <> None);
                (match Option.bind (Support.Json.member "cycles" j)
                         Support.Json.to_int_opt with
                | Some c -> Alcotest.(check bool) "cycles >= 0" true (c >= 0)
                | None -> Alcotest.failf "no cycles in %S" line))
          lines);
    test "engine and compiler pipeline events all appear" (fun () ->
        let _, lines = traced_run () in
        List.iter
          (fun k ->
            Alcotest.(check bool) (k ^ " present") true (has_kind k lines))
          [
            "compile_start"; "compile_done"; "install";
            "inline_round"; "expand_decision"; "inline_decision"; "opt_round";
          ]);
    test "identical runs produce byte-identical traces" (fun () ->
        let _, a = traced_run () in
        let _, b = traced_run () in
        Alcotest.(check (list string)) "deterministic" a b);
    test "cycle stamps are monotonically non-decreasing" (fun () ->
        let _, lines = traced_run () in
        let cycles =
          List.filter_map
            (fun l ->
              match Support.Json.of_string l with
              | Ok j -> Option.bind (Support.Json.member "cycles" j)
                          Support.Json.to_int_opt
              | Error _ -> None)
            lines
        in
        let rec mono = function
          | a :: (b :: _ as rest) -> a <= b && mono rest
          | _ -> true
        in
        Alcotest.(check bool) "monotone" true (mono cycles));
    test "scoped nests and restores the previous sink" (fun () ->
        let outer, outer_lines = Obs.Trace.memory_sink () in
        let inner, inner_lines = Obs.Trace.memory_sink () in
        Obs.Trace.scoped outer (fun () ->
            Obs.Trace.emit "a" (fun () -> []);
            Obs.Trace.scoped inner (fun () -> Obs.Trace.emit "b" (fun () -> []));
            Obs.Trace.emit "c" (fun () -> []));
        Alcotest.(check int) "outer got a and c" 2 (List.length (outer_lines ()));
        Alcotest.(check int) "inner got b" 1 (List.length (inner_lines ()));
        Alcotest.(check bool) "uninstalled at exit" false (Obs.Trace.enabled ()));
    test "tracing does not perturb execution" (fun () ->
        let run traced =
          let body () =
            let e =
              engine ~hotness:3
                {|def work(n: Int): Int = { var i = 0; var s = 0; while (i < n) { s = s + i; i = i + 1 }; s }
                  def bench(): Int = work(20)
                  def main(): Unit = println(bench())|}
                (Some (incremental ())) "x"
            in
            for _ = 1 to 20 do
              ignore (Jit.Engine.run_meth e "bench" [ Runtime.Values.Vunit ])
            done;
            (e.vm.cycles, e.vm.steps, Jit.Engine.installed_code_size e)
          in
          if traced then
            let sink, _ = Obs.Trace.memory_sink () in
            Obs.Trace.scoped sink body
          else body ()
        in
        let c1, s1, z1 = run false and c2, s2, z2 = run true in
        Alcotest.(check int) "cycles identical" c1 c2;
        Alcotest.(check int) "steps identical" s1 s2;
        Alcotest.(check int) "code size identical" z1 z2);
  ]

let summary_tests =
  [
    test "summary aggregates match the engine" (fun () ->
        let e, lines = traced_run () in
        let s = summary_of lines in
        Alcotest.(check int) "event total" (List.length lines) s.Obs.Summary.total;
        Alcotest.(check int) "installs" (Jit.Engine.installed_methods e)
          (List.length s.Obs.Summary.installs);
        Alcotest.(check int) "installed size"
          (Jit.Engine.installed_code_size e)
          (Obs.Summary.installed_code_size s);
        Alcotest.(check bool) "inliner decisions seen" true
          (s.Obs.Summary.inline_yes + s.Obs.Summary.inline_no > 0);
        Alcotest.(check bool) "render is non-empty" true
          (String.length (Obs.Summary.render s) > 0));
    test "unknown event kinds still count" (fun () ->
        let s =
          summary_of
            [ {|{"ev": "mystery", "cycles": 5}|}; {|{"ev": "mystery", "cycles": 6}|} ]
        in
        Alcotest.(check int) "total" 2 s.Obs.Summary.total;
        Alcotest.(check (option int)) "kind count" (Some 2)
          (List.assoc_opt "mystery" s.Obs.Summary.kinds);
        Alcotest.(check int) "last cycles" 6 s.Obs.Summary.last_cycles);
    test "ic_site events aggregate" (fun () ->
        let s =
          summary_of
            [
              {|{"ev": "ic_site", "cycles": 10, "m": 0, "meth": "f", "sidx": 2, "selector": "m", "ic_hit": 98, "ic_miss": 2, "ic_megamorphic": 0}|};
              {|{"ev": "ic_site", "cycles": 11, "m": 1, "meth": "g", "sidx": 0, "selector": "m", "ic_hit": 5, "ic_miss": 4, "ic_megamorphic": 7}|};
            ]
        in
        Alcotest.(check int) "sites" 2 s.Obs.Summary.ic_sites;
        Alcotest.(check int) "hits" 103 s.Obs.Summary.ic_hits;
        Alcotest.(check int) "misses" 6 s.Obs.Summary.ic_misses;
        Alcotest.(check int) "megamorphic" 7 s.Obs.Summary.ic_megamorphic;
        Alcotest.(check bool) "render reports the caches" true
          (contains_substring ~needle:"inline caches" (Obs.Summary.render s)));
    test "harness emits ic_site events matching the run totals" (fun () ->
        let sink, lines = Obs.Trace.memory_sink () in
        let run =
          Obs.Trace.scoped sink (fun () ->
              let e =
                engine ~hotness:max_int
                  {|abstract class A { def m(x: Int): Int }
                    class A1() extends A { def m(x: Int): Int = x + 1 }
                    class A2() extends A { def m(x: Int): Int = x * 2 }
                    def pick(i: Int): A = {
                      var p: A = new A1();
                      if (i % 2 == 1) { p = new A2() };
                      p
                    }
                    def bench(): Int = {
                      var acc = 0;
                      var i = 0;
                      while (i < 20) { acc = acc + pick(i).m(i); i = i + 1; };
                      acc
                    }
                    def main(): Unit = println(bench())|}
                  None "ic-trace"
              in
              Jit.Harness.run_benchmark ~iters:5 e ~entry:"bench"
                ~label:"ic-trace")
        in
        Alcotest.(check bool) "run counted hits" true (run.Jit.Harness.ic_hits > 0);
        let s = summary_of (lines ()) in
        Alcotest.(check int) "sites" run.Jit.Harness.ic_sites s.Obs.Summary.ic_sites;
        Alcotest.(check int) "hits" run.Jit.Harness.ic_hits s.Obs.Summary.ic_hits;
        Alcotest.(check int) "misses" run.Jit.Harness.ic_misses
          s.Obs.Summary.ic_misses;
        Alcotest.(check int) "megamorphic" run.Jit.Harness.ic_megamorphic
          s.Obs.Summary.ic_megamorphic);
    test "file round trip via with_file" (fun () ->
        let path = Filename.temp_file "selvm_trace" ".jsonl" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Obs.Trace.with_file path (fun () ->
                Obs.Trace.emit "install" (fun () ->
                    Support.Json.
                      [ ("m", Int 0); ("meth", String "f"); ("size", Int 4) ]);
                Obs.Trace.emit "invalidate" (fun () ->
                    Support.Json.
                      [ ("m", Int 0); ("meth", String "f"); ("misses", Int 9);
                        ("recompiles", Int 1) ]));
            let s =
              summary_of (In_channel.with_open_text path In_channel.input_lines)
            in
            Alcotest.(check int) "two events" 2 s.Obs.Summary.total;
            Alcotest.(check int) "one install" 1 (List.length s.Obs.Summary.installs);
            Alcotest.(check int) "one invalidation" 1
              (List.length s.Obs.Summary.invalidations)));
    test "bailout and chaos events aggregate" (fun () ->
        let lines =
          [
            {|{"ev":"compile_bailout","cycles":10,"m":1,"meth":"f","reason":"boom","failures":1,"charged":200,"blacklisted":false}|};
            {|{"ev":"chaos","cycles":12,"fault":"compiler_crash","m":1,"meth":"f"}|};
            {|{"ev":"chaos","cycles":13,"fault":"compiler_crash","m":1,"meth":"f"}|};
            {|{"ev":"chaos","cycles":14,"fault":"invalidation_storm","m":2,"meth":"g"}|};
            {|{"ev":"compile_bailout","cycles":20,"m":1,"meth":"f","reason":"verify: bad","failures":2,"charged":200,"blacklisted":true}|};
          ]
        in
        let s = summary_of lines in
        Alcotest.(check int) "bailouts" 2 (List.length s.Obs.Summary.bailouts);
        Alcotest.(check (list string)) "blacklisted" [ "f" ] s.Obs.Summary.blacklisted;
        Alcotest.(check bool) "chaos faults counted" true
          (s.Obs.Summary.chaos_faults
          = [ ("compiler_crash", 2); ("invalidation_storm", 1) ]);
        let rendered = Obs.Summary.render s in
        Alcotest.(check bool) "render reports bailouts" true
          (Util.contains_substring ~needle:"compile bailouts" rendered);
        Alcotest.(check bool) "render reports the blacklist" true
          (Util.contains_substring ~needle:"blacklisted" rendered);
        Alcotest.(check bool) "render reports chaos faults" true
          (Util.contains_substring ~needle:"chaos faults injected" rendered));
    test "engine bailouts land in the trace end-to-end" (fun () ->
        let sink, lines = Obs.Trace.memory_sink () in
        Obs.Trace.scoped sink (fun () ->
            let crashing : Jit.Engine.compiler = fun _ _ _ -> failwith "boom" in
            let e =
              Util.engine ~hotness:3
                {|def f(x: Int): Int = x + 1
def main(): Unit = {
  var i = 0;
  while (i < 30) { println(f(i)); i = i + 1; }
}|}
                (Some crashing) "bailout-trace"
            in
            ignore (Jit.Engine.run_main e);
            let s = summary_of (lines ()) in
            Alcotest.(check int) "trace sees every bailout"
              (Jit.Engine.bailout_stats e).failed_attempts
              (List.length s.Obs.Summary.bailouts);
            Alcotest.(check (list string)) "trace sees the blacklist" [ "f" ]
              s.Obs.Summary.blacklisted));
  ]

(* ---------- per-run splitting and tolerant parsing ---------- *)

let multirun_tests =
  [
    test "parse_lines keeps good events and numbers the bad ones" (fun () ->
        let lines =
          [
            {|{"ev": "install", "cycles": 1, "meth": "f", "size": 3}|};
            "{oops";
            "";
            {|{"ev": "install", "cycles": 2, "meth": "g", "size": 4}|};
            "also not json";
          ]
        in
        let events, errors = Obs.Summary.parse_lines lines in
        Alcotest.(check (list int)) "event lines" [ 1; 4 ] (List.map fst events);
        Alcotest.(check (list int)) "error lines" [ 2; 5 ] (List.map fst errors));
    test "split_runs keys aggregates per run_start marker" (fun () ->
        let ev s = Result.get_ok (Support.Json.of_string s) in
        let events =
          List.map ev
            [
              {|{"ev": "install", "cycles": 1, "meth": "pre", "size": 1}|};
              {|{"ev": "run_start", "cycles": 2, "label": "first"}|};
              {|{"ev": "install", "cycles": 3, "meth": "a", "size": 2}|};
              {|{"ev": "install", "cycles": 4, "meth": "b", "size": 3}|};
              {|{"ev": "run_start", "cycles": 5, "label": "second"}|};
              {|{"ev": "install", "cycles": 6, "meth": "c", "size": 4}|};
            ]
        in
        match Obs.Summary.split_runs events with
        | [ (l0, s0); (l1, s1); (l2, s2) ] ->
            Alcotest.(check string) "preamble" "(preamble)" l0;
            Alcotest.(check int) "preamble installs" 1 (List.length s0.Obs.Summary.installs);
            Alcotest.(check string) "first label" "first" l1;
            Alcotest.(check int) "first installs" 2 (List.length s1.Obs.Summary.installs);
            Alcotest.(check string) "second label" "second" l2;
            Alcotest.(check int) "second installs" 1 (List.length s2.Obs.Summary.installs)
        | runs -> Alcotest.failf "expected 3 runs, got %d" (List.length runs));
    test "split_runs is empty for a markerless trace" (fun () ->
        let ev s = Result.get_ok (Support.Json.of_string s) in
        let events = [ ev {|{"ev": "install", "cycles": 1, "meth": "f", "size": 3}|} ] in
        Alcotest.(check int) "no runs" 0 (List.length (Obs.Summary.split_runs events)));
    test "the harness emits one run_start per benchmark run" (fun () ->
        let sink, lines = Obs.Trace.memory_sink () in
        Obs.Trace.scoped sink (fun () ->
            let e =
              engine ~hotness:3
                {|def bench(): Int = 7
                  def main(): Unit = println(bench())|}
                None "runs"
            in
            ignore (Jit.Harness.run_benchmark ~iters:2 e ~entry:"bench" ~label:"lbl"));
        let events, errors = Obs.Summary.parse_lines (lines ()) in
        Alcotest.(check int) "no parse errors" 0 (List.length errors);
        let markers =
          List.filter (fun (_, j) -> kind_of (Support.Json.to_string j) = Some "run_start")
            events
        in
        Alcotest.(check int) "one marker" 1 (List.length markers));
  ]

(* ---------- metrics registry ---------- *)

let metrics_tests =
  [
    test "recording is a no-op while disabled" (fun () ->
        Obs.Metrics.reset ();
        let c = Obs.Metrics.counter "test.noop_counter" in
        let h = Obs.Metrics.histogram "test.noop_hist" in
        Obs.Metrics.incr c;
        Obs.Metrics.observe h 42;
        let j = Obs.Metrics.to_json () in
        let counter_val =
          Option.bind (Support.Json.member "counters" j) (Support.Json.member "test.noop_counter")
        in
        Alcotest.(check (option int)) "counter untouched" (Some 0)
          (Option.bind counter_val Support.Json.to_int_opt));
    test "counters, gauges and histograms round-trip through to_json" (fun () ->
        Obs.Metrics.reset ();
        let c = Obs.Metrics.counter "test.c" in
        let g = Obs.Metrics.gauge "test.g" in
        let h = Obs.Metrics.histogram "test.h" in
        Obs.Metrics.scoped (fun () ->
            Obs.Metrics.incr c;
            Obs.Metrics.add c 4;
            Obs.Metrics.set g 17;
            List.iter (Obs.Metrics.observe h) [ 1; 2; 3; 100 ]);
        let j = Obs.Metrics.to_json () in
        let get section name =
          Option.bind (Support.Json.member section j) (Support.Json.member name)
        in
        Alcotest.(check (option int)) "counter" (Some 5)
          (Option.bind (get "counters" "test.c") Support.Json.to_int_opt);
        Alcotest.(check (option int)) "gauge" (Some 17)
          (Option.bind (get "gauges" "test.g") Support.Json.to_int_opt);
        let hist = get "histograms" "test.h" in
        let hfield k =
          Option.bind (Option.bind hist (Support.Json.member k)) Support.Json.to_int_opt
        in
        Alcotest.(check (option int)) "count" (Some 4) (hfield "count");
        Alcotest.(check (option int)) "sum" (Some 106) (hfield "sum");
        Alcotest.(check (option int)) "min" (Some 1) (hfield "min");
        Alcotest.(check (option int)) "max" (Some 100) (hfield "max");
        (* bucket populations must sum back to the count *)
        match Option.bind hist (Support.Json.member "buckets") with
        | Some (Support.Json.List buckets) ->
            let n =
              List.fold_left
                (fun acc b ->
                  acc
                  + Option.value ~default:0
                      (Option.bind (Support.Json.member "n" b) Support.Json.to_int_opt))
                0 buckets
            in
            Alcotest.(check int) "buckets sum to count" 4 n
        | _ -> Alcotest.fail "no buckets list");
    test "percentiles bracket the observations and p100 is the max" (fun () ->
        Obs.Metrics.reset ();
        let h = Obs.Metrics.histogram "test.pct" in
        Obs.Metrics.scoped (fun () ->
            for v = 1 to 1000 do
              Obs.Metrics.observe h v
            done);
        let p50 = Obs.Metrics.percentile h 0.5 in
        let p90 = Obs.Metrics.percentile h 0.9 in
        (* log2 buckets: the estimate is the bucket's upper bound *)
        Alcotest.(check bool) "p50 in range" true (p50 >= 500 && p50 <= 1023);
        Alcotest.(check bool) "p90 in range" true (p90 >= 900 && p90 <= 1023);
        Alcotest.(check bool) "monotone" true (p50 <= p90);
        Alcotest.(check int) "p100 is exact max" 1000 (Obs.Metrics.percentile h 1.0));
    test "registration is idempotent and kind-checked" (fun () ->
        Obs.Metrics.reset ();
        let a = Obs.Metrics.counter "test.same" in
        let b = Obs.Metrics.counter "test.same" in
        Obs.Metrics.scoped (fun () ->
            Obs.Metrics.incr a;
            Obs.Metrics.incr b);
        let j = Obs.Metrics.to_json () in
        Alcotest.(check (option int)) "same handle" (Some 2)
          (Option.bind
             (Option.bind (Support.Json.member "counters" j)
                (Support.Json.member "test.same"))
             Support.Json.to_int_opt);
        match Obs.Metrics.gauge "test.same" with
        | _ -> Alcotest.fail "kind mismatch accepted"
        | exception Invalid_argument _ -> ());
    test "a JIT run records compile metrics" (fun () ->
        Obs.Metrics.reset ();
        Obs.Metrics.scoped (fun () ->
            let e =
              engine ~hotness:3
                {|def work(n: Int): Int = n + 1
                  def bench(): Int = work(20)
                  def main(): Unit = println(bench())|}
                (Some (incremental ())) "metrics"
            in
            for _ = 1 to 20 do
              ignore (Jit.Engine.run_meth e "bench" [ Runtime.Values.Vunit ])
            done;
            Jit.Engine.snapshot_metrics e);
        let j = Obs.Metrics.to_json () in
        let get section name =
          Option.bind
            (Option.bind (Support.Json.member section j) (Support.Json.member name))
            Support.Json.to_int_opt
        in
        Alcotest.(check bool) "compiles counted" true
          (Option.value ~default:0 (get "counters" "jit.compiles") > 0);
        Alcotest.(check bool) "installs counted" true
          (Option.value ~default:0 (get "counters" "jit.installs") > 0);
        Alcotest.(check bool) "code size gauge set" true
          (Option.value ~default:0 (get "gauges" "jit.code_size") > 0);
        let lat =
          Option.bind (Support.Json.member "histograms" j)
            (Support.Json.member "jit.compile_latency_cycles")
        in
        Alcotest.(check bool) "latency histogram populated" true
          (Option.value ~default:0
             (Option.bind (Option.bind lat (Support.Json.member "count"))
                Support.Json.to_int_opt)
          > 0));
    test "exports are deterministic across identical runs" (fun () ->
        let snap () =
          Obs.Metrics.reset ();
          Obs.Metrics.scoped (fun () ->
              let e =
                engine ~hotness:3
                  {|def work(n: Int): Int = n * 2
                    def bench(): Int = work(21)
                    def main(): Unit = println(bench())|}
                  (Some (incremental ())) "det"
              in
              for _ = 1 to 15 do
                ignore (Jit.Engine.run_meth e "bench" [ Runtime.Values.Vunit ])
              done;
              Jit.Engine.snapshot_metrics e);
          Support.Json.to_string (Obs.Metrics.to_json ())
        in
        Alcotest.(check string) "byte-identical" (snap ()) (snap ()));
  ]

(* ---------- explain: inline-tree reconstruction ---------- *)

let explain_tests =
  [
    test "explain reconstructs the inline tree with the inliner's own terms"
      (fun () ->
        let e, lines = traced_run () in
        match Obs.Explain.of_lines lines with
        | Error err -> Alcotest.failf "explain rejected the trace: %s" err
        | Ok comps -> (
            let bench =
              List.filter (fun c -> c.Obs.Explain.c_meth = "bench") comps
            in
            Alcotest.(check bool) "bench compiled" true (bench <> []);
            let c = List.hd bench in
            Alcotest.(check bool) "outcome is compiled" true
              (contains_substring ~needle:"compiled" c.Obs.Explain.c_outcome);
            match
              List.find_opt
                (fun n -> n.Obs.Explain.x_target = "work")
                c.Obs.Explain.c_roots
            with
            | None -> Alcotest.fail "no callsite for work in bench's tree"
            | Some n ->
                let inl =
                  List.filter
                    (fun d -> d.Obs.Explain.d_phase = Obs.Explain.Inline)
                    n.Obs.Explain.x_decisions
                in
                Alcotest.(check bool) "inline decision recorded" true (inl <> []);
                let d = List.nth inl (List.length inl - 1) in
                Alcotest.(check string) "verdict" "inline" d.Obs.Explain.d_verdict;
                (* the tree's terms are exactly what the inliner emitted *)
                let raw =
                  List.filter_map
                    (fun l ->
                      match Support.Json.of_string l with
                      | Ok j
                        when Option.bind (Support.Json.member "ev" j)
                               Support.Json.to_string_opt
                             = Some "inline_decision"
                             && Option.bind (Support.Json.member "target" j)
                                  Support.Json.to_string_opt
                                = Some "work" -> Some j
                      | _ -> None)
                    lines
                in
                Alcotest.(check bool) "raw event exists" true (raw <> []);
                let rawd = List.nth raw (List.length raw - 1) in
                let num k =
                  match Support.Json.member k rawd with
                  | Some (Support.Json.Float f) -> f
                  | Some (Support.Json.Int i) -> float_of_int i
                  | _ -> nan
                in
                Alcotest.(check (float 1e-9)) "benefit" (num "benefit")
                  d.Obs.Explain.d_benefit;
                Alcotest.(check (float 1e-9)) "cost" (num "cost") d.Obs.Explain.d_cost;
                Alcotest.(check (float 1e-9)) "threshold" (num "threshold")
                  d.Obs.Explain.d_threshold;
                Alcotest.(check (float 1e-9)) "priority" (num "priority")
                  d.Obs.Explain.d_priority;
                (* and the decision really happened: the installed body of
                   bench has no calls left *)
                let m = Option.get (Ir.Program.find_meth e.vm.prog "bench") in
                let body = Option.get (Runtime.Interp.installed e.vm m) in
                Alcotest.(check int) "work was truly inlined" 0 (count_calls body)));
    test "render and render_why are deterministic and name the terms" (fun () ->
        let _, lines = traced_run () in
        let _, lines2 = traced_run () in
        let render l =
          match Obs.Explain.of_lines l with
          | Ok comps -> Obs.Explain.render comps
          | Error e -> Alcotest.failf "explain: %s" e
        in
        let r = render lines in
        Alcotest.(check string) "byte-identical" r (render lines2);
        Alcotest.(check bool) "tree shows the callsite" true
          (contains_substring ~needle:"work" r);
        let why =
          match Obs.Explain.of_lines lines with
          | Ok comps -> Obs.Explain.render_why comps ~meth:"work" ~site:None
          | Error e -> Alcotest.failf "explain: %s" e
        in
        List.iter
          (fun needle ->
            Alcotest.(check bool) (needle ^ " in why") true
              (contains_substring ~needle why))
          [ "expand"; "inline"; "B="; "psi="; "thr=" ]);
    test "malformed lines fail of_lines with the line number" (fun () ->
        match Obs.Explain.of_lines [ {|{"ev": "compile_start", "cycles": 1}|}; "{bad" ] with
        | Ok _ -> Alcotest.fail "accepted a malformed line"
        | Error e ->
            Alcotest.(check bool) "names line 2" true
              (contains_substring ~needle:"line 2" e));
  ]

(* ---------- per-method cycle attribution ---------- *)

let attribution_tests =
  [
    test "self and total follow the stack discipline" (fun () ->
        let a = Runtime.Attribution.create () in
        Runtime.Attribution.enter a ~meth:0 ~tier:Runtime.Attribution.Interp ~now:0;
        Runtime.Attribution.enter a ~meth:1 ~tier:Runtime.Attribution.Jit ~now:10;
        Runtime.Attribution.leave a ~now:30;
        Runtime.Attribution.leave a ~now:50;
        match Runtime.Attribution.rows a with
        | [ r0; r1 ] ->
            (* hottest-first: meth 0 has self 30, meth 1 has self 20 *)
            Alcotest.(check int) "caller meth" 0 r0.Runtime.Attribution.r_meth;
            Alcotest.(check int) "caller self" 30 r0.Runtime.Attribution.r_self;
            Alcotest.(check int) "caller total" 50 r0.Runtime.Attribution.r_total;
            Alcotest.(check int) "callee self" 20 r1.Runtime.Attribution.r_self;
            Alcotest.(check int) "callee total" 20 r1.Runtime.Attribution.r_total;
            let _, jit = r1.Runtime.Attribution.r_self_by_tier in
            Alcotest.(check int) "callee self is jit-tier" 20 jit
        | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows));
    test "recursion counts total once per method" (fun () ->
        let a = Runtime.Attribution.create () in
        Runtime.Attribution.enter a ~meth:5 ~tier:Runtime.Attribution.Interp ~now:0;
        Runtime.Attribution.enter a ~meth:5 ~tier:Runtime.Attribution.Interp ~now:10;
        Runtime.Attribution.leave a ~now:20;
        Runtime.Attribution.leave a ~now:40;
        match Runtime.Attribution.rows a with
        | [ r ] ->
            Alcotest.(check int) "invocations" 2 r.Runtime.Attribution.r_invocations;
            Alcotest.(check int) "self covers both frames" 40
              r.Runtime.Attribution.r_self;
            Alcotest.(check int) "total not double-counted" 40
              r.Runtime.Attribution.r_total
        | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows));
    test "folded stacks spell the full path from the root" (fun () ->
        let a = Runtime.Attribution.create () in
        Runtime.Attribution.enter a ~meth:0 ~tier:Runtime.Attribution.Interp ~now:0;
        Runtime.Attribution.enter a ~meth:1 ~tier:Runtime.Attribution.Interp ~now:5;
        Runtime.Attribution.leave a ~now:15;
        Runtime.Attribution.enter a ~meth:2 ~tier:Runtime.Attribution.Interp ~now:20;
        Runtime.Attribution.leave a ~now:26;
        Runtime.Attribution.leave a ~now:30;
        let name = function 0 -> "main" | 1 -> "a" | 2 -> "b" | _ -> "?" in
        Alcotest.(check (list string)) "folded lines"
          [ "main 14"; "main;a 10"; "main;b 6" ]
          (Runtime.Attribution.folded a ~name));
    test "an attributed VM run matches the engine's clocks" (fun () ->
        let observe () =
          let e =
            engine ~hotness:3
              {|def work(n: Int): Int = { var i = 0; var s = 0; while (i < n) { s = s + i; i = i + 1 }; s }
                def bench(): Int = work(20)
                def main(): Unit = println(bench())|}
              (Some (incremental ())) "attr"
          in
          let a = Runtime.Interp.enable_attribution e.vm in
          for _ = 1 to 20 do
            ignore (Jit.Engine.run_meth e "bench" [ Runtime.Values.Vunit ])
          done;
          (e, a)
        in
        let e, a = observe () in
        let rows = Runtime.Attribution.rows a in
        let self_sum =
          List.fold_left (fun acc r -> acc + r.Runtime.Attribution.r_self) 0 rows
        in
        let bench_row =
          List.find
            (fun (r : Runtime.Attribution.row) ->
              (Ir.Program.meth e.vm.prog r.r_meth).m_name = "bench")
            rows
        in
        (* every attributed cycle sits inside the entry frames *)
        Alcotest.(check int) "self cycles sum to bench's total" self_sum
          bench_row.Runtime.Attribution.r_total;
        Alcotest.(check int) "bench invocations" 20
          bench_row.Runtime.Attribution.r_invocations;
        let interp, jit = bench_row.Runtime.Attribution.r_invocations_by_tier in
        Alcotest.(check bool) "bench ran in more than one tier" true
          (interp > 0 && jit > 0);
        (* deterministic: a second identical run attributes identically *)
        let _, a2 = observe () in
        Alcotest.(check bool) "rows identical across runs" true
          (rows = Runtime.Attribution.rows a2));
    test "attribution does not perturb the simulated clocks" (fun () ->
        let run attributed =
          let e =
            engine ~hotness:3
              {|def work(n: Int): Int = n + 3
                def bench(): Int = work(20)
                def main(): Unit = println(bench())|}
              (Some (incremental ())) "attr-clock"
          in
          if attributed then ignore (Runtime.Interp.enable_attribution e.vm);
          for _ = 1 to 12 do
            ignore (Jit.Engine.run_meth e "bench" [ Runtime.Values.Vunit ])
          done;
          (e.vm.cycles, e.vm.steps, Jit.Engine.installed_code_size e)
        in
        let c1, s1, z1 = run false and c2, s2, z2 = run true in
        Alcotest.(check int) "cycles identical" c1 c2;
        Alcotest.(check int) "steps identical" s1 s2;
        Alcotest.(check int) "code size identical" z1 z2);
    test "an abstract method traps before it is attributed" (fun () ->
        List.iter
          (fun backend ->
            let prog =
              compile
                {|abstract class A { def m(): Int }
                  class B() extends A { def m(): Int = 1 }
                  def main(): Unit = println(new B().m())|}
            in
            let vm = Runtime.Interp.create ~backend prog in
            let a = Runtime.Interp.enable_attribution vm in
            (match Runtime.Interp.run_meth vm "A.m" [ Runtime.Values.Vnull ] with
            | v -> Alcotest.failf "A.m returned %s" (Runtime.Values.to_string v)
            | exception Runtime.Values.Trap msg ->
                Alcotest.(check string) "the trap" "abstract method A.m invoked" msg);
            Alcotest.(check int) "no row" 0 (List.length (Runtime.Attribution.rows a)))
          [ Runtime.Interp.Threaded; Runtime.Interp.Reference ]);
  ]

(* ---------- disabled hooks ---------- *)

(* Each hook the compiler and engine call on their hot paths is claimed to
   cost one check when disabled: [Trace.emit] with no sink, the [Metrics]
   recorders while recording is off, [Chaos.roll] with no plan and
   [Fuel.spend] with no budget. 10,000 calls of each must allocate no
   minor words. Every closure is built before the count starts, and the
   field closure [emit] is handed must never run. *)
let zero_cost_tests =
  [
    test "disabled hooks allocate nothing" (fun () ->
        Alcotest.(check bool) "no trace sink" false (Obs.Trace.enabled ());
        Alcotest.(check bool) "no chaos plan" false (Support.Chaos.enabled ());
        Alcotest.(check bool) "no fuel budget" false (Support.Fuel.enabled ());
        let was_enabled = Obs.Metrics.enabled () in
        Obs.Metrics.set_enabled false;
        let c = Obs.Metrics.counter "test.zero_cost_counter" in
        let g = Obs.Metrics.gauge "test.zero_cost_gauge" in
        let h = Obs.Metrics.histogram "test.zero_cost_hist" in
        let forced = ref 0 in
        let fields () =
          incr forced;
          [ ("forced", Support.Json.Int !forced) ]
        in
        let words f =
          let before = Gc.minor_words () in
          f ();
          Gc.minor_words () -. before
        in
        let overhead = words (fun () -> ()) in
        let check name hook =
          let loop () =
            for i = 1 to 10_000 do
              hook i
            done
          in
          Alcotest.(check int) (name ^ ": minor words over 10,000 calls") 0
            (int_of_float (words loop -. overhead))
        in
        Fun.protect
          ~finally:(fun () -> Obs.Metrics.set_enabled was_enabled)
          (fun () ->
            check "Trace.emit" (fun _ -> Obs.Trace.emit "zero_cost" fields);
            check "Metrics.incr" (fun _ -> Obs.Metrics.incr c);
            check "Metrics.add" (fun i -> Obs.Metrics.add c i);
            check "Metrics.set" (fun i -> Obs.Metrics.set g i);
            check "Metrics.observe" (fun i -> Obs.Metrics.observe h i);
            check "Chaos.roll" (fun _ -> ignore (Support.Chaos.roll Support.Chaos.Compiler_crash));
            check "Fuel.spend" (fun i -> Support.Fuel.spend i));
        Alcotest.(check int) "the field closure never ran" 0 !forced);
  ]

(* ---------- golden trace-event schema ---------- *)

(* The trace is a public interface ([selvm events]/[explain], CI jq
   scripts, OBSERVABILITY.md): this pins every event kind's field names
   and JSON types so schema drift fails the suite loudly. *)

(* ---------- timeline ---------- *)

let timeline_tests =
  [
    test "rows carry ev/cycles/seq and round-trip through the reader" (fun () ->
        let tl, read = Obs.Timeline.memory ~interval:5 () in
        Alcotest.(check int) "interval" 5 (Obs.Timeline.interval tl);
        Obs.Timeline.sample tl ~source:"t#0" ~cycles:10
          [ ("steps", Support.Json.Int 3) ];
        Obs.Timeline.fleet tl ~cycles:12 [ ("tenants", Support.Json.Int 1) ];
        Alcotest.(check int) "two rows" 2 (Obs.Timeline.rows tl);
        match Obs.Timeline.rows_of_lines (read ()) with
        | Error e -> Alcotest.fail e
        | Ok [ a; b ] ->
            Alcotest.(check string) "sample kind" "timeline_sample"
              a.Obs.Timeline.r_kind;
            Alcotest.(check string) "source" "t#0" a.Obs.Timeline.r_source;
            Alcotest.(check int) "cycles" 10 a.Obs.Timeline.r_cycles;
            Alcotest.(check int) "seq 0" 0 a.Obs.Timeline.r_seq;
            Alcotest.(check (option int))
              "gauge field" (Some 3)
              (Obs.Timeline.field a "steps");
            Alcotest.(check bool) "no metrics snapshot" true
              (Support.Json.member "metrics" a.Obs.Timeline.r_fields = None);
            Alcotest.(check string) "fleet kind" "timeline_fleet"
              b.Obs.Timeline.r_kind;
            Alcotest.(check string) "fleet rows have no tenant" ""
              b.Obs.Timeline.r_source;
            Alcotest.(check int) "seq 1" 1 b.Obs.Timeline.r_seq
        | Ok rs -> Alcotest.failf "expected 2 rows, got %d" (List.length rs));
    test "reader is strict: the first malformed line is the error" (fun () ->
        match
          Obs.Timeline.rows_of_lines
            [ {|{"ev": "timeline_sample", "cycles": 1, "seq": 0}|}; "{bad" ]
        with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted a malformed line");
    test "interval clamps to at least one cycle" (fun () ->
        let tl, _ = Obs.Timeline.memory ~interval:(-3) () in
        Alcotest.(check int) "clamped" 1 (Obs.Timeline.interval tl));
  ]

(* ---------- slo ---------- *)

let inv n = [ ("invalidations", Support.Json.Int n) ]

(* Records (source, cycles, fields) samples as timeline rows and checks
   them offline, as `selvm slo --check` reads a timeline file. *)
let check_samples (specs : Obs.Slo.spec list)
    (samples : (string * int * (string * Support.Json.t) list) list) :
    Obs.Slo.violation list =
  let tl, read = Obs.Timeline.memory () in
  List.iter
    (fun (source, cycles, fields) -> Obs.Timeline.sample tl ~source ~cycles fields)
    samples;
  match Obs.Slo.check_lines ~specs (read ()) with
  | Ok vs -> vs
  | Error e -> Alcotest.fail e

let fired_at (vs : Obs.Slo.violation list) : int list =
  List.map (fun (v : Obs.Slo.violation) -> v.v_cycles) vs

let slo_tests =
  [
    test "window-rate fires on growth past the limit, once per incident"
      (fun () ->
        let vs =
          check_samples
            [ Obs.Slo.deopt_storm ~window:100 ~limit:5 () ]
            (List.map
               (fun (cycles, n) -> ("t", cycles, inv n))
               [ (0, 0); (50, 4); (90, 10); (120, 16); (400, 16); (450, 30) ])
        in
        (* quiet at zero and under slow growth; no re-fire while the storm
           persists at 120; the window slides past it by 400 and re-arms;
           the second storm at 450 is a second incident *)
        Alcotest.(check (list int)) "fired at" [ 90; 450 ] (fired_at vs);
        let v = List.hd vs in
        Alcotest.(check string) "slo" "deopt-storm" v.Obs.Slo.v_slo;
        Alcotest.(check string) "source" "t" v.Obs.Slo.v_source;
        Alcotest.(check string) "field" "invalidations" v.Obs.Slo.v_field;
        Alcotest.(check int) "observed growth" 10 v.Obs.Slo.v_value;
        Alcotest.(check int) "limit" 5 v.Obs.Slo.v_limit;
        Alcotest.(check int) "window" 100 v.Obs.Slo.v_window);
    test "level detector fires above the limit and re-arms below it" (fun () ->
        let vs =
          check_samples
            [ Obs.Slo.cache_thrash ~limit:2 () ]
            (List.map
               (fun (cycles, n) -> ("t", cycles, [ ("evict_max", Support.Json.Int n) ]))
               [ (10, 3); (20, 4); (30, 2); (40, 5) ])
        in
        (* fires at 10, holds at 20, clears at 30, fires again at 40 *)
        Alcotest.(check (list int)) "fired at" [ 10; 40 ] (fired_at vs);
        let v = List.nth vs 1 in
        Alcotest.(check int) "level reported" 5 v.Obs.Slo.v_value;
        Alcotest.(check int) "window 0 on level" 0 v.Obs.Slo.v_window);
    test "detector state is per source: one tenant's storm is invisible to \
          another"
      (fun () ->
        match
          check_samples
            [ Obs.Slo.deopt_storm ~window:100 ~limit:2 () ]
            [ ("a", 0, inv 0); ("a", 50, inv 10); ("b", 60, inv 1) ]
        with
        | [ v ] ->
            Alcotest.(check string) "attributed to a" "a" v.Obs.Slo.v_source;
            Alcotest.(check int) "a fires" 50 v.Obs.Slo.v_cycles
        | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs));
    test "missing fields are skipped, not zeroes" (fun () ->
        Alcotest.(check int) "no field, no firing" 0
          (List.length
             (check_samples [ Obs.Slo.cache_thrash ~limit:0 () ] [ ("t", 10, inv 5) ])));
    test "offline check replays a timeline stream and ignores fleet rows"
      (fun () ->
        let tl, read = Obs.Timeline.memory ~interval:1 () in
        Obs.Timeline.sample tl ~source:"t#0" ~cycles:0 (inv 0);
        Obs.Timeline.fleet tl ~cycles:5 (inv 1000);
        Obs.Timeline.sample tl ~source:"t#0" ~cycles:10 (inv 9);
        let specs = [ Obs.Slo.deopt_storm ~window:100 ~limit:5 () ] in
        match Obs.Slo.check_lines ~specs (read ()) with
        | Error e -> Alcotest.fail e
        | Ok [ v ] ->
            Alcotest.(check string) "tenant" "t#0" v.Obs.Slo.v_source;
            Alcotest.(check int) "cycles" 10 v.Obs.Slo.v_cycles;
            Alcotest.(check bool) "render is one line" true
              (String.split_on_char '\n' (Obs.Slo.render [ v ]) |> List.length
              = 2)
        | Ok vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs));
    test "find_spec resolves the default monitors by name" (fun () ->
        List.iter
          (fun n ->
            match Obs.Slo.find_spec n with
            | Some s -> Alcotest.(check string) n n s.Obs.Slo.sp_name
            | None -> Alcotest.failf "no spec %s" n)
          [ "deopt-storm"; "queue-saturation"; "cache-thrash" ];
        Alcotest.(check bool) "unknown name" true
          (Obs.Slo.find_spec "nope" = None));
  ]

(* ---------- diff ---------- *)

(* A small two-level call graph traced under the incremental inliner;
   [params] perturbs the trial thresholds to manufacture decision drift. *)
let drift_trace ?(params = Inliner.Params.default) () : string list =
  let sink, lines = Obs.Trace.memory_sink () in
  Obs.Trace.scoped sink (fun () ->
      let e =
        engine ~hotness:3
          {|def leaf(x: Int): Int = x + 1
            def work(n: Int): Int = { var i = 0; var s = 0; while (i < n) { s = s + leaf(i); i = i + 1 }; s }
            def bench(): Int = work(20)
            def main(): Unit = println(bench())|}
          (Some (incremental ~params ())) "drift"
      in
      for _ = 1 to 20 do
        ignore (Jit.Engine.run_meth e "bench" [ Runtime.Values.Vunit ])
      done);
  lines ()

let comps_of lines =
  match Obs.Explain.of_lines lines with
  | Ok cs -> cs
  | Error e -> Alcotest.failf "bad trace: %s" e

let diff_tests =
  [
    test "diff_json: identical documents diff to nothing" (fun () ->
        let j =
          Support.Json.(Obj [ ("x", Int 1); ("l", List [ Int 1; Int 2 ]) ])
        in
        Alcotest.(check int) "no deltas" 0 (List.length (Obs.Diff.diff_json j j)));
    test "diff_json: scalar, absent and nested deltas with dotted paths"
      (fun () ->
        let a =
          Support.Json.(
            Obj [ ("nest", Obj [ ("y", Int 2) ]); ("only_a", Int 3); ("x", Int 1) ])
        in
        let b = Support.Json.(Obj [ ("nest", Obj [ ("y", Int 5) ]); ("x", Int 9) ]) in
        let ds = Obs.Diff.diff_json a b in
        Alcotest.(check (list string))
          "paths in sorted key order"
          [ "nest.y"; "only_a"; "x" ]
          (List.map (fun (d : Obs.Diff.delta) -> d.dl_path) ds);
        let abs = List.nth ds 1 in
        Alcotest.(check string) "absent marker" "(absent)" abs.Obs.Diff.dl_b);
    test "diff_json: list length and per-index deltas" (fun () ->
        let a = Support.Json.(List [ Int 1; Int 2 ]) in
        let b = Support.Json.(List [ Int 1; Int 7; Int 8 ]) in
        Alcotest.(check (list string))
          "length then indexes" [ "length"; "1" ]
          (List.map (fun (d : Obs.Diff.delta) -> d.dl_path) (Obs.Diff.diff_json a b)));
    test "diff_lines: per-line deltas plus a tail-length delta" (fun () ->
        let ds = Obs.Diff.diff_lines [ "a"; "b" ] [ "a"; "c"; "d" ] in
        Alcotest.(check (list string))
          "paths" [ "line 2"; "length" ]
          (List.map (fun (d : Obs.Diff.delta) -> d.dl_path) ds);
        Alcotest.(check int) "identical streams diff to nothing" 0
          (List.length (Obs.Diff.diff_lines [ "a"; "b" ] [ "a"; "b" ])));
    test "diff_decisions: same build, same seed — zero drift" (fun () ->
        let a = comps_of (drift_trace ()) in
        let b = comps_of (drift_trace ()) in
        Alcotest.(check int) "no drift" 0
          (List.length (Obs.Diff.diff_decisions a b)));
    test "diff_decisions: a perturbed threshold surfaces as per-callsite \
          deltas, not an opaque mismatch"
      (fun () ->
        let a = comps_of (drift_trace ()) in
        let b =
          comps_of
            (drift_trace
               ~params:(Inliner.Params.with_fixed ~te:300 ~ti:600
                          Inliner.Params.default)
               ())
        in
        let ds = Obs.Diff.diff_decisions a b in
        Alcotest.(check bool) "non-empty drift report" true (ds <> []);
        Alcotest.(check bool) "threshold deltas attributed to callsites" true
          (List.exists
             (fun (d : Obs.Diff.drift) ->
               d.df_node <> ""
               && (d.df_kind = "expand-threshold" || d.df_kind = "inline-threshold"))
             ds);
        (* every drift is anchored to a stable compilation identity *)
        List.iter
          (fun (d : Obs.Diff.drift) ->
            Alcotest.(check bool) "has compilation" true (d.df_comp <> ""))
          ds);
  ]

let json_type_name : Support.Json.t -> string = function
  | Support.Json.Null -> "null"
  | Support.Json.Bool _ -> "bool"
  | Support.Json.Int _ -> "int"
  | Support.Json.Float _ -> "float"
  | Support.Json.String _ -> "string"
  | Support.Json.List _ -> "list"
  | Support.Json.Obj _ -> "obj"

(* One schema line per event kind: "kind field:type field:type ..." with
   fields sorted; the types of a field are unioned across instances. *)
let schema_of_lines (lines : string list) : string list =
  let kinds : (string, (string, string list) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun line ->
      match Support.Json.of_string line with
      | Error e -> Alcotest.failf "schema scan: bad line %S: %s" line e
      | Ok (Support.Json.Obj fields as j) ->
          let kind =
            match Option.bind (Support.Json.member "ev" j) Support.Json.to_string_opt with
            | Some k -> k
            | None -> Alcotest.failf "event without ev: %S" line
          in
          let table =
            match Hashtbl.find_opt kinds kind with
            | Some t -> t
            | None ->
                let t = Hashtbl.create 8 in
                Hashtbl.replace kinds kind t;
                t
          in
          List.iter
            (fun (name, v) ->
              let ty = json_type_name v in
              let seen = Option.value ~default:[] (Hashtbl.find_opt table name) in
              if not (List.mem ty seen) then Hashtbl.replace table name (seen @ [ ty ]))
            fields
      | Ok _ -> Alcotest.failf "non-object event line: %S" line)
    lines;
  Hashtbl.fold
    (fun kind table acc ->
      let fields =
        Hashtbl.fold (fun name tys acc -> (name, tys) :: acc) table []
        |> List.sort compare
        |> List.map (fun (name, tys) ->
               Printf.sprintf "%s:%s" name (String.concat "|" (List.sort compare tys)))
      in
      Printf.sprintf "%s %s" kind (String.concat " " fields) :: acc)
    kinds []
  |> List.sort compare

(* Deterministically produces every event kind the tracer knows: a JIT'd
   harness run with virtual dispatch (run_start, ic_site, compile_start,
   compile_done, install, inline_round, expand_decision, inline_decision,
   opt_round), a phase-shifted speculation (invalidate), a crashing compiler (compile_bailout), a
   chaos-injected run (chaos), a long loop that OSR-enters compiled
   code and then traps (osr_enter, osr_exit), and a starved serve fleet
   with a timeline (serve_*, shed, evict, plus the timeline_sample /
   timeline_fleet rows that share the event shape). *)
let all_kind_lines () : string list =
  let collect f =
    let sink, lines = Obs.Trace.memory_sink () in
    Obs.Trace.scoped sink f;
    lines ()
  in
  let harness =
    collect (fun () ->
        let e =
          engine ~hotness:3
            {|abstract class A { def m(x: Int): Int }
              class A1() extends A { def m(x: Int): Int = x + 1 }
              class A2() extends A { def m(x: Int): Int = x * 2 }
              def pick(i: Int): A = {
                var p: A = new A1();
                if (i % 2 == 1) { p = new A2() };
                p
              }
              def work(n: Int): Int = { var i = 0; var s = 0; while (i < n) { s = s + pick(i).m(i); i = i + 1 }; s }
              def bench(): Int = work(20)
              def main(): Unit = println(bench())|}
            (Some (incremental ())) "schema"
        in
        ignore (Jit.Harness.run_benchmark ~iters:20 e ~entry:"bench" ~label:"schema"))
  in
  let invalidation =
    collect (fun () ->
        let prog =
          compile
            {|abstract class A { def m(): Int }
              class B() extends A { def m(): Int = 1 }
              class C() extends A { def m(): Int = 2 }
              def call(a: A): Int = a.m() + a.m() + a.m()
              def main(): Unit = println(call(new B()) + call(new C()))|}
        in
        let e =
          Jit.Engine.create ~spec_miss_threshold:50 prog
            { name = "schema-spec"; compiler = Some (incremental ());
              hotness_threshold = 4; compile_cost_per_node = 50; verify = true }
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
        let drive recv n =
          for _ = 1 to n do
            ignore (Jit.Engine.run_meth e "call" [ Runtime.Values.Vunit; recv ])
          done
        in
        drive (mk "B") 30;
        drive (mk "C") 60)
  in
  let bailouts =
    collect (fun () ->
        let crashing : Jit.Engine.compiler = fun _ _ _ -> failwith "boom" in
        let e =
          engine ~hotness:3
            {|def f(x: Int): Int = x + 1
              def main(): Unit = { var i = 0; while (i < 30) { println(f(i)); i = i + 1; } }|}
            (Some crashing) "schema-bailout"
        in
        ignore (Jit.Engine.run_main e))
  in
  let chaos =
    collect (fun () ->
        Support.Chaos.scoped ~seed:7 ~rate:1.0 (fun () ->
            let e =
              engine ~hotness:3 ~verify:false
                {|def f(x: Int): Int = x + 1
                  def main(): Unit = { var i = 0; while (i < 30) { println(f(i)); i = i + 1; } }|}
                (Some (incremental ())) "schema-chaos"
            in
            ignore (Jit.Engine.run_main e)))
  in
  let osr =
    collect (fun () ->
        let e =
          engine ~hotness:3
            {|def bench(n: Int): Int = {
                var acc = 0;
                var i = 0 - 300;
                while (i < n) { acc = acc + 1000 / i; i = i + 1 };
                acc
              }
              def main(): Unit = println(bench(400))|}
            (Some (incremental ())) "schema-osr"
        in
        (* the loop OSR-enters compiled code around i = -108 (backedge
           count 192 = hotness * 64) and traps at i = 0: osr_enter, then
           osr_exit with reason "trap" *)
        try ignore (Jit.Engine.run_main e)
        with Runtime.Values.Trap _ -> ())
  in
  let timeline_lines = ref [] in
  let serve =
    collect (fun () ->
        (* two tenants under a one-slot queue and a one-node cache: the
           first hot method dequeues and compiles (serve_enqueue,
           serve_dequeue), later ones are shed against the full queue
           (shed), and every install immediately overflows the cache
           (evict); the driver brackets it all with serve_start /
           serve_slice / serve_tenant_done *)
        let src =
          {|def a(n: Int): Int = { var i = 0; var s = 0; while (i < n) { s = s + i; i = i + 1 }; s }
            def b(n: Int): Int = { var i = 0; var s = 1; while (i < n) { s = s + i * i; i = i + 1 }; s }
            def c(n: Int): Int = a(n) + b(n)
            def bench(): Int = a(12) + b(12) + c(12)
            def main(): Unit = println(bench())|}
        in
        let tn id =
          {
            Jit.Serve.tn_id = id;
            tn_make =
              (fun () ->
                ( compile src,
                  {
                    Jit.Engine.name = "schema-serve";
                    compiler = Some (incremental ());
                    hotness_threshold = 3;
                    compile_cost_per_node = 50;
                    verify = false;
                  } ));
            tn_iters = 30;
          }
        in
        let limits =
          {
            Jit.Serve.queue_capacity = Some 1;
            queue_age_unit = 64;
            cache_capacity = Some 1;
            compile_deadline = None;
            chaos_rate = 0.0;
            chaos_seed = 0;
          }
        in
        (* a one-cycle timeline: its rows, which share the trace-event
           shape, are pinned in the same golden schema *)
        let tl, read = Obs.Timeline.memory ~interval:1 () in
        ignore (Jit.Serve.run ~limits ~timeline:tl [ tn "t#0"; tn "t#1" ]);
        timeline_lines := read ())
  in
  harness @ invalidation @ bailouts @ chaos @ osr @ serve
  @ !timeline_lines

let schema_tests =
  [
    test "trace event schema matches the golden file" (fun () ->
        check_golden "trace_schema.golden"
          ~hint:
            "\nIf the change is intentional, update the golden file and document \
             it in docs/OBSERVABILITY.md."
          (schema_of_lines (all_kind_lines ())));
  ]

let () =
  Alcotest.run "obs"
    [
      ("trace", trace_tests);
      ("summary", summary_tests);
      ("multirun", multirun_tests);
      ("metrics", metrics_tests);
      ("explain", explain_tests);
      ("attribution", attribution_tests);
      ("timeline", timeline_tests);
      ("slo", slo_tests);
      ("diff", diff_tests);
      ("schema", schema_tests);
      ("zero_cost", zero_cost_tests);
    ]
