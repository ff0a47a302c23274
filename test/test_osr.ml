(* On-stack replacement tests: loop extraction (Ir.Osr), the engine's
   loop-entry OSR transfer, OSR-exit deoptimization, the trap unwind
   path, the backedge-driven entry trigger, the exponential-backoff
   clamp, and the differential exactness properties (OSR on = OSR off =
   reference interpreter, bit for bit). *)

open Util

(* An engine over [src] with the incremental inliner and OSR knobs. *)
let osr_engine ?osr ?osr_threshold ?spec_miss_threshold ?(hotness = 4)
    ?(backend : Runtime.Interp.backend option) (src : string) : Jit.Engine.t =
  let prog = compile src in
  let e =
    Jit.Engine.create ?osr ?osr_threshold ?spec_miss_threshold prog
      {
        name = "osr-test";
        compiler = Some (incremental ());
        hotness_threshold = hotness;
        compile_cost_per_node = 50;
        verify = true;
      }
  in
  (match backend with Some b -> e.vm.backend <- b | None -> ());
  e

(* Pure reference interpretation of [src]'s main. *)
let reference_output (src : string) : string =
  let prog = compile src in
  Opt.Driver.prepare_program prog;
  let vm = Runtime.Interp.create ~backend:Runtime.Interp.Reference prog in
  ignore (Runtime.Interp.run_main vm);
  Runtime.Interp.output vm

(* ---------- loop extraction ---------- *)

let loop_src =
  {|def f(n: Int): Int = {
      var s = 1;
      var i = 0;
      while (i < n) { s = s + i * i; i = i + 1 };
      s + n
    }
    def main(): Unit = println(f(25))|}

let header_of (fn : Ir.Types.fn) : Ir.Types.bid =
  match (Ir.Loops.compute fn).Ir.Loops.loops with
  | l :: _ -> l.Ir.Loops.header
  | [] -> Alcotest.fail "function has no loop"

let extraction_tests =
  [
    test "extracted continuation is verifier-clean and shape-correct" (fun () ->
        let fn = body_of (compile loop_src) "f" in
        let header = header_of fn in
        let x = Ir.Osr.extract_loop fn ~header in
        check_verifies x.Ir.Osr.x_fn;
        (* parameters are the live-ins followed by the header phis *)
        Alcotest.(check int) "param count"
          (Array.length x.Ir.Osr.x_live_ins + Array.length x.Ir.Osr.x_phis)
          (Array.length x.Ir.Osr.x_fn.Ir.Types.param_tys);
        Alcotest.(check bool) "carries loop state" true
          (Array.length x.Ir.Osr.x_phis > 0);
        (* live-in vids are ascending (the frame-mapping contract) *)
        let sorted a =
          let l = Array.to_list a in
          List.sort compare l = l
        in
        Alcotest.(check bool) "live-ins ascending" true
          (sorted x.Ir.Osr.x_live_ins);
        (* result type is the source function's: the transfer is one-way *)
        Alcotest.(check bool) "result type inherited" true
          (x.Ir.Osr.x_fn.Ir.Types.rty = fn.Ir.Types.rty);
        (* the phi mapping names real phis of the source header *)
        let fn2 = x.Ir.Osr.x_fn in
        ignore fn2;
        Array.iter
          (fun v ->
            match Ir.Fn.kind fn v with
            | Ir.Types.Phi _ -> ()
            | _ -> Alcotest.failf "v%d in x_phis is not a phi" v)
          x.Ir.Osr.x_phis);
    test "extraction does not mutate the source function" (fun () ->
        let fn = body_of (compile loop_src) "f" in
        let before = Ir.Printer.fn_to_string fn in
        let header = header_of fn in
        ignore (Ir.Osr.extract_loop fn ~header);
        Alcotest.(check string) "source unchanged" before
          (Ir.Printer.fn_to_string fn));
    test "a dead header is refused" (fun () ->
        let fn = body_of (compile loop_src) "f" in
        match Ir.Osr.extract_loop fn ~header:9999 with
        | _ -> Alcotest.fail "extracted at a non-existent header"
        | exception Ir.Osr.Not_extractable _ -> ());
  ]

(* ---------- loop-entry OSR: enter + exactness ---------- *)

(* A phase shift mid-loop: the speculated continuation is invalidated
   while its compiled frame runs, which must exit to an interpreted
   continuation (hotness 4, [~spec_miss_threshold:50]). *)
let shift_src =
  {|abstract class A { def m(x: Int): Int }
    class B() extends A { def m(x: Int): Int = x + 1 }
    class C() extends A { def m(x: Int): Int = x * 2 }
    def pick(i: Int, k: Int): A = {
      if (i < k) { new B() } else { new C() }
    }
    def bench(n: Int, k: Int): Int = {
      var s = 0;
      var i = 0;
      while (i < n) { s = s + pick(i, k).m(i); i = i + 1 };
      s
    }
    def main(): Unit = println(bench(4000, 2000))|}

(* [shift_src]'s phase shift with the virtual call moved into [g]: when
   [bench] compiles without inlining [g], the shift invalidates [g]'s
   code, not the loop's (hotness 4, [~spec_miss_threshold:50]). *)
let elsewhere_src =
  {|abstract class A { def m(x: Int): Int }
    class B() extends A { def m(x: Int): Int = x + 1 }
    class C() extends A { def m(x: Int): Int = x * 2 }
    def pick(i: Int, k: Int): A = {
      if (i < k) { new B() } else { new C() }
    }
    def g(i: Int, k: Int): Int = pick(i, k).m(i)
    def bench(n: Int, k: Int): Int = {
      var s = 0;
      var i = 0;
      while (i < n) { s = s + g(i, k); i = i + 1 };
      s
    }
    def main(): Unit = println(bench(4000, 2000))|}

(* A division by zero inside an entered continuation (hotness 3). *)
let trap_src =
  {|def bench(n: Int): Int = {
      var s = 0;
      var i = 0 - 400;
      while (i < n) { s = s + 1000 / i; i = i + 1 };
      s
    }
    def main(): Unit = println(bench(100))|}

(* The bench harness's engine: the incremental inliner at hotness 8. *)
let bench_config : Jit.Engine.config =
  {
    name = "incremental";
    compiler = Some (incremental ());
    hotness_threshold = 8;
    compile_cost_per_node = 50;
    verify = false;
  }

(* The simulated cycle at which [bench] first runs compiled code in a full
   benchmark run of [w] at the bench harness's thresholds. With OSR the
   running invocation transfers at the loop header: the first
   [osr_enter]. Without it the method runs compiled only from its next
   invocation, once promoted: the first [install]. *)
let time_to_peak (w : Workloads.Defs.t) ~(osr : bool) : int =
  let sink, lines = Obs.Trace.memory_sink () in
  Obs.Trace.scoped sink (fun () ->
      let e = Jit.Engine.create ~osr (Workloads.Registry.compile w) bench_config in
      ignore
        (Jit.Harness.run_benchmark ~iters:w.iters e ~entry:"bench" ~label:w.name));
  let kind = if osr then "osr_enter" else "install" in
  let mark l =
    let j = Result.get_ok (Support.Json.of_string l) in
    let str k = Option.bind (Support.Json.member k j) Support.Json.to_string_opt in
    if str "ev" = Some kind && str "meth" = Some "bench" then
      Option.bind (Support.Json.member "cycles" j) Support.Json.to_int_opt
    else None
  in
  match List.find_map mark (lines ()) with
  | Some cycles -> cycles
  | None -> Alcotest.failf "%s: no %s event for bench" w.name kind

let enter_tests =
  [
    test "OSR collapses time-to-peak at least 10x on long-loop and nested-loop"
      (fun () ->
        List.iter
          (fun name ->
            let w = Option.get (Workloads.Registry.find name) in
            let on = time_to_peak w ~osr:true in
            let off = time_to_peak w ~osr:false in
            let collapse = float_of_int off /. float_of_int on in
            if collapse < 10.0 then
              Alcotest.failf
                "%s: bench runs compiled at cycle %d with OSR and %d without \
                 (%.1fx, below 10x)"
                name on off collapse)
          [ "long-loop"; "nested-loop" ]);
    test "long-loop enters compiled code mid-invocation" (fun () ->
        let w = Option.get (Workloads.Registry.find "long-loop") in
        let e = osr_engine ~hotness:4 w.Workloads.Defs.source in
        ignore (Jit.Engine.run_main e);
        Alcotest.(check bool) "osr_enters > 0" true (e.osr_enters > 0);
        Alcotest.(check bool) "continuation registered" true
          ((Jit.Engine.stats e).osr_methods > 0);
        Alcotest.(check string) "output exact" w.Workloads.Defs.expected
          (Jit.Engine.output e));
    test "nested-loop enters and stays exact" (fun () ->
        let w = Option.get (Workloads.Registry.find "nested-loop") in
        let e = osr_engine ~hotness:4 w.Workloads.Defs.source in
        ignore (Jit.Engine.run_main e);
        Alcotest.(check bool) "osr_enters > 0" true (e.osr_enters > 0);
        Alcotest.(check string) "output exact" w.Workloads.Defs.expected
          (Jit.Engine.output e));
    test "OSR = no-OSR = reference, bit for bit" (fun () ->
        List.iter
          (fun name ->
            let w = Option.get (Workloads.Registry.find name) in
            let src = w.Workloads.Defs.source in
            let run osr =
              let e = osr_engine ~osr ~hotness:4 src in
              ignore (Jit.Engine.run_main e);
              (Jit.Engine.output e, e.osr_enters)
            in
            let out_on, enters = run true in
            let out_off, no_enters = run false in
            Alcotest.(check bool) (name ^ ": OSR fired") true (enters > 0);
            Alcotest.(check int) (name ^ ": kill switch inert") 0 no_enters;
            Alcotest.(check string) (name ^ ": on = off") out_off out_on;
            Alcotest.(check string) (name ^ ": on = reference")
              (reference_output src) out_on)
          [ "long-loop"; "nested-loop" ]);
    test "both backends agree under OSR" (fun () ->
        (* long-loop's enter transfer, [shift_src]'s exit on an
           invalidation and [trap_src]'s trap out of a continuation *)
        let long_loop = Option.get (Workloads.Registry.find "long-loop") in
        List.iter
          (fun (name, src, hotness, spec_miss_threshold, benches, exits) ->
            let run backend =
              let e = osr_engine ~hotness ?spec_miss_threshold ~backend src in
              let trap =
                match
                  ignore (Jit.Engine.run_main e);
                  for _ = 1 to benches do
                    ignore (Jit.Engine.run_meth e "bench" [ Runtime.Values.Vunit ])
                  done
                with
                | () -> "none"
                | exception Runtime.Values.Trap msg -> msg
              in
              ( (Jit.Engine.output e, trap),
                [ ("cycles", e.vm.cycles); ("steps", e.vm.steps);
                  ("osr_enters", e.osr_enters); ("osr_exits", e.osr_exits) ] )
            in
            let (ot, tt), t = run Runtime.Interp.Threaded in
            let (or_, tr), r = run Runtime.Interp.Reference in
            let same what = Printf.sprintf "%s: threaded = reference %s" name what in
            Alcotest.(check string) (same "output") or_ ot;
            Alcotest.(check string) (same "trap") tr tt;
            List.iter2 (fun (k, a) (_, b) -> Alcotest.(check int) (same k) b a) t r;
            Alcotest.(check bool) (name ^ ": entered") true (List.assoc "osr_enters" t > 0);
            Alcotest.(check bool) (name ^ ": exited") exits (List.assoc "osr_exits" t > 0))
          [
            ("long-loop", long_loop.Workloads.Defs.source, 4, None, 2, false);
            ("shift", shift_src, 4, Some 50, 0, true);
            ("trap", trap_src, 3, None, 0, true);
          ]);
    test "a second engine on a program runs OSR as on a fresh one" (fun () ->
        (* continuations become methods of the program, which outlives
           its engines: a later engine on it must name its own without
           colliding, and run as an engine on a fresh program does *)
        let w = Option.get (Workloads.Registry.find "long-loop") in
        let run prog =
          let e = Jit.Engine.create prog bench_config in
          ignore (Jit.Harness.run_benchmark ~iters:w.iters e ~entry:"bench" ~label:w.name);
          ( Jit.Engine.output e,
            [ ("steps", e.vm.steps); ("cycles", e.vm.cycles);
              ("osr_enters", e.osr_enters);
              ("installed nodes", Jit.Engine.installed_code_size e) ] )
        in
        let fresh_out, fresh = run (Workloads.Registry.compile w) in
        Alcotest.(check bool) "a fresh engine enters" true (List.assoc "osr_enters" fresh > 0);
        let prog = Workloads.Registry.compile w in
        List.iter
          (fun engine ->
            let out, counts = run prog in
            Alcotest.(check string) (engine ^ ": output") fresh_out out;
            List.iter2
              (fun (k, f) (_, n) -> Alcotest.(check int) (engine ^ ": " ^ k) f n)
              fresh counts)
          [ "first engine"; "second engine" ]);
  ]

(* ---------- OSR-exit: invalidation and trap deopt ---------- *)

let exit_tests =
  [
    test "mid-loop invalidation OSR-exits and stays exact" (fun () ->
        (* the phase shift at i = 2000 invalidates the speculated OSR
           continuation while its compiled frame is running: the frame
           must exit to an interpreted continuation at the next header *)
        let e = osr_engine ~hotness:4 ~spec_miss_threshold:50 shift_src in
        ignore (Jit.Engine.run_main e);
        Alcotest.(check bool) "entered" true (e.osr_enters > 0);
        Alcotest.(check bool) "exited" true (e.osr_exits > 0);
        let off = osr_engine ~osr:false ~hotness:4 ~spec_miss_threshold:50 shift_src in
        ignore (Jit.Engine.run_main off);
        Alcotest.(check string) "output = no-OSR" (Jit.Engine.output off)
          (Jit.Engine.output e);
        Alcotest.(check string) "output = reference" (reference_output shift_src)
          (Jit.Engine.output e));
    test "an invalidation elsewhere leaves a running compiled loop in its code"
      (fun () ->
        (* [bench] and its continuation compile without inlining, so the
           compiled loop keeps calling [g], whose code the phase shift
           invalidates mid-loop: the loop's own code is still installed,
           so its frame stays in it *)
        let compiler : Jit.Engine.compiler =
         fun prog profiles m ->
          let mm = Ir.Program.meth prog m in
          if String.starts_with ~prefix:"bench" mm.m_name then Ir.Fn.copy (Option.get mm.body)
          else incremental () prog profiles m
        in
        let run ~osr backend =
          let e =
            Jit.Engine.create ~osr ~spec_miss_threshold:50 (compile elsewhere_src)
              {
                name = "elsewhere";
                compiler = Some compiler;
                hotness_threshold = 4;
                compile_cost_per_node = 50;
                verify = true;
              }
          in
          e.vm.backend <- backend;
          ignore (Jit.Engine.run_main e);
          e
        in
        let t = run ~osr:true Runtime.Interp.Threaded
        and r = run ~osr:true Runtime.Interp.Reference in
        let g = Option.get (Ir.Program.find_meth t.vm.prog "g") in
        Alcotest.(check bool) "the loop entered compiled code" true (t.osr_enters > 0);
        Alcotest.(check (list int)) "only g was invalidated" [ g ] (List.map fst t.invalidations);
        List.iter
          (fun (e : Jit.Engine.t) -> Alcotest.(check int) "no OSR exit" 0 e.osr_exits)
          [ t; r ];
        Alcotest.(check (triple string int int)) "threaded = reference"
          (Jit.Engine.output r, r.vm.cycles, r.vm.steps)
          (Jit.Engine.output t, t.vm.cycles, t.vm.steps);
        List.iter
          (fun backend ->
            Alcotest.(check string) "output = no-OSR"
              (Jit.Engine.output (run ~osr:false backend))
              (Jit.Engine.output t))
          Runtime.Interp.[ Threaded; Reference ];
        Alcotest.(check string) "output = reference" (reference_output elsewhere_src)
          (Jit.Engine.output t));
    test "a trap inside an OSR continuation unwinds exactly" (fun () ->
        let run osr =
          let e = osr_engine ~osr ~hotness:3 trap_src in
          match Jit.Engine.run_main e with
          | _ -> Alcotest.fail "expected a trap"
          | exception Runtime.Values.Trap msg ->
              (msg, Jit.Engine.output e, e.osr_enters, e.osr_exits)
        in
        let msg_on, out_on, enters, exits = run true in
        let msg_off, out_off, _, _ = run false in
        Alcotest.(check bool) "entered before trapping" true (enters > 0);
        Alcotest.(check bool) "trap recorded as an exit" true (exits > 0);
        Alcotest.(check string) "same trap message" msg_off msg_on;
        Alcotest.(check string) "same partial output" out_off out_on);
  ]

(* ---------- backedge-driven entry trigger (the bugfix) ---------- *)

let hot_loop_src =
  {|def hotloop(): Int = {
      var s = 0;
      var i = 0;
      while (i < 400) { s = s + i; i = i + 1 };
      s
    }
    def main(): Unit = println(hotloop())|}

let trigger_tests =
  [
    test "single-invocation hot loop promotes at its next call" (fun () ->
        (* hotness 50 would keep hotloop interpreted for 50 calls; the
           profiled backedge count (400 >= 100) promotes it at call 2 —
           with OSR killed, so this is the entry trigger alone *)
        let e =
          osr_engine ~osr:false ~osr_threshold:100 ~hotness:50 hot_loop_src
        in
        ignore (Jit.Engine.run_meth e "hotloop" [ Runtime.Values.Vunit ]);
        Alcotest.(check bool) "interpreted on first call" true
          (Jit.Engine.compiled_body e "hotloop" = None);
        ignore (Jit.Engine.run_meth e "hotloop" [ Runtime.Values.Vunit ]);
        Alcotest.(check bool) "compiled at second call" true
          (Jit.Engine.compiled_body e "hotloop" <> None));
    test "a cold loop does not promote early" (fun () ->
        (* counts accumulate across invocations: 5 x 400 backedges stay
           under the 10000 threshold, so only invocation hotness applies *)
        let e =
          osr_engine ~osr:false ~osr_threshold:10000 ~hotness:50 hot_loop_src
        in
        for _ = 1 to 5 do
          ignore (Jit.Engine.run_meth e "hotloop" [ Runtime.Values.Vunit ])
        done;
        Alcotest.(check bool) "still interpreted" true
          (Jit.Engine.compiled_body e "hotloop" = None));
  ]

(* ---------- exponential backoff clamp (satellite bugfix) ---------- *)

let backoff_tests =
  [
    test "backoff doubles from the hotness threshold" (fun () ->
        Alcotest.(check int) "f=1" 8 (Jit.Engine.backoff_cooldown ~hotness:8 ~failures:1);
        Alcotest.(check int) "f=2" 16 (Jit.Engine.backoff_cooldown ~hotness:8 ~failures:2);
        Alcotest.(check int) "f=5" 128 (Jit.Engine.backoff_cooldown ~hotness:8 ~failures:5));
    test "backoff never overflows to a negative gate" (fun () ->
        (* the old formula [hotness * (1 lsl (failures - 1))] went
           negative past 62 failures, silently un-gating recompilation *)
        List.iter
          (fun failures ->
            let d = Jit.Engine.backoff_cooldown ~hotness:8 ~failures in
            Alcotest.(check bool)
              (Printf.sprintf "positive at %d failures" failures)
              true (d > 0))
          [ 40; 62; 63; 64; 100; 10_000; max_int ];
        (* huge hotness saturates instead of wrapping *)
        let d = Jit.Engine.backoff_cooldown ~hotness:(max_int / 2) ~failures:30 in
        Alcotest.(check bool) "huge hotness still positive" true (d > 0);
        (* saturation is monotone: more failures never shrink the gate *)
        let prev = ref 0 in
        for f = 1 to 80 do
          let d = Jit.Engine.backoff_cooldown ~hotness:8 ~failures:f in
          Alcotest.(check bool) "monotone" true (d >= !prev);
          prev := d
        done);
  ]

(* ---------- continuation failure-state inheritance (satellite) ---------- *)

let inheritance_tests =
  [
    test "a blacklisted parent burns no compile fuel through continuations"
      (fun () ->
        (* every compile crashes: the parent exhausts its failure budget
           and is blacklisted. Its synthetic @osr continuations inherit
           that state instead of getting a fresh budget, so continued
           hot-loop pressure must not record a single further bailout *)
        let crashing : Jit.Engine.compiler = fun _ _ _ -> failwith "boom" in
        let prog = compile hot_loop_src in
        let e =
          Jit.Engine.create ~osr:true ~osr_threshold:8 prog
            {
              name = "osr-inherit";
              compiler = Some crashing;
              hotness_threshold = 2;
              compile_cost_per_node = 50;
              verify = false;
            }
        in
        let drive n =
          for _ = 1 to n do
            ignore (Jit.Engine.run_meth e "hotloop" [ Runtime.Values.Vunit ])
          done
        in
        drive 60;
        let bs = Jit.Engine.bailout_stats e in
        let hotloop = Option.get (Ir.Program.find_meth prog "hotloop") in
        Alcotest.(check bool) "parent blacklisted" true
          (List.mem hotloop bs.Jit.Engine.blacklisted_methods);
        let before = bs.Jit.Engine.failed_attempts in
        drive 60;
        Alcotest.(check int) "no fuel burned through continuations" before
          (Jit.Engine.bailout_stats e).Jit.Engine.failed_attempts);
  ]

(* ---------- differential properties (qcheck) ---------- *)

let engine_over (w : Workloads.Defs.t) ~osr ~backend =
  let prog = Workloads.Registry.compile w in
  let e =
    Jit.Engine.create ~osr ~osr_threshold:8 ~spec_miss_threshold:40 prog
      {
        name = "osr-prop";
        compiler = Some (incremental ());
        hotness_threshold = 3;
        compile_cost_per_node = 50;
        verify = false;
      }
  in
  e.vm.backend <- backend;
  ignore (Jit.Engine.run_main e);
  for _ = 1 to 3 do
    ignore (Jit.Engine.run_meth e "bench" [ Runtime.Values.Vunit ])
  done;
  e

let prop_tests =
  [
    QCheck.Test.make ~count:12 ~name:"random programs: OSR = no-OSR = pinned output"
      Sel_gen.synth (fun cfg ->
        let w = Workloads.Synth.generate cfg in
        let on = engine_over w ~osr:true ~backend:Runtime.Interp.Threaded in
        let off = engine_over w ~osr:false ~backend:Runtime.Interp.Threaded in
        Jit.Engine.output on = Jit.Engine.output off
        && String.length (Jit.Engine.output on) > 0
        &&
        (* main's expected output is a prefix of the run's (main + bench) *)
        String.sub (Jit.Engine.output on) 0
          (String.length w.Workloads.Defs.expected)
          = w.Workloads.Defs.expected);
    QCheck.Test.make ~count:8 ~name:"random programs: backends agree under OSR"
      Sel_gen.synth (fun cfg ->
        let w = Workloads.Synth.generate cfg in
        let t = engine_over w ~osr:true ~backend:Runtime.Interp.Threaded in
        let r = engine_over w ~osr:true ~backend:Runtime.Interp.Reference in
        Jit.Engine.output t = Jit.Engine.output r
        && t.vm.cycles = r.vm.cycles
        && t.vm.steps = r.vm.steps);
  ]

let () =
  Alcotest.run "osr"
    [
      ("extraction", extraction_tests);
      ("enter", enter_tests);
      ("exit", exit_tests);
      ("trigger", trigger_tests);
      ("backoff", backoff_tests);
      ("inheritance", inheritance_tests);
      ("properties", List.map QCheck_alcotest.to_alcotest prop_tests);
    ]
