(* Tests for the baseline inliners (greedy open-source-Graal-like and
   C2-like): correctness under inlining, threshold behaviour, and
   monomorphic speculation. *)

open Util

let compile_baseline (compiler : Jit.Engine.compiler) (src : string) (root : string) :
    Ir.Types.fn * Ir.Types.program * Runtime.Interp.vm =
  let prog = compile src in
  Opt.Driver.prepare_program prog;
  let vm = Runtime.Interp.create prog in
  ignore (Runtime.Interp.run_main vm);
  let m = Option.get (Ir.Program.find_meth prog root) in
  let body = compiler prog vm.profiles m in
  check_verifies body;
  (body, prog, vm)

let differential (compiler : Jit.Engine.compiler) (src : string) (roots : string list) =
  let reference = output_of ~prepare:true src in
  let prog = compile src in
  Opt.Driver.prepare_program prog;
  let vm = Runtime.Interp.create prog in
  ignore (Runtime.Interp.run_main vm);
  let cache = Hashtbl.create 4 in
  List.iter
    (fun name ->
      let m = Option.get (Ir.Program.find_meth prog name) in
      let body = compiler prog vm.profiles m in
      check_verifies body;
      Hashtbl.replace cache m body)
    roots;
  let vm2 = Runtime.Interp.create prog in
  Hashtbl.iter (fun m body -> Runtime.Interp.set_installed vm2 m (Some body)) cache;
  ignore (Runtime.Interp.run_main vm2);
  Alcotest.(check string) "differential" reference (Runtime.Interp.output vm2)

let hot_loop_src =
  {|def add1(x: Int): Int = x + 1
    def f(): Int = { var i = 0; var s = 0; while (i < 100) { s = add1(s); i = i + 1 }; s }
    def main(): Unit = println(f())|}

let mono_src =
  {|abstract class A { def m(): Int }
    class B() extends A { def m(): Int = 7 }
    class C() extends A { def m(): Int = 9 }
    def call(a: A): Int = a.m()
    def main(): Unit = {
      val b = new B();
      var i = 0;
      var s = 0;
      while (i < 50) { s = s + call(b); i = i + 1 }
      /* C exists but is never the receiver: profile is monomorphic */
      println(s)
    }|}

let greedy_tests =
  [
    test "greedy inlines the hot direct call" (fun () ->
        let body, _, _ = compile_baseline greedy hot_loop_src "f" in
        Alcotest.(check int) "no calls" 0 (count_calls body));
    test "greedy preserves behaviour" (fun () -> differential greedy hot_loop_src [ "f" ]);
    test "greedy respects the callee size cap" (fun () ->
        let params = { Baselines.Greedy.default with max_callee_size = 3 } in
        let compiler p pr m = Baselines.Greedy.compile ~params p pr m in
        let body, _, _ = compile_baseline compiler hot_loop_src "f" in
        Alcotest.(check bool) "call survives" true (count_calls body > 0));
    test "greedy respects the root size cap" (fun () ->
        let params = { Baselines.Greedy.default with max_root_size = 1 } in
        let compiler p pr m = Baselines.Greedy.compile ~params p pr m in
        let body, prog, _ = compile_baseline compiler hot_loop_src "f" in
        ignore prog;
        Alcotest.(check bool) "no growth" true (count_calls body > 0));
    test "greedy speculates monomorphic virtual calls" (fun () ->
        let body, _, _ = compile_baseline greedy mono_src "call" in
        (* the virtual call became a typeswitch whose direct call then
           inlined: only the fallback virtual call remains *)
        Alcotest.(check bool) "typetest present" true
          (count_instrs body (function Ir.Types.TypeTest _ -> true | _ -> false) >= 1);
        differential greedy mono_src [ "call" ]);
    test "greedy on all workloads is correct" (fun () ->
        List.iter
          (fun (w : Workloads.Defs.t) -> differential greedy w.source [ "bench" ])
          Workloads.Registry.all);
  ]

let c2_tests =
  [
    test "c2 inlines trivial methods at parse time" (fun () ->
        let body, _, _ = compile_baseline c2like hot_loop_src "f" in
        Alcotest.(check int) "no calls" 0 (count_calls body));
    test "c2 preserves behaviour" (fun () -> differential c2like hot_loop_src [ "f" ]);
    test "c2 trivial-size gate" (fun () ->
        let params = { Baselines.C2like.default with trivial_size = 1; max_inline_size = 1 } in
        let compiler p pr m = Baselines.C2like.compile ~params p pr m in
        let body, _, _ = compile_baseline compiler hot_loop_src "f" in
        Alcotest.(check bool) "call survives" true (count_calls body > 0));
    test "c2 speculates only above its probability bar" (fun () ->
        differential c2like mono_src [ "call" ]);
    test "c2 on all workloads is correct" (fun () ->
        List.iter
          (fun (w : Workloads.Defs.t) -> differential c2like w.source [ "bench" ])
          Workloads.Registry.all);
    test "c2 phase separation: depth grows through trivial inlining" (fun () ->
        let src =
          {|def l3(): Int = 3
            def l2(): Int = l3() + 1
            def l1(): Int = l2() + 1
            def f(): Int = l1() + 1
            def main(): Unit = println(f())|}
        in
        let body, _, _ = compile_baseline c2like src "f" in
        Alcotest.(check int) "chain fully inlined" 0 (count_calls body);
        differential c2like src [ "f" ]);
  ]

let () =
  Alcotest.run "baselines" [ ("greedy", greedy_tests); ("c2like", c2_tests) ]
