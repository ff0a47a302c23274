(* Tests for the optimizer: type inference, canonicalization rewrites,
   GVN, DCE, CFG simplification, read-write elimination, scalar
   replacement and LICM. Each behavioural test also re-runs the program to
   confirm the transform preserved semantics; the last group checks that
   every per-round root pass pays for itself on some workload. *)

open Util
open Ir.Types

(* Compiles, remembers interpreted output, optimizes, checks the IR still
   verifies and the output is unchanged; returns the program. *)
let optimized (src : string) : Ir.Types.program =
  let before = output_of src in
  let prog = compile src in
  Opt.Driver.prepare_program prog;
  (match Ir.Verify.check_program prog with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let vm = Runtime.Interp.create prog in
  ignore (Runtime.Interp.run_main vm);
  Alcotest.(check string) "behaviour preserved" before (Runtime.Interp.output vm);
  prog

let simplify_fn prog name =
  let fn = body_of prog name in
  let stats = Opt.Driver.simplify prog fn in
  check_verifies fn;
  (fn, stats)

let tyinfer_tests =
  [
    test "new gives exact nonnull type" (fun () ->
        let prog = compile "class C() {}\ndef f(): C = new C()\ndef main(): Unit = {}" in
        let fn = body_of prog "f" in
        let env = Opt.Tyinfer.infer prog fn in
        let found = ref false in
        Ir.Fn.iter_instrs
          (fun i ->
            match i.kind with
            | New _ -> (
                match Opt.Tyinfer.value_type env i.id with
                | Opt.Tyinfer.Vt_obj { exact = true; nonnull = true; _ } -> found := true
                | _ -> Alcotest.fail "expected exact nonnull object")
            | _ -> ())
          fn;
        Alcotest.(check bool) "saw new" true !found);
    test "phi of two subclasses joins to parent" (fun () ->
        let prog =
          compile
            {|abstract class A {} class B() extends A {} class C() extends A {}
              def f(c: Bool): A = if (c) { new B() } else { new C() }
              def main(): Unit = {}|}
        in
        let fn = body_of prog "f" in
        let env = Opt.Tyinfer.infer prog fn in
        let ok = ref false in
        Ir.Fn.iter_instrs
          (fun i ->
            match i.kind with
            | Phi _ -> (
                match Opt.Tyinfer.value_type env i.id with
                | Opt.Tyinfer.Vt_obj { exact = false; nonnull = true; cls } ->
                    Alcotest.(check string) "parent" "A" (Ir.Program.cls prog cls).c_name;
                    ok := true
                | _ -> Alcotest.fail "expected inexact parent type")
            | _ -> ())
          fn;
        Alcotest.(check bool) "saw phi" true !ok);
    test "spec_tys refines parameter types for devirt" (fun () ->
        let prog =
          compile
            {|abstract class A { def m(): Int }
              class B() extends A { def m(): Int = 1 }
              class C() extends A { def m(): Int = 2 }
              def f(a: A): Int = a.m()
              def main(): Unit = println(f(new B()))|}
        in
        let fn = Ir.Fn.copy (body_of prog "f") in
        let env = Opt.Tyinfer.infer prog fn in
        let recv =
          let r = ref (-1) in
          Ir.Fn.iter_instrs (fun i -> match i.kind with Param 1 -> r := i.id | _ -> ()) fn;
          !r
        in
        Alcotest.(check (option int)) "no target with declared type" None
          (Opt.Tyinfer.devirt_target prog env recv "m");
        let b = Option.get (Hashtbl.find_opt prog.meth_by_name "B.m") in
        let cls_b = Option.get (Ir.Program.meth prog b).owner in
        fn.spec_tys.(1) <- Tobj cls_b;
        let env = Opt.Tyinfer.infer prog fn in
        Alcotest.(check (option int)) "target with refined type" (Some b)
          (Opt.Tyinfer.devirt_target prog env recv "m"));
    test "typetest folds to false on disjoint classes" (fun () ->
        let prog =
          compile
            {|class A() {} class B() {}
              def f(): A = new A()
              def main(): Unit = {}|}
        in
        let fn = body_of prog "f" in
        let env = Opt.Tyinfer.infer prog fn in
        let cls_b =
          let r = ref (-1) in
          Ir.Program.iter_classes
            (fun (c : cls) -> if c.c_name = "B" then r := c.c_id)
            prog;
          !r
        in
        let new_vid =
          let r = ref (-1) in
          Ir.Fn.iter_instrs (fun i -> match i.kind with New _ -> r := i.id | _ -> ()) fn;
          !r
        in
        Alcotest.(check (option bool)) "disjoint" (Some false)
          (Opt.Tyinfer.typetest_result prog env new_vid cls_b));
  ]

let canon_tests =
  [
    test "constant folding" (fun () ->
        let prog = optimized "def f(): Int = 2 + 3 * 4\ndef main(): Unit = println(f())" in
        let fn = body_of prog "f" in
        Alcotest.(check int) "no binops" 0
          (count_instrs fn (function Binop _ -> true | _ -> false)));
    test "algebraic identities" (fun () ->
        let prog =
          optimized
            "def f(x: Int): Int = (x + 0) * 1 + (x - x)\ndef main(): Unit = println(f(5))"
        in
        let fn = body_of prog "f" in
        Alcotest.(check int) "no arithmetic left" 0
          (count_instrs fn (function
            | Binop ((Add | Sub | Mul), _, _) -> true
            | _ -> false)));
    test "strength reduction mul to shift" (fun () ->
        let prog = optimized "def f(x: Int): Int = x * 8\ndef main(): Unit = println(f(3))" in
        let fn = body_of prog "f" in
        Alcotest.(check int) "shift" 1
          (count_instrs fn (function Binop (Shl, _, _) -> true | _ -> false));
        Alcotest.(check int) "no mul" 0
          (count_instrs fn (function Binop (Mul, _, _) -> true | _ -> false)));
    test "division by zero is not folded" (fun () ->
        let prog = compile "def f(): Int = 1 / 0\ndef main(): Unit = {}" in
        Opt.Driver.prepare_program prog;
        let fn = body_of prog "f" in
        Alcotest.(check int) "div kept" 1
          (count_instrs fn (function Binop (Div, _, _) -> true | _ -> false)));
    test "branch pruning removes the untaken branch" (fun () ->
        let prog =
          optimized
            "def f(): Int = if (1 < 2) { 10 } else { 20 }\ndef main(): Unit = println(f())"
        in
        let fn = body_of prog "f" in
        Alcotest.(check int) "single block" 1 (List.length (Ir.Fn.block_ids fn)));
    test "CHA devirtualization with unique implementation" (fun () ->
        let prog =
          optimized
            {|abstract class A { def m(): Int }
              class B() extends A { def m(): Int = 7 }
              def f(a: A): Int = a.m()
              def main(): Unit = println(f(new B()))|}
        in
        let fn = body_of prog "f" in
        Alcotest.(check int) "virtual gone" 0 (count_virtual_calls fn));
    test "no devirtualization with two implementations" (fun () ->
        let prog =
          optimized
            {|abstract class A { def m(): Int }
              class B() extends A { def m(): Int = 1 }
              class C() extends A { def m(): Int = 2 }
              def f(a: A): Int = a.m()
              def main(): Unit = println(f(new B()) + f(new C()))|}
        in
        let fn = body_of prog "f" in
        Alcotest.(check int) "still virtual" 1 (count_virtual_calls fn));
    test "devirtualization through exact local type" (fun () ->
        let prog =
          optimized
            {|abstract class A { def m(): Int }
              class B() extends A { def m(): Int = 1 }
              class C() extends A { def m(): Int = 2 }
              def f(): Int = { val b = new B(); b.m() }
              def main(): Unit = println(f())|}
        in
        let fn = body_of prog "f" in
        Alcotest.(check int) "devirted" 0 (count_virtual_calls fn));
    test "intrinsic folding" (fun () ->
        let prog =
          optimized
            {|def f(): Int = "hello".length + abs(0 - 4) + min(2, 3) + max(2, 3)
              def main(): Unit = println(f())|}
        in
        let fn = body_of prog "f" in
        Alcotest.(check int) "no intrinsics" 0
          (count_instrs fn (function Intrinsic _ -> true | _ -> false)));
    test "canonicalization counts events" (fun () ->
        let prog = compile "def f(x: Int): Int = x * 4 + (2 + 3)\ndef main(): Unit = {}" in
        let fn = body_of prog "f" in
        let stats = Opt.Driver.simplify prog fn in
        Alcotest.(check bool) "events > 0" true (Opt.Driver.simple_opt_count stats > 0));
    test "canonicalization is idempotent" (fun () ->
        let prog =
          compile
            {|def f(x: Int, c: Bool): Int = {
                var acc = x * 16 + 0;
                if (c && true) { acc = acc + 1 * x };
                acc
              }
              def main(): Unit = {}|}
        in
        let fn = body_of prog "f" in
        ignore (Opt.Driver.simplify prog fn);
        let stats2 = Opt.Driver.simplify prog fn in
        Alcotest.(check int) "no more events" 0 (Opt.Driver.simple_opt_count stats2));
    test "comparison of a value with itself folds" (fun () ->
        let prog =
          optimized "def f(x: Int): Bool = x == x\ndef main(): Unit = println(f(3))"
        in
        let fn = body_of prog "f" in
        Alcotest.(check int) "no compare" 0
          (count_instrs fn (function Binop _ -> true | _ -> false)));
  ]

let gvn_tests =
  [
    test "duplicate pure expressions collapse" (fun () ->
        let prog =
          compile "def f(a: Int, b: Int): Int = (a + b) * (a + b)\ndef main(): Unit = {}"
        in
        let fn, _ = simplify_fn prog "f" in
        Alcotest.(check int) "one add" 1
          (count_instrs fn (function Binop (Add, _, _) -> true | _ -> false)));
    test "commutative operands normalize" (fun () ->
        let prog =
          compile "def f(a: Int, b: Int): Int = (a + b) - (b + a)\ndef main(): Unit = {}"
        in
        let fn, _ = simplify_fn prog "f" in
        Alcotest.(check int) "all folded" 0
          (count_instrs fn (function Binop _ -> true | _ -> false)));
    test "array length is value-numbered" (fun () ->
        let prog =
          compile "def f(a: Array[Int]): Int = a.length + a.length\ndef main(): Unit = {}"
        in
        let fn, _ = simplify_fn prog "f" in
        Alcotest.(check int) "one arraylen" 1
          (count_instrs fn (function ArrayLen _ -> true | _ -> false)));
    test "mutable loads are not value-numbered" (fun () ->
        let src =
          {|class C(f: Int) {}
            def g(c: C): Int = { val a = c.f; c.f = a + 1; val b = c.f; a + b }
            def main(): Unit = println(g(new C(10)))|}
        in
        Alcotest.(check string) "semantics" "21\n" (output_of ~prepare:true src));
    test "value numbering respects dominance" (fun () ->
        let prog =
          compile
            {|def f(c: Bool, x: Int): Int = if (c) { x * x + 1 } else { x * x + 2 }
              def main(): Unit = {}|}
        in
        let fn, _ = simplify_fn prog "f" in
        check_verifies fn);
  ]

let dce_tests =
  [
    test "unused pure computation removed" (fun () ->
        let prog =
          compile "def f(x: Int): Int = { val dead = x * x + 1; x }\ndef main(): Unit = {}"
        in
        let fn, _ = simplify_fn prog "f" in
        Alcotest.(check int) "no mul" 0
          (count_instrs fn (function Binop (Mul, _, _) -> true | _ -> false)));
    test "unused allocation removed once its call is gone" (fun () ->
        (* DCE is conservative about calls (the constructor), so build the
           situation directly: a New with no constructor call *)
        let open Ir.Types in
        let prog = compile "class C() {}\ndef main(): Unit = {}" in
        let fn = Ir.Fn.create ~fname:"t" ~param_tys:[||] ~rty:Tint in
        let b = Ir.Fn.add_block fn in
        fn.entry <- b;
        let _dead = Ir.Fn.append fn b (New 0) in
        let c = Ir.Fn.append fn b (Const (Cint 1)) in
        Ir.Fn.set_term fn b (Return c);
        ignore (Opt.Dce.run fn);
        check_verifies fn;
        ignore prog;
        Alcotest.(check int) "no new" 0
          (count_instrs fn (function New _ -> true | _ -> false)));
    test "unused dead load removed" (fun () ->
        let prog =
          compile
            "def f(a: Array[Int]): Int = { val dead = a.length; 7 }\ndef main(): Unit = {}"
        in
        let fn, _ = simplify_fn prog "f" in
        Alcotest.(check int) "no arraylen" 0
          (count_instrs fn (function ArrayLen _ -> true | _ -> false)));
    test "prints are kept" (fun () ->
        let prog = compile "def f(): Int = { println(1); 2 }\ndef main(): Unit = {}" in
        let fn, _ = simplify_fn prog "f" in
        Alcotest.(check bool) "intrinsics kept" true
          (count_instrs fn (function Intrinsic _ -> true | _ -> false) >= 2));
    test "stores are kept" (fun () ->
        let prog =
          compile
            "class C(f: Int) {}\ndef g(c: C): Int = { c.f = 5; 1 }\ndef main(): Unit = {}"
        in
        let fn, _ = simplify_fn prog "g" in
        Alcotest.(check int) "store kept" 1
          (count_instrs fn (function SetField _ -> true | _ -> false)));
    test "phi cycles feeding only themselves die" (fun () ->
        let prog =
          compile
            {|def f(n: Int): Int = {
                var dead = 0;
                var i = 0;
                while (i < n) { dead = dead + i; i = i + 1; }
                n
              }
              def main(): Unit = {}|}
        in
        let fn, _ = simplify_fn prog "f" in
        Alcotest.(check int) "one phi left (i)" 1
          (count_instrs fn (function Phi _ -> true | _ -> false)));
  ]

let simplify_cfg_tests =
  [
    test "unreachable code eliminated after constant branch" (fun () ->
        let prog =
          compile
            "def f(): Int = if (true) { 1 } else { 1 / 0 }\ndef main(): Unit = println(f())"
        in
        Opt.Driver.prepare_program prog;
        let fn = body_of prog "f" in
        Alcotest.(check int) "single block" 1 (List.length (Ir.Fn.block_ids fn));
        Alcotest.(check int) "no div" 0
          (count_instrs fn (function Binop (Div, _, _) -> true | _ -> false)));
    test "cleanup result stays well-formed on workloads" (fun () ->
        List.iter
          (fun (w : Workloads.Defs.t) ->
            let prog = Workloads.Registry.compile w in
            Opt.Driver.prepare_program prog;
            match Ir.Verify.check_program prog with
            | Ok () -> ()
            | Error e -> Alcotest.failf "%s: %s" w.name e)
          Workloads.Registry.all);
  ]

(* The xorshift step of pmd-rules and xalan-xform, on constants: 15
   dependent folds (shl, bxor, shr, bxor, ... sub, rem, eq), each reading
   the one before. [eq] compares with the chain's own value, so the whole
   body folds to [true]. With [~spread:true] each operator step (a shift
   with its xor counts as one) gets a block of its own, and block ids run
   against execution order: every step is used by a block listed before
   it. *)
let xorshift_chain ~spread : fn =
  let fn = Ir.Fn.create ~fname:"chain" ~param_tys:[||] ~rty:Tbool in
  let n = if spread then 10 else 1 in
  let blocks = Array.init n (fun _ -> Ir.Fn.add_block fn) in
  fn.entry <- blocks.(n - 1);
  for i = 1 to n - 1 do
    Ir.Fn.set_term fn blocks.(i) (Goto blocks.(i - 1))
  done;
  let next = ref (n - 1) in
  let step op a k =
    let b = blocks.(!next) in
    next := max 0 (!next - 1);
    Ir.Fn.append fn b (Binop (op, a, Ir.Fn.append fn b (Const (Cint k))))
  in
  let x = ref (Ir.Fn.append fn blocks.(n - 1) (Const (Cint 88172645))) in
  let value = ref 88172645 in
  List.iter
    (fun (op, k) ->
      let shifted = step op !x k in
      x := Ir.Fn.append fn (Ir.Fn.block_of fn shifted) (Binop (Bxor, !x, shifted));
      value := !value lxor (if op = Shl then !value lsl k else !value asr k))
    [ (Shl, 13); (Shr, 7); (Shl, 17); (Shl, 13); (Shr, 7); (Shl, 17) ];
  let eq = step Eq (step Rem (step Sub !x 3) 1000) ((!value - 3) mod 1000) in
  Ir.Fn.set_term fn blocks.(0) (Return eq);
  fn

let algorithm_compile prog profiles m =
  (Inliner.Algorithm.compile prog profiles Inliner.Params.default m).body

(* Every compile the tiered engine performs on [w], as the golden test in
   test_inliner drives it, by [compile]; [f] sees each compiled body. *)
let iter_compiled ?(compile = algorithm_compile) (w : Workloads.Defs.t) (prog : program)
    (f : meth -> fn -> unit) =
  let compiler prog profiles m =
    let body = compile prog profiles m in
    f (Ir.Program.meth prog m) body;
    body
  in
  let e =
    Jit.Engine.create prog
      { name = "fixpoint"; compiler = Some compiler; hotness_threshold = 8;
        compile_cost_per_node = 50; verify = false }
  in
  for _ = 1 to w.iters do
    ignore (Jit.Engine.run_meth e "bench" [ Runtime.Values.Vunit ])
  done

(* A second [simplify] must neither rewrite nor change the printed body. *)
let check_fixpoint (what : string) (prog : program) (fn : fn) =
  let copy = Ir.Fn.copy fn in
  let before = Ir.Printer.fn_to_string copy in
  let s = Opt.Driver.simplify prog copy in
  if s.canon <> 0 || s.gvn <> 0 || s.dce <> 0 || Ir.Printer.fn_to_string copy <> before then
    Alcotest.failf "%s is not a simplify fixpoint: canon=%d gvn=%d dce=%d" what s.canon s.gvn
      s.dce

let fixpoint_tests =
  [
    test "a chain of 15 dependent folds collapses in one simplify" (fun () ->
        List.iter
          (fun spread ->
            let fn = xorshift_chain ~spread in
            check_verifies fn;
            let s = Opt.Driver.simplify (compile "def main(): Unit = ()") fn in
            check_verifies fn;
            Alcotest.(check int) "15 folds" 15 s.canon;
            Alcotest.(check int) "one constant and the return" 2 (Ir.Fn.size fn);
            match Ir.Fn.term fn fn.entry with
            | Return v -> (
                match Ir.Fn.kind fn v with
                | Const (Cbool true) -> ()
                | _ -> Alcotest.fail "the chain did not fold to true")
            | _ -> Alcotest.fail "no return")
          [ false; true ]);
    test "GVN and CFG cleanup re-enable canonicalization" (fun () ->
        let returns_zero fn =
          ignore (Opt.Driver.simplify (compile "def main(): Unit = ()") fn);
          check_verifies fn;
          Ir.Fn.fold_blocks
            (fun ok blk ->
              match blk.term with Return v -> ok && Ir.Fn.kind fn v = Const (Cint 0) | _ -> ok)
            true fn
        in
        (* GVN merges the two sums, so the difference reads one value twice *)
        let fn = Ir.Fn.create ~fname:"gvn" ~param_tys:[| Tint; Tint |] ~rty:Tint in
        let b0 = Ir.Fn.add_block fn in
        fn.entry <- b0;
        let p = Ir.Fn.append fn b0 (Param 0) and q = Ir.Fn.append fn b0 (Param 1) in
        let a = Ir.Fn.append fn b0 (Binop (Add, p, q)) in
        let b = Ir.Fn.append fn b0 (Binop (Add, q, p)) in
        Ir.Fn.set_term fn b0 (Return (Ir.Fn.append fn b0 (Binop (Sub, a, b))));
        Alcotest.(check bool) "(p + q) - (q + p) folds" true (returns_zero fn);
        (* cleanup replaces a phi that merges one value twice *)
        let fn = Ir.Fn.create ~fname:"phi" ~param_tys:[| Tint; Tbool |] ~rty:Tint in
        let b0 = Ir.Fn.add_block fn and b1 = Ir.Fn.add_block fn in
        let b2 = Ir.Fn.add_block fn and b3 = Ir.Fn.add_block fn in
        fn.entry <- b0;
        let p = Ir.Fn.append fn b0 (Param 0) and c = Ir.Fn.append fn b0 (Param 1) in
        Ir.Fn.set_term fn b0 (If { cond = c; site = { sm = 0; sidx = 0 }; tb = b1; fb = b2 });
        Ir.Fn.set_term fn b1 (Goto b3);
        Ir.Fn.set_term fn b2 (Goto b3);
        let phi = Ir.Fn.append fn b3 (Phi { ty = Tint; inputs = [ (b1, p); (b2, p) ] }) in
        Ir.Fn.set_term fn b3 (Return (Ir.Fn.append fn b3 (Binop (Sub, phi, p))));
        Alcotest.(check bool) "phi(p, p) - p folds" true (returns_zero fn));
    test "prepared and compiled bodies are simplify fixpoints" (fun () ->
        let synth seed =
          Workloads.Synth.generate
            { Workloads.Synth.default with seed; depth = 4; fanout = 3; poly_degree = 4 }
        in
        List.iter
          (fun (w : Workloads.Defs.t) ->
            let prog = Workloads.Registry.compile w in
            Opt.Driver.prepare_program prog;
            Ir.Program.iter_meths
              (fun (m : meth) ->
                Option.iter
                  (check_fixpoint (Printf.sprintf "%s/%s prepared" w.name m.m_name) prog)
                  m.body)
              prog;
            iter_compiled w prog (fun m body ->
                check_fixpoint (Printf.sprintf "%s/%s compiled" w.name m.m_name) prog body))
          (Workloads.Registry.all @ [ synth 1; synth 2 ]));
  ]

let rwelim_tests =
  [
    test "store-to-load forwarding within a block" (fun () ->
        let src =
          {|class C(f: Int) {}
            def g(c: C): Int = { c.f = 42; c.f }
            def main(): Unit = println(g(new C(1)))|}
        in
        let prog = optimized src in
        let fn = body_of prog "g" in
        let n = Opt.Rwelim.run prog fn in
        check_verifies fn;
        Alcotest.(check bool) "eliminated something" true (n > 0);
        ignore (Opt.Driver.simplify prog fn);
        Alcotest.(check int) "no load left" 0
          (count_instrs fn (function GetField _ -> true | _ -> false));
        let vm = Runtime.Interp.create prog in
        ignore (Runtime.Interp.run_main vm);
        Alcotest.(check string) "out" "42\n" (Runtime.Interp.output vm));
    test "calls kill memory knowledge" (fun () ->
        let src =
          {|class C(f: Int) {}
            def touch(c: C): Unit = c.f = 99
            def g(c: C): Int = { c.f = 5; touch(c); c.f }
            def main(): Unit = println(g(new C(1)))|}
        in
        let prog = optimized src in
        let fn = body_of prog "g" in
        ignore (Opt.Rwelim.run prog fn);
        check_verifies fn;
        let vm = Runtime.Interp.create prog in
        ignore (Runtime.Interp.run_main vm);
        Alcotest.(check string) "out preserved" "99\n" (Runtime.Interp.output vm));
    test "aliasing store invalidates forwarding" (fun () ->
        let src =
          {|class C(f: Int) {}
            def g(a: C, b: C): Int = { a.f = 1; b.f = 2; a.f }
            def main(): Unit = { val c = new C(0); println(g(c, c)) }|}
        in
        Alcotest.(check string) "aliased" "2\n" (output_of src);
        let prog = compile src in
        let fn = body_of prog "g" in
        ignore (Opt.Rwelim.run prog fn);
        check_verifies fn;
        let vm = Runtime.Interp.create prog in
        ignore (Runtime.Interp.run_main vm);
        Alcotest.(check string) "still aliased" "2\n" (Runtime.Interp.output vm));
    test "dead store removed when overwritten" (fun () ->
        let src =
          {|class C(f: Int) {}
            def g(c: C): Int = { c.f = 1; c.f = 2; c.f }
            def main(): Unit = println(g(new C(0)))|}
        in
        let prog = optimized src in
        let fn = body_of prog "g" in
        ignore (Opt.Rwelim.run prog fn);
        check_verifies fn;
        Alcotest.(check int) "one store left" 1
          (count_instrs fn (function SetField _ -> true | _ -> false));
        let vm = Runtime.Interp.create prog in
        ignore (Runtime.Interp.run_main vm);
        Alcotest.(check string) "out" "2\n" (Runtime.Interp.output vm));
    test "store before aliasing load survives" (fun () ->
        let src =
          {|class C(f: Int) {}
            def g(a: C, b: C): Int = { a.f = 1; val x = b.f; a.f = 2; x + a.f }
            def main(): Unit = { val c = new C(0); println(g(c, c)) }|}
        in
        Alcotest.(check string) "aliased semantics" "3\n" (output_of src);
        let prog = compile src in
        let fn = body_of prog "g" in
        ignore (Opt.Rwelim.run prog fn);
        check_verifies fn;
        Alcotest.(check int) "both stores kept" 2
          (count_instrs fn (function SetField _ -> true | _ -> false));
        let vm = Runtime.Interp.create prog in
        ignore (Runtime.Interp.run_main vm);
        Alcotest.(check string) "out" "3\n" (Runtime.Interp.output vm));
    (* every inlining round runs the pass over the whole root, so a block
       with no field traffic must cost no tables and no closures *)
    test "read-write elimination makes no table per block" (fun () ->
        let blocks = 1_000 in
        let fn = Ir.Fn.create ~fname:"chain" ~param_tys:[||] ~rty:Tint in
        let ids = Array.init blocks (fun _ -> Ir.Fn.add_block fn) in
        fn.entry <- ids.(0);
        let acc = ref (Ir.Fn.append fn ids.(0) (Const (Cint 0))) in
        Array.iteri
          (fun i b ->
            let one = Ir.Fn.append fn b (Const (Cint 1)) in
            acc := Ir.Fn.append fn b (Binop (Add, !acc, one));
            Ir.Fn.set_term fn b (if i + 1 < blocks then Goto ids.(i + 1) else Return !acc))
          ids;
        check_verifies fn;
        let prog = compile "def main(): Unit = ()" in
        ignore (Opt.Rwelim.run prog fn);
        let before = Gc.minor_words () in
        let n = Opt.Rwelim.run prog fn in
        let per_block = (Gc.minor_words () -. before) /. float_of_int blocks in
        Alcotest.(check int) "nothing to eliminate" 0 n;
        if per_block >= 16. then
          Alcotest.failf "a second run allocated %.1f words a block" per_block);
  ]

let scalarrepl_tests =
  [
    test "straight-line allocation dissolves" (fun () ->
        (* build the post-inlining shape directly: New + stores + loads,
           no constructor call *)
        let open Ir.Types in
        let prog =
          compile "class P(a: Int, b: Int) {}\ndef main(): Unit = {}"
        in
        let fn = Ir.Fn.create ~fname:"t" ~param_tys:[| Tint |] ~rty:Tint in
        let b0 = Ir.Fn.add_block fn in
        fn.entry <- b0;
        let x = Ir.Fn.append fn b0 (Param 0) in
        let obj = Ir.Fn.append fn b0 (New 0) in
        let _ = Ir.Fn.append fn b0 (SetField { obj; slot = 0; fname = "a"; value = x }) in
        let la = Ir.Fn.append fn b0 (GetField { obj; slot = 0; fname = "a"; fty = Tint }) in
        let lb = Ir.Fn.append fn b0 (GetField { obj; slot = 1; fname = "b"; fty = Tint }) in
        let sum = Ir.Fn.append fn b0 (Binop (Add, la, lb)) in
        Ir.Fn.set_term fn b0 (Return sum);
        Alcotest.(check int) "one replaced" 1 (Opt.Scalarrepl.run prog fn);
        check_verifies fn;
        Alcotest.(check int) "no allocation" 0
          (count_instrs fn (function New _ -> true | _ -> false));
        Alcotest.(check int) "no field traffic" 0
          (count_instrs fn (function GetField _ | SetField _ -> true | _ -> false)));
    test "escaping allocations are kept" (fun () ->
        let src =
          {|class P(a: Int) {}
            def sink(p: P): Int = p.a
            def g(): Int = { val p = new P(7); sink(p) }
            def main(): Unit = println(g())|}
        in
        let prog = compile src in
        Opt.Driver.prepare_program prog;
        let fn = body_of prog "g" in
        (* the constructor call and sink call both make it escape *)
        Alcotest.(check int) "none replaced" 0 (Opt.Scalarrepl.run prog fn));
    test "box in a loop dissolves after inlining (integration)" (fun () ->
        let src =
          {|class Box(v: Int) {}
            def bench(): Int = {
              val acc = new Box(0);
              var i = 0;
              while (i < 50) { acc.v = acc.v + i; i = i + 1; }
              acc.v
            }
            def main(): Unit = println(bench())|}
        in
        let expected = output_of src in
        Alcotest.(check string) "baseline" "1225\n" expected;
        let prog = compile src in
        Opt.Driver.prepare_program prog;
        let vm = Runtime.Interp.create prog in
        ignore (Runtime.Interp.run_main vm);
        let m = Option.get (Ir.Program.find_meth prog "bench") in
        let result = Inliner.Algorithm.compile prog vm.profiles Inliner.Params.default m in
        check_verifies result.body;
        (* the ctor was inlined, then the box scalar-replaced: no New and no
           field ops remain, the loop runs on pure SSA values *)
        Alcotest.(check int) "no allocation" 0
          (count_instrs result.body (function Ir.Types.New _ -> true | _ -> false));
        let vm2 = Runtime.Interp.create prog in
        Runtime.Interp.set_installed vm2 m (Some result.Inliner.Algorithm.body);
        ignore (Runtime.Interp.run_main vm2);
        Alcotest.(check string) "same output" expected (Runtime.Interp.output vm2));
    test "loop-carried field values get phis" (fun () ->
        let open Ir.Types in
        let prog = compile "class P(a: Int) {}\ndef main(): Unit = {}" in
        (* v = new P; v.a = 0; while (c) { v.a = v.a + 1 }; return v.a *)
        let fn = Ir.Fn.create ~fname:"t" ~param_tys:[| Tint |] ~rty:Tint in
        let b0 = Ir.Fn.add_block fn in
        let hdr = Ir.Fn.add_block fn in
        let body = Ir.Fn.add_block fn in
        let exit = Ir.Fn.add_block fn in
        fn.entry <- b0;
        let n = Ir.Fn.append fn b0 (Param 0) in
        let obj = Ir.Fn.append fn b0 (New 0) in
        let zero = Ir.Fn.append fn b0 (Const (Cint 0)) in
        let _ = Ir.Fn.append fn b0 (SetField { obj; slot = 0; fname = "a"; value = zero }) in
        Ir.Fn.set_term fn b0 (Goto hdr);
        let i = Ir.Fn.append fn hdr (Phi { ty = Tint; inputs = [] }) in
        let cond = Ir.Fn.append fn hdr (Binop (Lt, i, n)) in
        Ir.Fn.set_term fn hdr (If { cond; site = { sm = 0; sidx = 0 }; tb = body; fb = exit });
        let cur = Ir.Fn.append fn body (GetField { obj; slot = 0; fname = "a"; fty = Tint }) in
        let one = Ir.Fn.append fn body (Const (Cint 1)) in
        let inc = Ir.Fn.append fn body (Binop (Add, cur, one)) in
        let _ = Ir.Fn.append fn body (SetField { obj; slot = 0; fname = "a"; value = inc }) in
        let inext = Ir.Fn.append fn body (Binop (Add, i, one)) in
        Ir.Fn.set_term fn body (Goto hdr);
        Ir.Fn.set_phi_inputs fn i [ (b0, zero); (body, inext) ];
        let final = Ir.Fn.append fn exit (GetField { obj; slot = 0; fname = "a"; fty = Tint }) in
        Ir.Fn.set_term fn exit (Return final);
        check_verifies fn;
        Alcotest.(check int) "replaced" 1 (Opt.Scalarrepl.run prog fn);
        check_verifies fn;
        (* semantics: t(5) must return 5 *)
        let vm = Runtime.Interp.create prog in
        let v = Util.exec_compiled vm fn [ Runtime.Values.Vint 5 ] in
        Alcotest.(check int) "t(5)" 5 (Runtime.Values.as_int v));
    test "self-storing object escapes" (fun () ->
        let open Ir.Types in
        let prog =
          compile "class L(next: L) {}\ndef main(): Unit = {}"
        in
        let fn = Ir.Fn.create ~fname:"t" ~param_tys:[||] ~rty:Tint in
        let b0 = Ir.Fn.add_block fn in
        fn.entry <- b0;
        let obj = Ir.Fn.append fn b0 (New 0) in
        let _ =
          Ir.Fn.append fn b0 (SetField { obj; slot = 0; fname = "next"; value = obj })
        in
        let c = Ir.Fn.append fn b0 (Const (Cint 1)) in
        Ir.Fn.set_term fn b0 (Return c);
        Alcotest.(check bool) "escapes" true (Opt.Scalarrepl.escapes fn obj);
        Alcotest.(check int) "none replaced" 0 (Opt.Scalarrepl.run prog fn);
        ignore prog);
    test "a self-store's load resolves before later loads use it" (fun () ->
        (* [cell.v = cell.v] makes a load the slot's exit value of its
           block; that load is replaced and deleted before the loads in
           the [||] blocks resolve through it *)
        let src =
          {|class Cell(v: Int) {}
            def f(a: Int): Int = {
              var acc = 0;
              val cell = new Cell(a);
              var i = 0; while (i < 2) { acc = acc + i; i = i + 1; };
              cell.v = cell.v;
              if ((6 == cell.v) || (a <= cell.v)) { 11 } else { 6 };
              acc
            }
            def main(): Unit = println(f(1))|}
        in
        let prog = compile src in
        Opt.Driver.prepare_program prog;
        let vm = Runtime.Interp.create prog in
        ignore (Runtime.Interp.run_main vm);
        let m = Option.get (Ir.Program.find_meth prog "f") in
        List.iter
          (fun (name, (compiler : Jit.Engine.compiler)) ->
            let body = compiler prog vm.profiles m in
            check_verifies body;
            Alcotest.(check int) (name ^ ": no allocation") 0
              (count_instrs body (function Ir.Types.New _ -> true | _ -> false));
            let vm2 = Runtime.Interp.create prog in
            Runtime.Interp.set_installed vm2 m (Some body);
            ignore (Runtime.Interp.run_main vm2);
            Alcotest.(check string) (name ^ ": output") "1\n" (Runtime.Interp.output vm2))
          [ ("greedy", greedy); ("c2", c2like); ("incremental", incremental ()) ]);
  ]

(* Table-driven coverage of the individual algebraic rewrite rules: each
   expression must simplify to a call-free, branch-free body computing the
   same value (checked by execution). *)
let rule_tests =
  let simplifies_to_identity what expr expected_at_5 =
    test what (fun () ->
        let src =
          Printf.sprintf "def f(x: Int): Int = %s\ndef main(): Unit = println(f(5))" expr
        in
        Alcotest.(check string) "semantics before" (string_of_int expected_at_5 ^ "\n")
          (output_of src);
        let prog = compile src in
        let fn = body_of prog "f" in
        ignore (Opt.Driver.simplify prog fn);
        check_verifies fn;
        (* the residue must be at most: params + a constant + return *)
        Alcotest.(check bool)
          (what ^ ": simplified away")
          true
          (count_instrs fn (function
             | Binop _ | Unop _ -> true
             | _ -> false)
          <= 1 (* a shift may remain from strength reduction *));
        let vm = Runtime.Interp.create prog in
        ignore (Runtime.Interp.run_main vm);
        Alcotest.(check string) "semantics after" (string_of_int expected_at_5 ^ "\n")
          (Runtime.Interp.output vm))
  in
  [
    simplifies_to_identity "x + 0" "x + 0" 5;
    simplifies_to_identity "0 + x" "0 + x" 5;
    simplifies_to_identity "x - 0" "x - 0" 5;
    simplifies_to_identity "x * 1" "x * 1" 5;
    simplifies_to_identity "1 * x" "1 * x" 5;
    simplifies_to_identity "x * 0" "x * 0" 0;
    simplifies_to_identity "x / 1" "x / 1" 5;
    simplifies_to_identity "x & 0" "x & 0" 0;
    simplifies_to_identity "x | 0" "x | 0" 5;
    simplifies_to_identity "x ^ 0" "x ^ 0" 5;
    simplifies_to_identity "x << 0" "x << 0" 5;
    simplifies_to_identity "x >> 0" "x >> 0" 5;
    simplifies_to_identity "x - x" "x - x" 0;
    simplifies_to_identity "x * 16 (strength)" "x * 16" 80;
    simplifies_to_identity "16 * x (strength)" "16 * x" 80;
    test "boolean identities" (fun () ->
        let src =
          {|def f(b: Bool): Bool = (b & true) | false
            def main(): Unit = println(f(true))|}
        in
        let prog = compile src in
        let fn = body_of prog "f" in
        ignore (Opt.Driver.simplify prog fn);
        Alcotest.(check int) "no boolean ops left" 0
          (count_instrs fn (function Binop ((Andb | Orb), _, _) -> true | _ -> false));
        let vm = Runtime.Interp.create prog in
        ignore (Runtime.Interp.run_main vm);
        Alcotest.(check string) "out" "true\n" (Runtime.Interp.output vm));
    test "double negation" (fun () ->
        let src = "def f(x: Int): Int = 0 - (0 - x)\ndef main(): Unit = println(f(7))" in
        Alcotest.(check string) "out" "7\n" (output_of ~prepare:true src));
    test "self-comparisons" (fun () ->
        let src =
          {|def f(x: Int): Bool = (x == x) & (x <= x) & !(x != x) & !(x < x)
            def main(): Unit = println(f(3))|}
        in
        let prog = compile src in
        let fn = body_of prog "f" in
        ignore (Opt.Driver.simplify prog fn);
        Alcotest.(check int) "all folded" 0
          (count_instrs fn (function Binop _ -> true | _ -> false));
        let vm = Runtime.Interp.create prog in
        ignore (Runtime.Interp.run_main vm);
        Alcotest.(check string) "out" "true\n" (Runtime.Interp.output vm));
  ]

let licm_tests =
  [
    test "invariant arithmetic hoists out of the loop" (fun () ->
        let src =
          {|def f(a: Int, b: Int, n: Int): Int = {
              var i = 0;
              var s = 0;
              while (i < n) { s = s + (a * b + 3); i = i + 1; }
              s
            }
            def main(): Unit = println(f(3, 4, 10))|}
        in
        Alcotest.(check string) "baseline" "150\n" (output_of src);
        let prog = compile src in
        let fn = body_of prog "f" in
        ignore (Opt.Driver.simplify prog fn);
        let loops_before = (Ir.Loops.compute fn).loops in
        let header = (List.hd loops_before).header in
        let moved = Opt.Licm.run fn in
        check_verifies fn;
        Alcotest.(check bool) "moved something" true (moved > 0);
        (* the multiply no longer lives inside the loop *)
        let loops = Ir.Loops.compute fn in
        let mul_in_loop = ref false in
        Ir.Fn.iter_blocks
          (fun blk ->
            if Ir.Loops.depth loops blk.b_id > 0 then
              List.iter
                (fun v ->
                  match Ir.Fn.kind fn v with
                  | Binop (Mul, _, _) -> mul_in_loop := true
                  | _ -> ())
                blk.instrs)
          fn;
        ignore header;
        Alcotest.(check bool) "mul hoisted" false !mul_in_loop;
        let vm = Runtime.Interp.create prog in
        ignore (Runtime.Interp.run_main vm);
        Alcotest.(check string) "out" "150\n" (Runtime.Interp.output vm));
    test "array length hoists; array reads do not" (fun () ->
        let src =
          {|def f(a: Array[Int]): Int = {
              var i = 0;
              var s = 0;
              while (i < a.length) { s = s + a[0]; i = i + 1; }
              s
            }
            def main(): Unit = {
              val a = new Array[Int](5);
              a[0] = 2;
              println(f(a));
            }|}
        in
        let prog = compile src in
        let fn = body_of prog "f" in
        ignore (Opt.Driver.simplify prog fn);
        ignore (Opt.Licm.run fn);
        check_verifies fn;
        let loops = Ir.Loops.compute fn in
        Ir.Fn.iter_blocks
          (fun blk ->
            if Ir.Loops.depth loops blk.b_id > 0 then
              List.iter
                (fun v ->
                  match Ir.Fn.kind fn v with
                  | ArrayLen _ -> Alcotest.fail "arraylen still in loop"
                  | _ -> ())
                blk.instrs)
          fn;
        Alcotest.(check int) "arrayget stays (mutable memory)" 1
          (count_instrs fn (function ArrayGet _ -> true | _ -> false));
        let vm = Runtime.Interp.create prog in
        ignore (Runtime.Interp.run_main vm);
        Alcotest.(check string) "out" "10\n" (Runtime.Interp.output vm));
    test "trapping division never hoists" (fun () ->
        let src =
          {|def f(a: Int, d: Int, n: Int): Int = {
              var i = 0;
              var s = 0;
              while (i < n) { s = s + a / d; i = i + 1; }
              s
            }
            def main(): Unit = println(f(10, 2, 3) + f(1, 0, 0))|}
        in
        (* f(1, 0, 0): the division never executes, so no trap — hoisting
           it to the preheader would break this program *)
        Alcotest.(check string) "baseline" "15\n" (output_of src);
        let prog = compile src in
        Opt.Driver.prepare_program prog;
        let vm = Runtime.Interp.create prog in
        ignore (Runtime.Interp.run_main vm);
        Alcotest.(check string) "still no trap" "15\n" (Runtime.Interp.output vm));
    test "idempotent: second run hoists nothing and adds no blocks" (fun () ->
        let src =
          {|def f(a: Int, n: Int): Int = {
              var i = 0;
              var s = 0;
              while (i < n) { s = s + a * a; i = i + 1; }
              s
            }
            def main(): Unit = {}|}
        in
        let prog = compile src in
        let fn = body_of prog "f" in
        ignore (Opt.Driver.simplify prog fn);
        ignore (Opt.Licm.run fn);
        let blocks = List.length (Ir.Fn.block_ids fn) in
        Alcotest.(check int) "second run" 0 (Opt.Licm.run fn);
        Alcotest.(check int) "no new blocks" blocks (List.length (Ir.Fn.block_ids fn)));
    test "nested loops: inner invariant lands between the loops" (fun () ->
        let src =
          {|def f(n: Int): Int = {
              var i = 0;
              var s = 0;
              while (i < n) {
                var j = 0;
                while (j < n) { s = s + i * i; j = j + 1; }
                i = i + 1;
              }
              s
            }
            def main(): Unit = println(f(4))|}
        in
        Alcotest.(check string) "baseline" "56\n" (output_of src);
        let prog = compile src in
        let fn = body_of prog "f" in
        ignore (Opt.Driver.simplify prog fn);
        ignore (Opt.Licm.run fn);
        check_verifies fn;
        (* i*i is invariant in the inner loop but not the outer: it must
           now sit at depth exactly 1 *)
        let loops = Ir.Loops.compute fn in
        let depth_of_mul = ref (-1) in
        Ir.Fn.iter_blocks
          (fun blk ->
            List.iter
              (fun v ->
                match Ir.Fn.kind fn v with
                | Binop (Mul, _, _) -> depth_of_mul := Ir.Loops.depth loops blk.b_id
                | _ -> ())
              blk.instrs)
          fn;
        Alcotest.(check int) "depth 1" 1 !depth_of_mul;
        let vm = Runtime.Interp.create prog in
        ignore (Runtime.Interp.run_main vm);
        Alcotest.(check string) "out" "56\n" (Runtime.Interp.output vm));
    (* One preheader per loop, and the loop forest recomputed after each:
       with each block tested against every loop for its depth, this took
       13 s. *)
    test "500 sequential loops each hoist their invariant" (fun () ->
        let loop = "i = 0; while (i < 3) { acc = acc + x * 3; i = i + 1; }" in
        let src =
          Printf.sprintf
            "def f(x: Int): Int = { var acc = 0; var i = 0; %s acc }\n\
             def main(): Unit = println(f(2))"
            (String.concat " " (List.init 500 (fun _ -> loop)))
        in
        let prog = compile src in
        Opt.Driver.prepare_program prog;
        let fn = body_of prog "f" in
        check_verifies fn;
        let loops = Ir.Loops.compute fn in
        Alcotest.(check int) "loops" 500 (List.length loops.loops);
        Ir.Fn.iter_blocks
          (fun blk ->
            if Ir.Loops.depth loops blk.b_id > 0 then
              List.iter
                (fun v ->
                  match Ir.Fn.kind fn v with
                  | Binop (Mul, _, _) -> Alcotest.failf "a multiply stays in b%d" blk.b_id
                  | _ -> ())
                blk.instrs)
          fn;
        let vm = Runtime.Interp.create prog in
        ignore (Runtime.Interp.run_main vm);
        Alcotest.(check string) "out" "9000\n" (Runtime.Interp.output vm));
  ]

(* ---------- preparation ---------- *)

(* Every method body, in method order. *)
let bodies (prog : program) : (string * fn) list =
  let acc = ref [] in
  Ir.Program.iter_meths
    (fun (m : meth) -> Option.iter (fun fn -> acc := (m.m_name, fn) :: !acc) m.body)
    prog;
  List.rev !acc

let printed prog = List.map (fun (name, fn) -> (name, Ir.Printer.fn_to_string fn)) (bodies prog)

let prepare_tests =
  [
    (* what lets [prepare_program] skip a body it prepared before *)
    test "preparing a prepared body again changes nothing" (fun () ->
        let synth seed =
          Workloads.Synth.generate
            { Workloads.Synth.default with seed; depth = 4; fanout = 3; poly_degree = 4 }
        in
        List.iter
          (fun (w : Workloads.Defs.t) ->
            let prog = Workloads.Registry.compile w in
            Opt.Driver.prepare_program prog;
            let once = printed prog in
            List.iter (fun (_, (fn : fn)) -> fn.prepared <- false) (bodies prog);
            Opt.Driver.prepare_program prog;
            List.iter2
              (fun (name, a) (_, b) ->
                if a <> b then Alcotest.failf "%s/%s changed when prepared again" w.name name)
              once (printed prog))
          (Workloads.Registry.all @ [ synth 1; synth 2 ]));
    test "only fresh, added and edited bodies are prepared" (fun () ->
        let src =
          {|def f(x: Int): Int = x * (2 + 3)
            def main(): Unit = println(f(4))|}
        in
        let prog = compile src in
        let marked () = List.map (fun (name, (fn : fn)) -> (name, fn.prepared)) (bodies prog) in
        Alcotest.(check (list (pair string bool))) "fresh" [ ("f", false); ("main", false) ]
          (marked ());
        Opt.Driver.prepare_program prog;
        Alcotest.(check (list (pair string bool))) "prepared" [ ("f", true); ("main", true) ]
          (marked ());
        (* a simplify spends fuel, so an empty budget proves nothing ran *)
        Support.Fuel.with_budget 0 (fun () -> Opt.Driver.prepare_program prog);
        let f = body_of prog "f" in
        let prepared_f = Ir.Printer.fn_to_string f in
        let x = List.hd (Ir.Fn.block f f.entry).instrs in
        ignore (Ir.Fn.append f f.entry (Binop (Add, x, x)));
        Alcotest.(check bool) "an edit clears the mark" false f.prepared;
        let raw = body_of (compile src) "f" in
        let g =
          Ir.Program.add_meth prog ~name:"g" ~selector:"g" ~owner:None ~param_tys:[| Tint |]
            ~rty:Tint
        in
        Ir.Program.set_body prog g raw;
        Opt.Driver.prepare_program prog;
        Alcotest.(check string) "the edit is prepared away" prepared_f (Ir.Printer.fn_to_string f);
        Alcotest.(check string) "an added body is prepared" prepared_f
          (Ir.Printer.fn_to_string raw);
        Alcotest.(check bool) "marked" true (f.prepared && raw.prepared));
  ]

(* ---------- cached control-flow analyses ---------- *)

(* [Opt.Driver.round_root_opts] with [check_cfg_cache] after its first
   simplify, after each root pass and after its last simplify. A check
   fills the cache, so a pass that edits the graph and keeps a stale
   analysis fails the next check. *)
let checked_root_opts (what : string) (prog : program) (fn : fn) : unit =
  let check name fn = check_cfg_cache (Printf.sprintf "%s, after %s" what name) fn in
  let passes =
    ("check", fun _ fn -> check "simplify" fn; 0)
    :: List.map
         (fun (name, run) ->
           (name, fun prog fn -> let n = run prog fn in check name fn; n))
         Opt.Driver.root_passes
  in
  ignore (Opt.Driver.round_root_opts ~passes prog fn);
  check "the round" fn

(* [Inliner.Algorithm.compile]'s rounds, the cached analyses checked after
   the inline phase and throughout the root optimizations. *)
let compile_checking_cfg (prog : program) profiles (m : meth_id) : fn =
  let params = Inliner.Params.default in
  let t = Inliner.Calltree.create prog profiles params m in
  let rec round k =
    if k <= params.max_rounds && Ir.Fn.size t.root_fn < params.root_size_cap then begin
      let what = Printf.sprintf "%s round %d" t.root_fn.fname k in
      let expanded = Inliner.Expansion.run t in
      Inliner.Analysis.run t;
      let inlined = Inliner.Inline_phase.run t in
      check_cfg_cache (what ^ ", after inlining") t.root_fn;
      checked_root_opts what prog t.root_fn;
      Inliner.Calltree.refresh t;
      if expanded > 0 || inlined > 0 then round (k + 1)
    end
  in
  round 1;
  t.root_fn

let cache_tests =
  [
    test "every tiered compile's rounds keep the cached analyses fresh" (fun () ->
        List.iter
          (fun (w : Workloads.Defs.t) ->
            iter_compiled ~compile:compile_checking_cfg w (Workloads.Registry.compile w)
              (fun _ _ -> ()))
          Workloads.Registry.all);
    (let prog = lazy (compile "def main(): Unit = {}") in
     QCheck_alcotest.to_alcotest
       (QCheck.Test.make ~name:"root optimizations keep the cached analyses of random bodies fresh"
          ~count:300 Ir_gen.arbitrary (fun fn ->
            checked_root_opts "random body" (Lazy.force prog) fn;
            true)));
  ]

(* Each pass of [Opt.Driver.root_passes] names one registry workload whose
   incremental peak, measured as bench's opts-ablation does, rises by at
   least 1% when the pass is dropped from the pipeline. A pass without a
   witness fails, so a new pass must show its benefit. *)
let witnesses = [ ("rwelim", "stm-bench"); ("scalar", "jython-loop"); ("licm", "gauss-mix") ]

let peak_cycles (w : Workloads.Defs.t) (params : Inliner.Params.t) : float =
  let prog = Workloads.Registry.compile w in
  let e =
    Jit.Engine.create prog
      { name = "ablation"; compiler = Some (incremental ~params ()); hotness_threshold = 8;
        compile_cost_per_node = 50; verify = false }
  in
  (Jit.Harness.run_benchmark ~iters:w.iters e ~entry:"bench" ~label:"ablation").peak_cycles

let pipeline_tests =
  [
    test "every root pass raises a witness's peak by 1% when dropped" (fun () ->
        let p = Inliner.Params.default in
        List.iter
          (fun (name, _) ->
            match Option.bind (List.assoc_opt name witnesses) Workloads.Registry.find with
            | None -> Alcotest.failf "root pass %s has no witness workload" name
            | Some w ->
                let full = peak_cycles w p in
                let without =
                  peak_cycles w
                    { p with root_passes = List.filter (fun (n, _) -> n <> name) p.root_passes }
                in
                if without < full *. 1.01 then
                  Alcotest.failf "dropping %s moves %s's peak only %.0f -> %.0f" name w.name
                    full without)
          Opt.Driver.root_passes);
  ]

let () =
  Alcotest.run "opt"
    [
      ("tyinfer", tyinfer_tests);
      ("canonicalize", canon_tests);
      ("gvn", gvn_tests);
      ("dce", dce_tests);
      ("simplify", simplify_cfg_tests);
      ("fixpoint", fixpoint_tests);
      ("rwelim", rwelim_tests);
      ("scalarrepl", scalarrepl_tests);
      ("licm", licm_tests);
      ("cache", cache_tests);
      ("prepare", prepare_tests);
      ("rules", rule_tests);
      ("pipeline", pipeline_tests);
    ]
