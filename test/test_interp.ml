(* Behavioural tests of the SelVM interpreter: language semantics, runtime
   traps, and the cycle accounting. *)

open Util

let out what src expected =
  test what (fun () -> Alcotest.(check string) what expected (output_of src))

let traps what needle src =
  test what (fun () ->
      let prog = compile src in
      let vm = Runtime.Interp.create prog in
      match Runtime.Interp.run_main vm with
      | _ -> Alcotest.fail "expected a trap"
      | exception Runtime.Values.Trap msg ->
          if not (contains_substring ~needle msg) then
            Alcotest.failf "trap %S does not mention %S" msg needle)

let semantics_tests =
  [
    out "arithmetic" "def main(): Unit = println(7 + 3 * 4 - 10 / 3 % 2)" "18\n";
    out "negative division truncates toward zero"
      "def main(): Unit = { println((0-7) / 2); println((0-7) % 2) }" "-3\n-1\n";
    out "shifts" "def main(): Unit = { println(3 << 4); println(0 - (64 >> 2)) }" "48\n-16\n";
    out "bitwise" "def main(): Unit = println((12 & 10) + (12 | 10) + (12 ^ 10))" "28\n";
    out "comparisons"
      "def main(): Unit = { println(1 < 2); println(2 <= 1); println(3 > 2); println(2 >= 3) }"
      "true\nfalse\ntrue\nfalse\n";
    out "boolean ops"
      "def main(): Unit = { println(true && false); println(true || false); println(!true) }"
      "false\ntrue\nfalse\n";
    out "string ops"
      {|def main(): Unit = { println("he" == "he"); println("a" != "b"); println("abc".length) }|}
      "true\ntrue\n3\n";
    out "strget returns character code"
      {|def main(): Unit = println(strget("A", 0))|} "65\n";
    out "unit printing is forbidden by checker, bool/int/str work"
      {|def main(): Unit = { print(1); print(" "); print(true); println("") }|} "1 true\n";
    out "object field defaults"
      {|class C() { var i: Int var b: Bool var s: String }
        def main(): Unit = { val c = new C(); println(c.i); println(c.b); println(c.s == "") }|}
      "0\nfalse\ntrue\n";
    out "array defaults and writes"
      {|def main(): Unit = {
          val a = new Array[Int](3);
          println(a[0]);
          a[1] = 5;
          println(a[1] + a.length);
        }|}
      "0\n8\n";
    out "object arrays default to null"
      {|class C() {}
        def main(): Unit = { val a = new Array[C](2); println(a[0] == null) }|}
      "true\n";
    out "reference equality distinguishes instances"
      {|class C() {}
        def main(): Unit = { val a = new C(); val b = new C(); println(a == b); println(a == a) }|}
      "false\ntrue\n";
    out "virtual dispatch picks the runtime class"
      {|abstract class A { def m(): Int }
        class B() extends A { def m(): Int = 1 }
        class C() extends A { def m(): Int = 2 }
        def call(a: A): Int = a.m()
        def main(): Unit = println(call(new B()) * 10 + call(new C()))|}
      "12\n";
    out "inherited method dispatches through the child"
      {|class A() { def m(): Int = this.base() def base(): Int = 1 }
        class B() extends A { def base(): Int = 2 }
        def main(): Unit = println(new B().m())|}
      "2\n";
    out "closures capture values"
      {|def main(): Unit = {
          val k = 100;
          val f = (x: Int) => x + k;
          println(f(1) + f(2));
        }|}
      "203\n";
    out "closures capture receiver for field access"
      {|class Counter(n: Int) {
          def incrementer(): Int => Int = (d: Int) => { this.n = this.n + d; this.n }
        }
        def main(): Unit = {
          val c = new Counter(10);
          val inc = c.incrementer();
          println(inc(5));
          println(inc(7));
          println(c.n);
        }|}
      "15\n22\n22\n";
    out "higher-order functions"
      {|def twice(f: Int => Int, x: Int): Int = f(f(x))
        def main(): Unit = println(twice((x: Int) => x * 3, 2))|}
      "18\n";
    out "recursion (fibonacci)"
      {|def fib(n: Int): Int = if (n < 2) { n } else { fib(n - 1) + fib(n - 2) }
        def main(): Unit = println(fib(15))|}
      "610\n";
    out "mutual recursion"
      {|def isEven(n: Int): Bool = if (n == 0) { true } else { isOdd(n - 1) }
        def isOdd(n: Int): Bool = if (n == 0) { false } else { isEven(n - 1) }
        def main(): Unit = println(isEven(10))|}
      "true\n";
    out "while with complex condition"
      {|def main(): Unit = {
          var i = 0;
          var stop = false;
          while (!stop && i < 100) { i = i + 2; if (i >= 10) { stop = true } }
          println(i);
        }|}
      "10\n";
    out "typetest via dispatch chain still sound"
      {|abstract class A { def tag(): Int }
        class B() extends A { def tag(): Int = 1 }
        class C() extends B { def tag(): Int = 2 }
        def main(): Unit = { val x: A = new C(); println(x.tag()) }|}
      "2\n";
  ]

let trap_tests =
  [
    traps "division by zero" "division by zero" "def main(): Unit = println(1 / 0)";
    traps "remainder by zero" "remainder" "def main(): Unit = println(1 % 0)";
    traps "array bounds (read)" "out of bounds"
      "def main(): Unit = { val a = new Array[Int](2); println(a[5]) }";
    traps "array bounds (negative)" "out of bounds"
      "def main(): Unit = { val a = new Array[Int](2); println(a[0-1]) }";
    traps "negative array length" "negative array length"
      "def main(): Unit = { val a = new Array[Int](0-3); }";
    traps "null field access" "null"
      {|class C() { var f: Int }
        def main(): Unit = { var c: C = null; println(c.f) }|};
    traps "null method call" "null"
      {|class C() { def m(): Int = 1 }
        def main(): Unit = { var c: C = null; println(c.m()) }|};
    traps "string index out of bounds" "out of bounds"
      {|def main(): Unit = println(strget("a", 3))|};
    traps "stack overflow" "stack overflow"
      "def loop(n: Int): Int = loop(n + 1)\ndef main(): Unit = println(loop(0))";
    (* a trap unwinds past every activation's depth decrement; the entry
       point must restore the depth, or 5,000 trapped two-frame calls
       leave the VM at its 10,000-frame limit *)
    test "trapped calls leave no depth behind" (fun () ->
        let src =
          "def g(x: Int): Int = 10 / x\ndef f(x: Int): Int = g(x) + 1\ndef main(): Unit = {}"
        in
        List.iter
          (fun backend ->
            let vm = Runtime.Interp.create ~backend (compile src) in
            for i = 1 to 6_000 do
              match Runtime.Interp.run_meth vm "f" Runtime.Values.[ Vunit; Vint 0 ] with
              | _ -> Alcotest.failf "call %d did not trap" i
              | exception Runtime.Values.Trap msg ->
                  if not (contains_substring ~needle:"division by zero" msg) then
                    Alcotest.failf "call %d trapped with %S" i msg
            done;
            Alcotest.(check int) "f(1) after the traps" 11
              (Runtime.Values.as_int
                 (Runtime.Interp.run_meth vm "f" Runtime.Values.[ Vunit; Vint 1 ]));
            Alcotest.(check int) "depth" 0 vm.depth)
          [ Runtime.Interp.Threaded; Runtime.Interp.Reference ]);
  ]

let accounting_tests =
  [
    test "cycles are monotone and deterministic" (fun () ->
        let src = "def main(): Unit = { var i = 0; while (i < 100) { i = i + 1 } }" in
        let run () =
          let vm = Runtime.Interp.create (compile src) in
          ignore (Runtime.Interp.run_main vm);
          vm.cycles
        in
        let a = run () and b = run () in
        Alcotest.(check bool) "positive" true (a > 0);
        Alcotest.(check int) "deterministic" a b);
    test "bigger work costs more cycles" (fun () ->
        let cycles n =
          let src =
            Printf.sprintf
              "def main(): Unit = { var i = 0; while (i < %d) { i = i + 1 } }" n
          in
          let vm = Runtime.Interp.create (compile src) in
          ignore (Runtime.Interp.run_main vm);
          vm.cycles
        in
        Alcotest.(check bool) "monotone" true (cycles 200 > cycles 20));
    test "virtual calls cost more than direct calls" (fun () ->
        let c = Runtime.Cost.default in
        Alcotest.(check bool) "virtual > direct" true
          (Runtime.Cost.call_overhead c ~virtual_:true ~targets:1
          > Runtime.Cost.call_overhead c ~virtual_:false ~targets:1);
        Alcotest.(check bool) "megamorphic > virtual" true
          (Runtime.Cost.call_overhead c ~virtual_:true ~targets:5
          > Runtime.Cost.call_overhead c ~virtual_:true ~targets:1));
    test "step budget traps runaway programs" (fun () ->
        let prog = compile "def main(): Unit = { var i = 0; while (i >= 0) { i = i + 1 } }" in
        let vm = Runtime.Interp.create ~max_steps:10_000 prog in
        match Runtime.Interp.run_main vm with
        | _ -> Alcotest.fail "expected step trap"
        | exception Runtime.Values.Trap msg ->
            Alcotest.(check bool) "message" true
              (contains_substring ~needle:"step budget" msg));
    test "output capture is exact" (fun () ->
        Alcotest.(check string) "out" "a1b-2true\n"
          (output_of
             {|def main(): Unit = { print("a"); print(1); print("b"); print(0-2); print(true); println("") }|}));
  ]

(* Table-driven operator coverage: every binop/unop against a reference
   OCaml implementation on edge-heavy inputs, executed through a tiny IR
   function (both tiers agree by construction — one evaluator). Also pins
   agreement between the interpreter and the constant folder. *)
let op_coverage_tests =
  let open Ir.Types in
  let inputs =
    [ (0, 0); (1, 1); (-1, 1); (7, -3); (-7, 3); (-7, -3); (1000000, 999);
      (5, 62); (-5, 62); (1 lsl 40, 3); (min_int / 4, 2); (max_int / 4, 2) ]
  in
  let int_ops =
    [ (Add, ( + )); (Sub, ( - )); (Mul, ( * ));
      (Band, ( land )); (Bor, ( lor )); (Bxor, ( lxor ));
      (Shl, fun a b -> a lsl (b land 63));
      (Shr, fun a b -> a asr (b land 63)) ]
  in
  let cmp_ops =
    [ (Lt, ( < )); (Le, ( <= )); (Gt, ( > )); (Ge, ( >= ));
      (Eq, ( = )); (Ne, ( <> )) ]
  in
  let run_binop op a b =
    let fn = Ir.Fn.create ~fname:"op" ~param_tys:[| Tint; Tint |] ~rty:Tint in
    let b0 = Ir.Fn.add_block fn in
    fn.entry <- b0;
    let p0 = Ir.Fn.append fn b0 (Param 0) in
    let p1 = Ir.Fn.append fn b0 (Param 1) in
    let r = Ir.Fn.append fn b0 (Binop (op, p0, p1)) in
    Ir.Fn.set_term fn b0 (Return r);
    let prog = compile "def main(): Unit = {}" in
    let vm = Runtime.Interp.create prog in
    Util.exec_compiled vm fn [ Runtime.Values.Vint a; Runtime.Values.Vint b ]
  in
  [
    test "integer binops match the reference" (fun () ->
        List.iter
          (fun (op, reference) ->
            List.iter
              (fun (a, b) ->
                Alcotest.(check int)
                  (Printf.sprintf "%s %d %d" (Ir.Printer.binop_name op) a b)
                  (reference a b)
                  (Runtime.Values.as_int (run_binop op a b)))
              inputs)
          int_ops);
    test "comparisons match the reference" (fun () ->
        List.iter
          (fun (op, reference) ->
            List.iter
              (fun (a, b) ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s %d %d" (Ir.Printer.binop_name op) a b)
                  (reference a b)
                  (Runtime.Values.as_bool (run_binop op a b)))
              inputs)
          cmp_ops);
    test "division and remainder match the reference when defined" (fun () ->
        List.iter
          (fun (a, b) ->
            if b <> 0 then begin
              Alcotest.(check int)
                (Printf.sprintf "div %d %d" a b)
                (a / b)
                (Runtime.Values.as_int (run_binop Div a b));
              Alcotest.(check int)
                (Printf.sprintf "rem %d %d" a b)
                (a mod b)
                (Runtime.Values.as_int (run_binop Rem a b))
            end)
          inputs);
    test "constant folder agrees with the interpreter on every int op" (fun () ->
        List.iter
          (fun op ->
            List.iter
              (fun (a, b) ->
                match Opt.Canonicalize.fold_binop op (Cint a) (Cint b) with
                | Some (Cint folded) ->
                    Alcotest.(check int)
                      (Printf.sprintf "%s %d %d" (Ir.Printer.binop_name op) a b)
                      (Runtime.Values.as_int (run_binop op a b))
                      folded
                | Some (Cbool folded) ->
                    Alcotest.(check bool)
                      (Printf.sprintf "%s %d %d" (Ir.Printer.binop_name op) a b)
                      (Runtime.Values.as_bool (run_binop op a b))
                      folded
                | Some _ -> Alcotest.fail "unexpected constant kind"
                | None ->
                    (* only division-like ops on zero may refuse to fold *)
                    if not ((op = Div || op = Rem) && b = 0) then
                      Alcotest.failf "%s %d %d did not fold"
                        (Ir.Printer.binop_name op) a b)
              inputs)
          [ Add; Sub; Mul; Div; Rem; Shl; Shr; Band; Bor; Bxor; Lt; Le; Gt; Ge; Eq; Ne ]);
    test "boolean binops and unops" (fun () ->
        let cases = [ (true, true); (true, false); (false, true); (false, false) ] in
        let run op a b =
          let fn = Ir.Fn.create ~fname:"op" ~param_tys:[| Tbool; Tbool |] ~rty:Tbool in
          let b0 = Ir.Fn.add_block fn in
          fn.entry <- b0;
          let p0 = Ir.Fn.append fn b0 (Param 0) in
          let p1 = Ir.Fn.append fn b0 (Param 1) in
          let r = Ir.Fn.append fn b0 (Binop (op, p0, p1)) in
          Ir.Fn.set_term fn b0 (Return r);
          let prog = compile "def main(): Unit = {}" in
          let vm = Runtime.Interp.create prog in
          Runtime.Values.as_bool
            (Util.exec_compiled vm fn [ Runtime.Values.Vbool a; Runtime.Values.Vbool b ])
        in
        List.iter
          (fun (op, reference) ->
            List.iter
              (fun (a, b) ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s %b %b" (Ir.Printer.binop_name op) a b)
                  (reference a b) (run op a b))
              cases)
          [ (Andb, ( && )); (Orb, ( || )); (Xorb, ( <> )); (Eqb, ( = )) ]);
    test "unops" (fun () ->
        List.iter
          (fun n ->
            Alcotest.(check string)
              (Printf.sprintf "neg %d" n)
              (string_of_int (-n))
              (String.trim
                 (output_of (Printf.sprintf "def main(): Unit = println(0 - (%d))" n))))
          [ 0; 5; -5; 1000000 ])
  ]

let () =
  Alcotest.run "interp"
    [
      ("semantics", semantics_tests);
      ("traps", trap_tests);
      ("accounting", accounting_tests);
      ("op-coverage", op_coverage_tests);
    ]
