(* Tests for the core contribution: the call tree, deep inlining trials,
   the expansion phase (priorities/penalties/thresholds), the clustering
   analysis, typeswitch materialization, the inline phase, and the whole
   algorithm end to end. *)

open Util
open Inliner

(* Builds a call tree for [root] after interpreting main once (so profiles
   exist), exactly as the engine would. *)
let tree_of ?(params = Params.default) (src : string) (root : string) : Calltree.t =
  let prog = compile src in
  Opt.Driver.prepare_program prog;
  let vm = Runtime.Interp.create prog in
  ignore (Runtime.Interp.run_main vm);
  let m = Option.get (Ir.Program.find_meth prog root) in
  Calltree.create prog vm.profiles params m

let compile_with ?(params = Params.default) (src : string) (root : string) :
    Inliner.Algorithm.result * Ir.Types.program * Runtime.Interp.vm =
  let prog = compile src in
  Opt.Driver.prepare_program prog;
  let vm = Runtime.Interp.create prog in
  ignore (Runtime.Interp.run_main vm);
  let m = Option.get (Ir.Program.find_meth prog root) in
  let result = Algorithm.compile prog vm.profiles params m in
  check_verifies result.body;
  (result, prog, vm)

(* Runs [entry] with the compiled body installed and compares output with
   the pure interpreter. *)
let check_differential ?(params = Params.default) (src : string) (roots : string list) :
    unit =
  let reference = output_of ~prepare:true src in
  let prog = compile src in
  Opt.Driver.prepare_program prog;
  let vm = Runtime.Interp.create prog in
  ignore (Runtime.Interp.run_main vm);
  let cache = Hashtbl.create 4 in
  List.iter
    (fun name ->
      let m = Option.get (Ir.Program.find_meth prog name) in
      let result = Algorithm.compile prog vm.profiles params m in
      check_verifies result.body;
      Hashtbl.replace cache m result.Algorithm.body)
    roots;
  let vm2 = Runtime.Interp.create prog in
  Hashtbl.iter (fun m body -> Runtime.Interp.set_installed vm2 m (Some body)) cache;
  ignore (Runtime.Interp.run_main vm2);
  Alcotest.(check string) "differential" reference (Runtime.Interp.output vm2)

let poly_src =
  {|abstract class A { def m(): Int }
    class B() extends A { def m(): Int = 1 }
    class C() extends A { def m(): Int = 2 }
    class D() extends A { def m(): Int = 3 }
    def call(a: A): Int = a.m()
    def main(): Unit = {
      val items = new Array[A](10);
      var i = 0;
      while (i < 10) {
        if (i % 2 == 0) { items[i] = new B() }
        else { if (i % 3 == 0) { items[i] = new C() } else { items[i] = new D() } };
        i = i + 1;
      }
      var s = 0;
      i = 0;
      while (i < 10) { s = s + call(items[i]); i = i + 1; }
      println(s)
    }|}

let calltree_tests =
  [
    test "root children found with frequencies" (fun () ->
        let t =
          tree_of
            {|def g(): Int = 1
              def h(): Int = 2
              def f(): Int = { var i = 0; var s = 0; while (i < 10) { s = s + g(); i = i + 1 }; s + h() }
              def main(): Unit = println(f())|}
            "f"
        in
        Alcotest.(check int) "two children" 2 (List.length t.children);
        let freq_of target =
          List.find_map
            (fun (n : Calltree.node) ->
              match n.kind with
              | Calltree.Cutoff (Calltree.Known m)
                when (Ir.Program.meth t.prog m).m_name = target ->
                  Some n.freq
              | _ -> None)
            t.children
        in
        let gf = Option.get (freq_of "g") and hf = Option.get (freq_of "h") in
        Alcotest.(check bool) "loop call hotter" true (gf > 5.0 *. hf);
        Alcotest.(check (float 0.01)) "h once per invocation" 1.0 hf);
    test "subtree metrics on fresh tree" (fun () ->
        let t =
          tree_of "def g(): Int = 1\ndef f(): Int = g()\ndef main(): Unit = println(f())" "f"
        in
        Alcotest.(check int) "one cutoff" 1 (Calltree.tree_n_c t);
        Alcotest.(check bool) "s_ir includes root" true
          (Calltree.tree_s_ir t > Ir.Fn.size t.root_fn));
    test "expanding a direct cutoff attaches a specialized body" (fun () ->
        let t =
          tree_of
            {|def g(x: Int): Int = x * 2
              def f(): Int = g(21)
              def main(): Unit = println(f())|}
            "f"
        in
        let n = List.hd t.children in
        Alcotest.(check bool) "expanded" true (Calltree.expand_cutoff t n);
        (match n.kind with
        | Calltree.Expanded { body; _ } ->
            check_verifies body;
            (* constant argument folded inside the trial copy: x*2 -> 42 *)
            Alcotest.(check int) "body fully folded" 0
              (count_instrs body (function Ir.Types.Binop _ -> true | _ -> false))
        | _ -> Alcotest.fail "not expanded");
        Alcotest.(check bool) "n_opts counted" true
          (match n.kind with
          | Calltree.Expanded { n_opts; _ } -> n_opts > 0
          | _ -> false));
    (* the callee's argument is neither a constant nor refined, so the
       trial copy is the prepared body unchanged, a simplify fixpoint *)
    test "a trial with an all-None signature returns the callee as it is" (fun () ->
        let t =
          tree_of
            {|def g(x: Int): Int = x * 3 + 1
              def f(y: Int): Int = g(y)
              def main(): Unit = println(f(4))|}
            "f"
        in
        let n = List.hd t.children in
        let callee =
          match n.kind with
          | Calltree.Cutoff (Calltree.Known m) -> Option.get (Calltree.prepared_body t m)
          | _ -> Alcotest.fail "not a direct cutoff"
        in
        let fuel_left f =
          Support.Fuel.with_budget 100 (fun () ->
              f ();
              Option.get (Support.Fuel.remaining ()))
        in
        let simplified =
          fuel_left (fun () -> ignore (Opt.Driver.simplify t.prog (Ir.Fn.copy callee)))
        in
        let trial = fuel_left (fun () -> ignore (Calltree.expand_cutoff t n)) in
        Alcotest.(check int) "the fuel simplify spends" simplified trial;
        match n.kind with
        | Calltree.Expanded { body; n_opts; _ } ->
            Alcotest.(check int) "N_s" 0 n_opts;
            Alcotest.(check int) "N_a" 0 n.n_args_refined;
            Alcotest.(check string) "the callee's body" (Ir.Printer.fn_to_string callee)
              (Ir.Printer.fn_to_string body)
        | _ -> Alcotest.fail "not expanded");
    test "expansion creates grandchildren cutoffs" (fun () ->
        let t =
          tree_of
            {|def leaf(): Int = 1
              def mid(): Int = leaf() + leaf()
              def f(): Int = mid()
              def main(): Unit = println(f())|}
            "f"
        in
        let n = List.hd t.children in
        ignore (Calltree.expand_cutoff t n);
        Alcotest.(check int) "two grandchildren" 2 (List.length n.children);
        Alcotest.(check int) "cutoff count" 2 (Calltree.tree_n_c t));
    test "virtual cutoff with profile becomes poly" (fun () ->
        let t = tree_of poly_src "call" in
        let n = List.hd t.children in
        (match n.kind with
        | Calltree.Cutoff (Calltree.Unknown sel) ->
            Alcotest.(check string) "selector" "m" sel
        | _ -> Alcotest.fail "expected unknown cutoff");
        ignore (Calltree.expand_cutoff t n);
        match n.kind with
        | Calltree.Poly _ ->
            Alcotest.(check int) "3 targets" 3 (List.length n.children);
            let probs = List.map (fun (c : Calltree.node) -> c.prob) n.children in
            List.iter
              (fun p -> Alcotest.(check bool) "prob >= 0.1" true (p >= 0.1))
              probs
        | _ -> Alcotest.fail "expected poly");
    test "virtual cutoff without profile becomes generic" (fun () ->
        let src =
          {|abstract class A { def m(): Int }
            class B() extends A { def m(): Int = 1 }
            class C() extends A { def m(): Int = 2 }
            def call(a: A): Int = a.m()
            def main(): Unit = println(0)|}
        in
        let t = tree_of src "call" in
        let n = List.hd t.children in
        Alcotest.(check bool) "no expansion" false (Calltree.expand_cutoff t n);
        match n.kind with
        | Calltree.Generic _ -> ()
        | _ -> Alcotest.fail "expected generic");
    test "recursion beyond the hard limit becomes generic" (fun () ->
        let src =
          {|def f(n: Int): Int = if (n <= 0) { 0 } else { f(n - 1) + 1 }
            def main(): Unit = println(f(30))|}
        in
        let t = tree_of src "f" in
        let rec expand_deep (n : Calltree.node) depth =
          if depth > 20 then Alcotest.fail "expansion did not hit the limit"
          else
            match n.kind with
            | Calltree.Cutoff _ ->
                ignore (Calltree.expand_cutoff t n);
                (match n.kind with
                | Calltree.Expanded _ ->
                    List.iter (fun c -> expand_deep c (depth + 1)) n.children
                | Calltree.Generic _ -> raise Exit
                | _ -> ())
            | _ -> ()
        in
        match List.iter (fun n -> expand_deep n 0) t.children with
        | () -> Alcotest.fail "expected a generic recursion stop"
        | exception Exit -> ());
    test "local benefit grows with refined args" (fun () ->
        let t =
          tree_of
            {|def g(x: Int): Int = x + 1
              def h(x: Int): Int = x + 1
              def f(y: Int): Int = g(5) + h(y)
              def main(): Unit = println(f(1))|}
            "f"
        in
        let find name =
          List.find
            (fun (n : Calltree.node) ->
              match n.kind with
              | Calltree.Cutoff (Calltree.Known m) -> (Ir.Program.meth t.prog m).m_name = name
              | _ -> false)
            t.children
        in
        let g = find "g" and h = find "h" in
        Alcotest.(check bool) "const arg = more benefit" true
          (Calltree.local_benefit t g > Calltree.local_benefit t h));
    test "refresh marks deleted callsites" (fun () ->
        let t =
          tree_of
            {|def g(): Int = 5
              def f(c: Bool): Int = if (true) { 1 } else { g() }
              def main(): Unit = println(f(true))|}
            "f"
        in
        (* prepared body already pruned the branch, so g was never a child;
           instead delete manually: simulate an optimization killing a call *)
        let t2 =
          tree_of
            {|def g(): Int = 5
              def f(): Int = g()
              def main(): Unit = println(f())|}
            "f"
        in
        ignore t;
        let n = List.hd t2.children in
        Ir.Fn.delete_instr t2.root_fn n.call_vid;
        Calltree.refresh t2;
        match n.kind with
        | Calltree.Deleted -> ()
        | _ -> Alcotest.fail "expected deleted");
  ]

let analysis_tests =
  [
    test "tuple algebra: merge adds, ratio divides" (fun () ->
        let r = Analysis.ratio (Analysis.merge (2.0, 4.0) (1.0, 2.0)) in
        Alcotest.(check (float 1e-9)) "(2+1)/(4+2)" 0.5 r);
    test "clustering absorbs children that improve the ratio" (fun () ->
        (* mid alone is worthless (it just forwards); leaf is where the
           value is — they must end up in one cluster *)
        let t =
          tree_of
            {|def leaf(x: Int): Int = x * 2 + 1
              def mid(x: Int): Int = leaf(x)
              def f(): Int = { var i = 0; var s = 0; while (i < 50) { s = s + mid(i); i = i + 1 }; s }
              def main(): Unit = println(f())|}
            "f"
        in
        Expansion.run t |> ignore;
        Analysis.run t;
        let mid = List.hd t.children in
        (match mid.kind with
        | Calltree.Expanded _ -> ()
        | _ -> Alcotest.fail "mid should be expanded");
        match mid.children with
        | [ leaf ] ->
            Alcotest.(check bool) "leaf in mid's cluster" true leaf.in_parent_cluster;
            Alcotest.(check bool) "front empty" true (mid.front = [])
        | _ -> Alcotest.fail "expected one grandchild");
    test "1-by-1 policy never merges" (fun () ->
        let t =
          tree_of
            ~params:(Params.without_clustering Params.default)
            {|def leaf(x: Int): Int = x * 2 + 1
              def mid(x: Int): Int = leaf(x)
              def f(): Int = { var i = 0; var s = 0; while (i < 50) { s = s + mid(i); i = i + 1 }; s }
              def main(): Unit = println(f())|}
            "f"
        in
        Expansion.run t |> ignore;
        Analysis.run t;
        let mid = List.hd t.children in
        match mid.children with
        | [ leaf ] -> Alcotest.(check bool) "not merged" false leaf.in_parent_cluster
        | _ -> Alcotest.fail "expected one grandchild");
    test "generic children stay out of the front" (fun () ->
        let t = tree_of poly_src "main" in
        Expansion.run t |> ignore;
        Analysis.run t;
        let rec check_node (n : Calltree.node) =
          List.iter
            (fun (m : Calltree.node) ->
              match m.kind with
              | Calltree.Generic _ | Calltree.Deleted | Calltree.Cutoff (Calltree.Unknown _)
                ->
                  Alcotest.(check bool) "not inlinable in front" false
                    (List.exists (fun (f : Calltree.node) -> f.nid = m.nid) n.front)
              | _ -> ())
            n.children;
          List.iter check_node n.children
        in
        List.iter check_node t.children);
  ]

let expansion_tests =
  [
    test "expansion prefers the hotter subtree" (fun () ->
        let t =
          tree_of
            {|def hot(x: Int): Int = x + 1
              def cold(x: Int): Int = x * 3
              def f(): Int = {
                var i = 0;
                var s = 0;
                while (i < 100) { s = s + hot(i); i = i + 1; }
                s + cold(5)
              }
              def main(): Unit = println(f())|}
            "f"
        in
        let expanded = Expansion.run t in
        Alcotest.(check bool) "expanded something" true (expanded > 0);
        let hot_expanded =
          List.exists
            (fun (n : Calltree.node) ->
              match n.kind with
              | Calltree.Expanded _ -> n.freq > 10.0
              | _ -> false)
            t.children
        in
        Alcotest.(check bool) "hot call expanded" true hot_expanded);
    test "fixed policy stops at the T_e budget" (fun () ->
        let src =
          {|def a(): Int = 1 + 2 + 3
            def b(): Int = a() + a()
            def c(): Int = b() + b()
            def f(): Int = c() + c()
            def main(): Unit = println(f())|}
        in
        let t = tree_of ~params:(Params.with_fixed ~te:1 ~ti:1000 Params.default) src "f" in
        let expanded = Expansion.run t in
        Alcotest.(check int) "budget exhausted immediately" 0 expanded);
    test "recursion penalty suppresses endless self-expansion" (fun () ->
        let src =
          {|def f(n: Int): Int = if (n <= 0) { 0 } else { f(n - 1) + 1 }
            def main(): Unit = println(f(30))|}
        in
        let t = tree_of src "f" in
        let expanded = Expansion.run t in
        (* must terminate and not blow the per-round cap *)
        Alcotest.(check bool) "bounded" true
          (expanded <= Params.default.max_expansions_per_round));
    test "priority of an expanded node is the max over children" (fun () ->
        let t =
          tree_of
            {|def leaf(): Int = 42
              def mid(): Int = leaf()
              def f(): Int = { var i = 0; var s = 0; while (i < 30) { s = s + mid(); i = i + 1 }; s }
              def main(): Unit = println(f())|}
            "f"
        in
        let mid = List.hd t.children in
        ignore (Calltree.expand_cutoff t mid);
        let leaf = List.hd mid.children in
        let pi_mid = Expansion.intrinsic_priority t mid in
        let pi_leaf = Expansion.intrinsic_priority t leaf in
        Alcotest.(check (float 1e-9)) "max rule" pi_leaf pi_mid);
  ]

let typeswitch_tests =
  [
    test "materialized typeswitch preserves behaviour" (fun () ->
        check_differential poly_src [ "call"; "main" ]);
    test "typeswitch orders specific classes first" (fun () ->
        let src =
          {|class B() { def m(): Int = 1 }
            class C() extends B { def m(): Int = 2 }
            def call(b: B): Int = b.m()
            def main(): Unit = {
              var i = 0;
              var s = 0;
              while (i < 20) {
                s = s + call(new B()) + call(new C());
                i = i + 1;
              }
              println(s)
            }|}
        in
        check_differential src [ "call" ]);
    test "megamorphic fallback stays virtual and correct" (fun () ->
        let src =
          {|abstract class A { def m(): Int }
            class B1() extends A { def m(): Int = 1 }
            class B2() extends A { def m(): Int = 2 }
            class B3() extends A { def m(): Int = 3 }
            class B4() extends A { def m(): Int = 4 }
            class B5() extends A { def m(): Int = 5 }
            def call(a: A): Int = a.m()
            def mk(i: Int): A = {
              if (i % 5 == 0) { new B1() } else {
              if (i % 5 == 1) { new B2() } else {
              if (i % 5 == 2) { new B3() } else {
              if (i % 5 == 3) { new B4() } else { new B5() } } } }
            }
            def main(): Unit = {
              var i = 0;
              var s = 0;
              while (i < 50) { s = s + call(mk(i)); i = i + 1 }
              println(s)
            }|}
        in
        check_differential src [ "call"; "main" ]);
  ]

let algorithm_tests =
  [
    test "end-to-end: compiled code is faster and correct" (fun () ->
        let src =
          {|def add1(x: Int): Int = x + 1
            def f(): Int = { var i = 0; var s = 0; while (i < 100) { s = add1(s); i = i + 1 }; s }
            def main(): Unit = println(f())|}
        in
        let result, prog, vm = compile_with src "f" in
        Alcotest.(check bool) "inlined" true (result.stats.inlined > 0);
        Alcotest.(check int) "no calls left" 0 (count_calls result.body);
        (* run both and compare cycle counts *)
        let m = Option.get (Ir.Program.find_meth prog "f") in
        let c0 = vm.cycles in
        ignore (Runtime.Interp.run_meth vm "f" [ Runtime.Values.Vunit ]);
        let interp_cycles = vm.cycles - c0 in
        let vm2 = Runtime.Interp.create prog in
        Runtime.Interp.set_installed vm2 m (Some result.body);
        ignore (Runtime.Interp.run_meth vm2 "f" [ Runtime.Values.Vunit ]);
        Alcotest.(check bool) "faster" true (vm2.cycles < interp_cycles));
    test "cluster inlining beats partial inlining on foreach shape" (fun () ->
        check_differential
          (Workloads.Registry.find "foreach-poly" |> Option.get).source
          [ "bench" ]);
    test "termination on recursive root" (fun () ->
        let src =
          {|def f(n: Int): Int = if (n <= 1) { 1 } else { n * f(n - 1) }
            def main(): Unit = println(f(10))|}
        in
        let result, _, _ = compile_with src "f" in
        Alcotest.(check bool) "bounded size" true
          (result.stats.final_size < Params.default.root_size_cap);
        check_differential src [ "f" ]);
    test "root size cap is respected" (fun () ->
        let params = { Params.default with root_size_cap = 60 } in
        let src =
          {|def big(x: Int): Int = x + x * 2 + x * 3 + x * 4 + x * 5 + x * 6 + x * 7
            def f(): Int = { var i = 0; var s = 0; while (i < 40) { s = s + big(i); i = i + 1 }; s }
            def main(): Unit = println(f())|}
        in
        let result, _, _ = compile_with ~params src "f" in
        (* one round may overshoot slightly, but it must stop growing *)
        Alcotest.(check bool) "stopped near cap" true (result.stats.final_size < 400));
    test "deleted callsites survive rounds (no crash, correct code)" (fun () ->
        check_differential
          {|def g(c: Bool): Int = if (c) { 1 } else { 2 }
            def f(): Int = { var i = 0; var s = 0; while (i < 60) { s = s + g(i % 2 == 0); i = i + 1 }; s }
            def main(): Unit = println(f())|}
          [ "f" ]);
    test "all workloads compile correctly under the incremental inliner" (fun () ->
        List.iter
          (fun (w : Workloads.Defs.t) ->
            let prog = Workloads.Registry.compile w in
            Opt.Driver.prepare_program prog;
            let vm = Runtime.Interp.create prog in
            ignore (Runtime.Interp.run_main vm);
            Alcotest.(check string) (w.name ^ " interpreted") w.expected
              (Runtime.Interp.output vm);
            (* compile every method that ran hot enough, then re-run *)
            let cache = Hashtbl.create 16 in
            Ir.Program.iter_meths
              (fun (m : Ir.Types.meth) ->
                if
                  m.body <> None
                  && Runtime.Profile.invocation_count vm.profiles m.m_id >= 2
                then begin
                  let result = Algorithm.compile prog vm.profiles Params.default m.m_id in
                  (match Ir.Verify.check result.body with
                  | () -> ()
                  | exception Ir.Verify.Ill_formed msg ->
                      Alcotest.failf "%s/%s: %s" w.name m.m_name msg);
                  Hashtbl.replace cache m.m_id result.Algorithm.body
                end)
              prog;
            let vm2 = Runtime.Interp.create prog in
            Hashtbl.iter (fun m body -> Runtime.Interp.set_installed vm2 m (Some body)) cache;
            ignore (Runtime.Interp.run_main vm2);
            Alcotest.(check string) (w.name ^ " compiled") w.expected
              (Runtime.Interp.output vm2))
          Workloads.Registry.all);
  ]

let params_tests =
  [
    test "ablation constructors flip only their toggle" (fun () ->
        let p = Params.default in
        Alcotest.(check bool) "clustering off" false
          (Params.without_clustering p).clustering;
        Alcotest.(check bool) "deep off" false (Params.without_deep_trials p).deep_trials;
        match (Params.with_fixed ~te:100 ~ti:200 p).threshold_policy with
        | Params.Fixed { te = 100; ti = 200 } -> ()
        | _ -> Alcotest.fail "fixed policy");
  ]

let math_tests =
  [
    test "recursion penalty ψ_r is zero before depth 2" (fun () ->
        let src =
          {|def f(n: Int): Int = if (n <= 0) { 0 } else { f(n - 1) + 1 }
            def main(): Unit = println(f(20))|}
        in
        let t = tree_of src "f" in
        (* the self-recursive callsite at root level: d=1, penalty 0 *)
        let n1 = List.hd t.children in
        Alcotest.(check int) "d=1" 1 (Calltree.rec_depth n1);
        Alcotest.(check (float 1e-9)) "ψ_r(d=1)=0" 0.0 (Expansion.psi_r n1);
        ignore (Calltree.expand_cutoff t n1);
        let n2 = List.hd n1.children in
        Alcotest.(check int) "d=2" 2 (Calltree.rec_depth n2);
        (* ψ_r(d=2) = max(1,f) * (2^2 - 2) = 2·max(1,f) > 0 *)
        Alcotest.(check bool) "ψ_r(d=2)>0" true (Expansion.psi_r n2 > 0.0);
        ignore (Calltree.expand_cutoff t n2);
        let n3 = List.hd n2.children in
        Alcotest.(check bool) "ψ_r grows with depth" true
          (Expansion.psi_r n3 > Expansion.psi_r n2));
    test "exploration penalty ψ grows with subtree size" (fun () ->
        let src =
          {|def big(x: Int): Int = x + x * 2 + x * 3 + x * 4 + x * 5 + x * 6 + x * 7 + x * 8 + x / 3 + x / 5
            def tiny(x: Int): Int = x
            def f(): Int = big(1) + tiny(2)
            def main(): Unit = println(f())|}
        in
        let t = tree_of src "f" in
        let find name =
          List.find
            (fun (n : Calltree.node) ->
              match n.kind with
              | Calltree.Cutoff (Calltree.Known m) -> (Ir.Program.meth t.prog m).m_name = name
              | _ -> false)
            t.children
        in
        Alcotest.(check bool) "ψ(big) > ψ(tiny)" true
          (Expansion.psi t (find "big") > Expansion.psi t (find "tiny")));
    test "ψ is relieved when few cutoffs remain" (fun () ->
        (* the b1·max(0, b2 − N_c²) term: with N_c=1 the relief is larger
           than with many cutoffs, all else equal; verify via the formula's
           components on a freshly created tree *)
        let src =
          "def g(): Int = 1\ndef f(): Int = g()\ndef main(): Unit = println(f())"
        in
        let t = tree_of src "f" in
        let n = List.hd t.children in
        let p = t.params in
        let expected =
          (p.p1 *. float_of_int (Calltree.s_ir t n))
          +. (p.p2 *. float_of_int (Calltree.s_b t n))
          -. (p.b1 *. Float.max 0.0 (p.b2 -. 1.0))
        in
        Alcotest.(check (float 1e-9)) "formula" expected (Expansion.psi t n));
    test "adaptive expansion threshold tightens with tree size" (fun () ->
        let src =
          "def g(): Int = 1\ndef f(): Int = g()\ndef main(): Unit = println(f())"
        in
        let t = tree_of src "f" in
        let n = List.hd t.children in
        Alcotest.(check bool) "passes when small" true (Expansion.may_expand t n);
        (* same node under a tree pretending to be huge: shrink r1 *)
        let t' = { t with params = { t.params with r1 = -10000.0 } } in
        Alcotest.(check bool) "fails when the tree is 'huge'" false
          (Expansion.may_expand t' n));
    test "poly node size models the typeswitch" (fun () ->
        let t = tree_of poly_src "call" in
        let n = List.hd t.children in
        ignore (Calltree.expand_cutoff t n);
        Alcotest.(check int) "2 per target" (2 * List.length n.children)
          (Calltree.node_size t n));
    test "poly children frequencies split by probability" (fun () ->
        let t = tree_of poly_src "call" in
        let n = List.hd t.children in
        let parent_freq = n.freq in
        ignore (Calltree.expand_cutoff t n);
        List.iter
          (fun (c : Calltree.node) ->
            Alcotest.(check (float 1e-6)) "freq = parent × prob" (parent_freq *. c.prob)
              c.freq)
          n.children;
        let total_prob = List.fold_left (fun a (c : Calltree.node) -> a +. c.prob) 0.0 n.children in
        Alcotest.(check bool) "probs ≤ 1" true (total_prob <= 1.0 +. 1e-9));
    test "fully merged cluster benefit telescopes to the root's B_L" (fun () ->
        (* documents the Listing-6 semantics: when every descendant merges,
           interior benefits cancel and the cluster's benefit is the top
           callsite's local benefit minus the (empty) front *)
        let src =
          {|def leaf(x: Int): Int = x + 1
            def mid(x: Int): Int = leaf(x)
            def f(): Int = { var i = 0; var s = 0; while (i < 40) { s = s + mid(i); i = i + 1 }; s }
            def main(): Unit = println(f())|}
        in
        let t = tree_of src "f" in
        ignore (Expansion.run t);
        Analysis.run t;
        let mid = List.hd t.children in
        (match mid.front with
        | [] ->
            Alcotest.(check (float 1e-6)) "telescoped"
              (Calltree.local_benefit t mid)
              (fst mid.tuple)
        | _ -> Alcotest.fail "expected an empty front"));
    test "spec signature detects constants and refined types" (fun () ->
        let src =
          {|abstract class A { def m(): Int }
            class B() extends A { def m(): Int = 1 }
            class C() extends A { def m(): Int = 2 }
            def g(a: A, k: Int): Int = a.m() + k
            def f(): Int = g(new B(), 7)
            def main(): Unit = println(f())|}
        in
        let t = tree_of src "f" in
        (* pick the call to g (the constructor call comes first in block
           order) *)
        let n =
          List.find
            (fun (n : Calltree.node) ->
              match n.kind with
              | Calltree.Cutoff (Calltree.Known m) ->
                  (Ir.Program.meth t.prog m).m_name = "g"
              | _ -> false)
            t.children
        in
        (match n.kind with
        | Calltree.Cutoff (Calltree.Known m) ->
            let declared = (Ir.Program.meth t.prog m).m_param_tys in
            let sg =
              Calltree.spec_signature t ~env:(Opt.Tyinfer.infer t.prog n.owner) ~owner:n.owner
                ~call_vid:n.call_vid ~recv_cls:None ~declared
            in
            (* params: dummy unit (const), a (refined to B), k (const 7) *)
            (match sg.(0) with
            | Some Ir.Types.Cunit, _ -> ()
            | _ -> Alcotest.fail "unit receiver constant");
            (match sg.(1) with
            | _, Some (Ir.Types.Tobj _) -> ()
            | _ -> Alcotest.fail "receiver type refined");
            (match sg.(2) with
            | Some (Ir.Types.Cint 7), _ -> ()
            | _ -> Alcotest.fail "constant argument")
        | _ -> Alcotest.fail "expected a known cutoff"));
    test "signature_improves: gain yes, loss no, change-without-gain no" (fun () ->
        let prog =
          compile
            {|abstract class A {} class B() extends A {}
              def main(): Unit = {}|}
        in
        let cls name =
          let r = ref (-1) in
          Ir.Program.iter_classes
            (fun (c : Ir.Types.cls) -> if c.c_name = name then r := c.c_id)
            prog;
          !r
        in
        let a = Ir.Types.Tobj (cls "A") and b = Ir.Types.Tobj (cls "B") in
        let sig_ l = Array.of_list l in
        Alcotest.(check bool) "type refinement improves" true
          (Calltree.signature_improves prog
             ~old_sig:(sig_ [ (None, Some a) ])
             ~new_sig:(sig_ [ (None, Some b) ]));
        Alcotest.(check bool) "type loss does not" false
          (Calltree.signature_improves prog
             ~old_sig:(sig_ [ (None, Some b) ])
             ~new_sig:(sig_ [ (None, Some a) ]));
        Alcotest.(check bool) "new constant improves" true
          (Calltree.signature_improves prog
             ~old_sig:(sig_ [ (None, None) ])
             ~new_sig:(sig_ [ (Some (Ir.Types.Cint 1), None) ]));
        Alcotest.(check bool) "constant flip alone does not" false
          (Calltree.signature_improves prog
             ~old_sig:(sig_ [ (Some (Ir.Types.Cint 1), None) ])
             ~new_sig:(sig_ [ (Some (Ir.Types.Cint 2), None) ]));
        Alcotest.(check bool) "identical does not" false
          (Calltree.signature_improves prog
             ~old_sig:(sig_ [ (None, Some b) ])
             ~new_sig:(sig_ [ (None, Some b) ])));
  ]

let cache_tests =
  [
    test "results are identical with and without the trial cache" (fun () ->
        List.iter
          (fun wname ->
            let w = Option.get (Workloads.Registry.find wname) in
            let prog = Workloads.Registry.compile w in
            Opt.Driver.prepare_program prog;
            let vm = Runtime.Interp.create prog in
            ignore (Runtime.Interp.run_main vm);
            let cache = Inliner.Trial_cache.create () in
            Ir.Program.iter_meths
              (fun (m : Ir.Types.meth) ->
                if
                  m.body <> None
                  && Runtime.Profile.invocation_count vm.profiles m.m_id >= 2
                then begin
                  let plain = Algorithm.compile prog vm.profiles Params.default m.m_id in
                  let cached =
                    Algorithm.compile ~trial_cache:cache prog vm.profiles Params.default
                      m.m_id
                  in
                  Alcotest.(check string)
                    (wname ^ "/" ^ m.m_name)
                    (Ir.Printer.fn_to_string plain.body)
                    (Ir.Printer.fn_to_string cached.body)
                end)
              prog)
          [ "foreach-poly"; "blas-modes" ]);
    test "repeated compilations hit the cache" (fun () ->
        let w = Option.get (Workloads.Registry.find "blas-modes") in
        let prog = Workloads.Registry.compile w in
        Opt.Driver.prepare_program prog;
        let vm = Runtime.Interp.create prog in
        ignore (Runtime.Interp.run_main vm);
        let cache = Inliner.Trial_cache.create () in
        let m = Option.get (Ir.Program.find_meth prog "bench") in
        ignore (Algorithm.compile ~trial_cache:cache prog vm.profiles Params.default m);
        let hits1, _, _ = Inliner.Trial_cache.stats cache in
        ignore (Algorithm.compile ~trial_cache:cache prog vm.profiles Params.default m);
        let hits2, _, entries = Inliner.Trial_cache.stats cache in
        Alcotest.(check bool) "second compile hits" true (hits2 > hits1);
        Alcotest.(check bool) "entries populated" true (entries > 0));
    test "a cache refuses to span programs" (fun () ->
        let src = "def g(): Int = 1\ndef f(): Int = g()\ndef main(): Unit = println(f())" in
        let setup () =
          let prog = compile src in
          Opt.Driver.prepare_program prog;
          let vm = Runtime.Interp.create prog in
          ignore (Runtime.Interp.run_main vm);
          (prog, vm)
        in
        let prog1, vm1 = setup () in
        let prog2, vm2 = setup () in
        let cache = Inliner.Trial_cache.create () in
        let m1 = Option.get (Ir.Program.find_meth prog1 "f") in
        let m2 = Option.get (Ir.Program.find_meth prog2 "f") in
        ignore (Algorithm.compile ~trial_cache:cache prog1 vm1.profiles Params.default m1);
        match Algorithm.compile ~trial_cache:cache prog2 vm2.profiles Params.default m2 with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument msg ->
            Alcotest.(check bool) "message" true
              (contains_substring ~needle:"span programs" msg));
    (* entries are keyed by the signature's structure, so a lookup builds
       and hashes a small key and prints nothing *)
    test "a trial-cache miss prints nothing" (fun () ->
        let open Ir.Types in
        let sg () =
          [| (Some (Cint 3), None); (None, Some (Tobj 2)); (Some (Cstring "a;b"), Some Tstring) |]
        in
        let cache = Inliner.Trial_cache.create () in
        let probe = sg () in
        ignore (Inliner.Trial_cache.find cache 7 ~enabled:true ~sg:probe);
        let before = Gc.minor_words () in
        let miss = Inliner.Trial_cache.find cache 7 ~enabled:true ~sg:probe in
        let words = Gc.minor_words () -. before in
        Alcotest.(check bool) "a miss" true (miss = None);
        if words >= 16. then Alcotest.failf "a miss allocated %.0f words" words;
        (* the entry keeps its own copy of the signature, and an equal
           signature in another array finds it *)
        let body = Ir.Fn.create ~fname:"t" ~param_tys:[| Tint; Tobj 2; Tstring |] ~rty:Tint in
        let stored = sg () in
        Inliner.Trial_cache.store cache 7 ~enabled:true ~sg:stored ~body ~n_opts:2 ~n_a:1;
        stored.(0) <- (None, None);
        let found ~enabled m sg = Inliner.Trial_cache.find cache m ~enabled ~sg <> None in
        Alcotest.(check bool) "an equal signature hits" true (found ~enabled:true 7 (sg ()));
        Alcotest.(check bool) "another signature misses" false
          (found ~enabled:true 7 [| (Some (Cint 4), None); (None, Some (Tobj 2)); (None, None) |]);
        Alcotest.(check bool) "another method misses" false (found ~enabled:true 8 (sg ()));
        Alcotest.(check bool) "a disabled trial has its own entry" false
          (found ~enabled:false 7 (sg ()));
        Inliner.Trial_cache.store cache 7 ~enabled:false ~sg:(sg ()) ~body ~n_opts:0 ~n_a:0;
        Alcotest.(check bool) "which ignores the signature" true
          (found ~enabled:false 7 [||]);
        Alcotest.(check (triple int int int)) "hits, misses, entries" (2, 5, 2)
          (Inliner.Trial_cache.stats cache));
    test "cache templates are isolated from later mutation" (fun () ->
        let src =
          {|def g(x: Int): Int = x * 2 + 1
            def f(): Int = { var i = 0; var s = 0; while (i < 30) { s = s + g(i); i = i + 1 }; s }
            def main(): Unit = println(f())|}
        in
        let prog = compile src in
        Opt.Driver.prepare_program prog;
        let vm = Runtime.Interp.create prog in
        ignore (Runtime.Interp.run_main vm);
        let cache = Inliner.Trial_cache.create () in
        let m = Option.get (Ir.Program.find_meth prog "f") in
        (* compile twice: the first splices the specialized copy into the
           root (mutating it through the splice); the second must see a
           pristine template *)
        let r1 = Algorithm.compile ~trial_cache:cache prog vm.profiles Params.default m in
        let r2 = Algorithm.compile ~trial_cache:cache prog vm.profiles Params.default m in
        Alcotest.(check string) "identical"
          (Ir.Printer.fn_to_string r1.body)
          (Ir.Printer.fn_to_string r2.body));
  ]

(* ---------- expansion summary oracle ---------- *)

(* The recursive definitions of the call-tree metrics, recomputed from
   scratch on every query: |ir(n)| straight from the IR, S_ir, S_b, N_c,
   candidacy, P_I (Eq. 5), ψ (Eq. 7) and the descent to the best cutoff.
   The inliner reads all of them from one summary per expansion step;
   this is what that summary must equal. *)
module Oracle = struct
  open Calltree

  let node_size (t : t) (n : node) : int =
    let prepared m = Option.map Ir.Fn.size (prepared_body t m) in
    match n.kind with
    | Expanded { body; _ } -> Ir.Fn.size body
    | Cutoff (Known m) -> Option.value (prepared m) ~default:25
    | Cutoff (Unknown sel) -> (
        let sizes =
          List.filter_map
            (fun (c, p) ->
              Option.bind (Ir.Program.resolve t.prog c sel) (fun m ->
                  Option.map (fun size -> float_of_int size *. p) (prepared m)))
            (Runtime.Profile.receiver_profile t.profiles n.site)
        in
        match sizes with
        | [] -> 25
        | _ -> int_of_float (List.fold_left ( +. ) 0.0 sizes))
    | Poly _ -> 2 * max 1 (List.length n.children)
    | Generic _ | Deleted -> 0

  let rec s_ir t n =
    match n.kind with
    | Deleted | Generic _ -> 0
    | _ -> node_size t n + List.fold_left (fun acc c -> acc + s_ir t c) 0 n.children

  let rec s_b t n =
    match n.kind with
    | Deleted | Generic _ -> 0
    | Cutoff _ -> node_size t n
    | _ -> List.fold_left (fun acc c -> acc + s_b t c) 0 n.children

  let rec n_c n =
    match n.kind with
    | Deleted | Generic _ -> 0
    | Cutoff _ -> 1
    | _ -> List.fold_left (fun acc c -> acc + n_c c) 0 n.children

  let rec has_candidate n =
    match n.kind with
    | Cutoff _ -> not n.declined
    | Expanded _ | Poly _ -> List.exists has_candidate n.children
    | Generic _ | Deleted -> false

  let rec intrinsic_priority t n =
    match n.kind with
    | Cutoff _ ->
        let size = max 1 (node_size t n) in
        (local_benefit t n /. float_of_int size) -. Expansion.psi_r n
    | Expanded _ | Poly _ ->
        List.fold_left
          (fun acc c -> if has_candidate c then max acc (intrinsic_priority t c) else acc)
          neg_infinity n.children
    | Generic _ | Deleted -> neg_infinity

  let psi t n =
    let p = t.params in
    let ncn = float_of_int (n_c n) in
    (p.p1 *. float_of_int (s_ir t n))
    +. (p.p2 *. float_of_int (s_b t n))
    -. (p.b1 *. max 0.0 (p.b2 -. (ncn *. ncn)))

  let priority t n = intrinsic_priority t n -. psi t n

  let best t children =
    List.fold_left
      (fun acc c ->
        match acc with
        | None -> Some c
        | Some b -> if priority t c > priority t b then Some c else acc)
      None
      (List.filter has_candidate children)

  let rec descend t n =
    match n.kind with
    | Cutoff _ -> if n.declined then None else Some n
    | Expanded _ | Poly _ -> Option.bind (best t n.children) (descend t)
    | Generic _ | Deleted -> None

  let best_cutoff t = Option.bind (best t t.children) (descend t)
  let tree_s_ir t = Ir.Fn.size t.root_fn + List.fold_left (fun a c -> a + s_ir t c) 0 t.children
  let tree_n_c t = List.fold_left (fun a c -> a + n_c c) 0 t.children
end

(* Every node of the tree, below Deleted and Generic nodes too. *)
let rec all_nodes (ns : Calltree.node list) : Calltree.node list =
  List.concat_map (fun (n : Calltree.node) -> n :: all_nodes n.children) ns

let check_summary (what : string) (t : Calltree.t) : unit =
  let nid = function Some (n : Calltree.node) -> n.nid | None -> -1 in
  Alcotest.(check int) (what ^ " tree S_ir") (Oracle.tree_s_ir t) (Calltree.tree_s_ir t);
  Alcotest.(check int) (what ^ " tree N_c") (Oracle.tree_n_c t) (Calltree.tree_n_c t);
  Alcotest.(check int) (what ^ " best cutoff") (nid (Oracle.best_cutoff t))
    (nid (Expansion.best_cutoff t));
  List.iter
    (fun (n : Calltree.node) ->
      let at = Printf.sprintf "%s node %d" what n.nid in
      let same_float name expected actual =
        if not (expected = actual) then
          Alcotest.failf "%s %s: expected %h, got %h" at name expected actual
      in
      Alcotest.(check int) (at ^ " |ir|") (Oracle.node_size t n) (Calltree.node_size t n);
      Alcotest.(check int) (at ^ " S_ir") (Oracle.s_ir t n) (Calltree.s_ir t n);
      Alcotest.(check int) (at ^ " S_b") (Oracle.s_b t n) (Calltree.s_b t n);
      Alcotest.(check int) (at ^ " N_c") (Oracle.n_c n) (Calltree.n_c t n);
      Alcotest.(check bool) (at ^ " candidate") (Oracle.has_candidate n)
        (Calltree.summary t n).candidate;
      same_float "P_I" (Oracle.intrinsic_priority t n) (Expansion.intrinsic_priority t n);
      same_float "psi" (Oracle.psi t n) (Expansion.psi t n);
      same_float "P" (Oracle.priority t n) (Expansion.priority t n))
    (all_nodes t.children)

(* The rounds of [Algorithm.compile], checking the summary as each
   expansion phase starts (the declined flags cleared, so every
   undeclined cutoff is a candidate) and after every step of it: a step
   re-summarizes only the path to the cutoff it chose, so a node it
   missed reads stale here. *)
let compile_checking_summary (prog : Ir.Types.program) profiles (m : Ir.Types.meth) : unit =
  let params = Params.default in
  let t = Calltree.create prog profiles params m.m_id in
  let rec round k =
    if k <= params.max_rounds && Ir.Fn.size t.root_fn < params.root_size_cap then begin
      Expansion.start t;
      check_summary (Printf.sprintf "%s before round %d" m.m_name k) t;
      let rec steps expanded i =
        if expanded >= params.max_expansions_per_round then expanded
        else
          let step = Expansion.step t in
          check_summary (Printf.sprintf "%s round %d step %d" m.m_name k i) t;
          match step with
          | Expansion.Finished -> expanded
          | Expansion.Grew -> steps (expanded + 1) (i + 1)
          | Expansion.Stuck | Expansion.Declined -> steps expanded (i + 1)
      in
      let expanded = steps 0 1 in
      Analysis.run t;
      let inlined = Inline_phase.run t in
      ignore (Opt.Driver.round_root_opts ~passes:params.root_passes prog t.root_fn);
      Calltree.refresh t;
      if expanded > 0 || inlined > 0 then round (k + 1)
    end
  in
  round 1

let summary_tests =
  [
    test "the expansion summary equals the recursive definitions" (fun () ->
        List.iter
          (fun (w : Workloads.Defs.t) ->
            let prog = Workloads.Registry.compile w in
            Opt.Driver.prepare_program prog;
            let vm = Runtime.Interp.create prog in
            ignore (Runtime.Interp.run_main vm);
            Ir.Program.iter_meths
              (fun (m : Ir.Types.meth) ->
                if m.body <> None && Runtime.Profile.invocation_count vm.profiles m.m_id >= 2
                then compile_checking_summary prog vm.profiles m)
              prog)
          Workloads.Registry.all);
  ]

(* ---------- golden compile identity ---------- *)

(* Every compile the tiered engine's incremental compiler performs on the
   registry programs and on compile-replay's two synthetic call graphs.
   One line per compile — program/method, the MD5 of the printed body, and
   rounds expanded inlined opt_events — then one MD5 per program over its
   inliner and optimizer decision trace. Pins the compiler's output byte
   for byte, so a change meant to make compilation cheaper cannot change
   what it produces. *)
let golden_programs () : Workloads.Defs.t list =
  Workloads.Registry.all
  @ List.map
      (fun seed ->
        Workloads.Synth.generate
          { Workloads.Synth.default with seed; depth = 4; fanout = 3; poly_degree = 4 })
      [ 1; 2 ]

let decision_events = [ "expand_decision"; "inline_decision"; "inline_round"; "opt_round" ]

let is_decision_event (line : string) : bool =
  match Support.Json.of_string line with
  | Ok j -> (
      match Option.bind (Support.Json.member "ev" j) Support.Json.to_string_opt with
      | Some ev -> List.mem ev decision_events
      | None -> false)
  | Error _ -> false

let compiled_lines (w : Workloads.Defs.t) : string list =
  let prog = Workloads.Registry.compile w in
  Opt.Driver.prepare_program prog;
  let trial_cache = Trial_cache.create () in
  let lines = ref [] in
  let compiler prog profiles m =
    let r = Algorithm.compile ~trial_cache prog profiles Params.default m in
    let s = r.stats in
    lines :=
      Printf.sprintf "%s/%s %s %d %d %d %d" w.name (Ir.Program.meth prog m).m_name
        (md5 (Ir.Printer.fn_to_string r.body))
        s.rounds s.expanded s.inlined s.opt_events
      :: !lines;
    r.body
  in
  let sink, read = Obs.Trace.memory_sink () in
  Obs.Trace.scoped sink (fun () ->
      let e =
        Jit.Engine.create prog
          {
            name = "incremental";
            compiler = Some compiler;
            hotness_threshold = 8;
            compile_cost_per_node = 50;
            verify = false;
          }
      in
      for _ = 1 to w.iters do
        ignore (Jit.Engine.run_meth e "bench" [ Runtime.Values.Vunit ])
      done);
  let decisions = List.filter is_decision_event (read ()) in
  List.rev !lines
  @ [ Printf.sprintf "%s trace %s" w.name (md5 (String.concat "\n" decisions)) ]

let golden_tests =
  [
    test "compiled bodies and decision traces match the golden file" (fun () ->
        check_golden "compiled.golden"
          (List.concat_map compiled_lines (golden_programs ())));
  ]

let () =
  Alcotest.run "inliner"
    [
      ("golden", golden_tests);
      ("summary", summary_tests);
      ("cache", cache_tests);
      ("calltree", calltree_tests);
      ("analysis", analysis_tests);
      ("expansion", expansion_tests);
      ("typeswitch", typeswitch_tests);
      ("algorithm", algorithm_tests);
      ("params", params_tests);
      ("math", math_tests);
    ]
