(* Tests for profile collection: invocation counts, block counts, branch
   probabilities and receiver histograms — the inputs of the inliner. *)

open Util

let profiled src =
  let prog = compile src in
  Opt.Driver.prepare_program prog;
  let vm = Runtime.Interp.create prog in
  ignore (Runtime.Interp.run_main vm);
  (prog, vm)

let meth prog name = Option.get (Ir.Program.find_meth prog name)

let tests =
  [
    test "invocation counts" (fun () ->
        let prog, vm =
          profiled
            {|def g(): Int = 1
              def main(): Unit = { var i = 0; while (i < 10) { println(g()); i = i + 1 } }|}
        in
        Alcotest.(check int) "g invoked 10x" 10
          (Runtime.Profile.invocation_count vm.profiles (meth prog "g"));
        Alcotest.(check int) "main invoked once" 1
          (Runtime.Profile.invocation_count vm.profiles (meth prog "main")));
    test "block counts reflect loop trips" (fun () ->
        let prog, vm =
          profiled
            {|def f(): Int = { var i = 0; var s = 0; while (i < 25) { s = s + i; i = i + 1 }; s }
              def main(): Unit = println(f())|}
        in
        let f = meth prog "f" in
        let fn = body_of prog "f" in
        let entry_count = Runtime.Profile.block_count vm.profiles f fn.entry in
        Alcotest.(check int) "entry once" 1 entry_count;
        let max_count =
          Ir.Fn.fold_blocks
            (fun acc blk -> max acc (Runtime.Profile.block_count vm.profiles f blk.b_id))
            0 fn
        in
        Alcotest.(check bool) "loop block ran 25x" true (max_count >= 25));
    test "branch probabilities" (fun () ->
        let prog, vm =
          profiled
            {|def f(x: Int): Int = if (x % 4 == 0) { 1 } else { 0 }
              def main(): Unit = {
                var i = 0;
                var s = 0;
                while (i < 100) { s = s + f(i); i = i + 1 }
                println(s)
              }|}
        in
        let f = meth prog "f" in
        let fn = body_of prog "f" in
        let probs = ref [] in
        Ir.Fn.iter_blocks
          (fun blk ->
            match blk.term with
            | Ir.Types.If { site; _ } when site.sm = f -> (
                match Runtime.Profile.branch_prob vm.profiles site with
                | Some p -> probs := p :: !probs
                | None -> ())
            | _ -> ())
          fn;
        match !probs with
        | [ p ] ->
            Alcotest.(check bool) "~25% taken" true (p > 0.2 && p < 0.3)
        | ps -> Alcotest.failf "expected 1 profiled branch, got %d" (List.length ps));
    test "receiver histogram orders by frequency" (fun () ->
        let prog, vm =
          profiled
            {|abstract class A { def m(): Int }
              class B() extends A { def m(): Int = 1 }
              class C() extends A { def m(): Int = 2 }
              def call(a: A): Int = a.m()
              def main(): Unit = {
                val b = new B();
                val c = new C();
                var i = 0;
                var s = 0;
                while (i < 10) {
                  s = s + call(b);
                  if (i % 5 == 0) { s = s + call(c) };
                  i = i + 1;
                }
                println(s)
              }|}
        in
        let call = meth prog "call" in
        let fn = body_of prog "call" in
        let site =
          match Ir.Fn.calls fn with
          | [ { kind = Ir.Types.Call { site; _ }; _ } ] -> site
          | _ -> Alcotest.fail "one call expected"
        in
        ignore call;
        match Runtime.Profile.receiver_profile vm.profiles site with
        | (c1, p1) :: (c2, p2) :: [] ->
            Alcotest.(check string) "most frequent first" "B"
              (Ir.Program.cls prog c1).c_name;
            Alcotest.(check string) "second" "C" (Ir.Program.cls prog c2).c_name;
            Alcotest.(check bool) "ordered" true (p1 > p2);
            Alcotest.(check (float 1e-9)) "sums to 1" 1.0 (p1 +. p2)
        | l -> Alcotest.failf "expected 2 receivers, got %d" (List.length l));
    test "branch prob is None for never-executed sites" (fun () ->
        let prog, vm =
          profiled
            {|def f(x: Int): Int = if (x > 0) { 1 } else { 0 }
              def main(): Unit = println(0)|}
        in
        let f = meth prog "f" in
        let fn = body_of prog "f" in
        Ir.Fn.iter_blocks
          (fun blk ->
            match blk.term with
            | Ir.Types.If { site; _ } ->
                Alcotest.(check (option (float 0.))) "none" None
                  (Runtime.Profile.branch_prob vm.profiles site)
            | _ -> ())
          fn;
        ignore f);
    test "text round trip preserves every query" (fun () ->
        let prog, vm =
          profiled
            {|abstract class A { def m(): Int }
              class B() extends A { def m(): Int = 1 }
              class C() extends A { def m(): Int = 2 }
              def call(a: A): Int = a.m()
              def f(x: Int): Int = if (x % 3 == 0) { call(new B()) } else { call(new C()) }
              def main(): Unit = {
                var i = 0;
                var s = 0;
                while (i < 30) { s = s + f(i); i = i + 1 }
                println(s)
              }|}
        in
        let text = Runtime.Profile.to_text vm.profiles in
        let reloaded = Runtime.Profile.of_text text in
        (* identical text after a second round trip *)
        Alcotest.(check string) "idempotent" text (Runtime.Profile.to_text reloaded);
        (* spot-check the queries the inliner uses *)
        Ir.Program.iter_meths
          (fun (m : Ir.Types.meth) ->
            Alcotest.(check int) ("invocations " ^ m.m_name)
              (Runtime.Profile.invocation_count vm.profiles m.m_id)
              (Runtime.Profile.invocation_count reloaded m.m_id))
          prog;
        let call_m = meth prog "call" in
        let fn = body_of prog "call" in
        List.iter
          (fun (c : Ir.Types.instr) ->
            match c.kind with
            | Ir.Types.Call { site; _ } ->
                Alcotest.(check (list (pair int (float 1e-9))))
                  "receiver histogram"
                  (Runtime.Profile.receiver_profile vm.profiles site)
                  (Runtime.Profile.receiver_profile reloaded site)
            | _ -> ())
          (Ir.Fn.calls fn);
        ignore call_m);
    test "to_text prints observed counts only" (fun () ->
        (* the threaded tier binds the cells of blocks and branches that
           may never run, the walker only those it counts: cells created
           but never counted, synthetic sites' included, print nothing *)
        let p = Runtime.Profile.create () in
        ignore (Runtime.Profile.block_cell p 0 3);
        ignore (Runtime.Profile.branch_cell p { Ir.Types.sm = 0; sidx = 1 });
        ignore (Runtime.Profile.branch_cell p { Ir.Types.sm = 0; sidx = -1 });
        Alcotest.(check string) "uncounted cells" "" (Runtime.Profile.to_text p);
        incr (Runtime.Profile.block_cell p 0 2);
        let synthetic = Runtime.Profile.branch_cell p { Ir.Types.sm = 0; sidx = -1 } in
        Runtime.Profile.brec_record synthetic ~taken:false;
        Alcotest.(check string) "counted cells" "b 0 2 1\nc 0 -1 0 1\n"
          (Runtime.Profile.to_text p));
    test "loading malformed text raises Bad_profile" (fun () ->
        List.iter
          (fun bad ->
            match Runtime.Profile.of_text bad with
            | _ -> Alcotest.failf "accepted %S" bad
            | exception Runtime.Profile.Bad_profile _ -> ())
          [ "x 1 2"; "i one 2"; "b 1"; "r 1 2 3" ]);
    test "duplicate records accumulate (merge semantics)" (fun () ->
        (* the concatenation of two dumps must load as their sum, not as
           whichever record came last *)
        let _, vm =
          profiled
            {|abstract class A { def m(): Int }
              class B() extends A { def m(): Int = 1 }
              class C() extends A { def m(): Int = 2 }
              def call(a: A): Int = a.m()
              def f(x: Int): Int = if (x % 3 == 0) { call(new B()) } else { call(new C()) }
              def main(): Unit = {
                var i = 0;
                var s = 0;
                while (i < 30) { s = s + f(i); i = i + 1 }
                println(s)
              }|}
        in
        let text = Runtime.Profile.to_text vm.profiles in
        let once = Runtime.Profile.of_text text in
        let twice = Runtime.Profile.of_text (text ^ text) in
        (* every line doubled: reserialize and compare against doubling the
           counts of the single load. The sorted text format makes the
           comparison exhaustive over all four record kinds. *)
        let doubled_lines =
          String.split_on_char '\n' (Runtime.Profile.to_text once)
          |> List.filter (fun l -> String.trim l <> "")
          |> List.map (fun l ->
                 match String.split_on_char ' ' l with
                 | [ "i"; m; n ] ->
                     Printf.sprintf "i %s %d" m (2 * int_of_string n)
                 | [ "b"; m; b; n ] ->
                     Printf.sprintf "b %s %s %d" m b (2 * int_of_string n)
                 | [ "r"; m; s; c; n ] ->
                     Printf.sprintf "r %s %s %s %d" m s c (2 * int_of_string n)
                 | [ "c"; m; s; tk; ntk ] ->
                     Printf.sprintf "c %s %s %d %d" m s
                       (2 * int_of_string tk)
                       (2 * int_of_string ntk)
                 | _ -> Alcotest.failf "unexpected record %S" l)
          |> List.sort compare
        in
        let expected = String.concat "\n" doubled_lines ^ "\n" in
        Alcotest.(check string) "concatenated dump sums every count" expected
          (Runtime.Profile.to_text twice));
    test "merged profiles preserve derived queries" (fun () ->
        let prog, vm =
          profiled
            {|def f(x: Int): Int = if (x % 4 == 0) { 1 } else { 0 }
              def main(): Unit = {
                var i = 0;
                var s = 0;
                while (i < 100) { s = s + f(i); i = i + 1 }
                println(s)
              }|}
        in
        let text = Runtime.Profile.to_text vm.profiles in
        let merged = Runtime.Profile.of_text (text ^ "\n" ^ text) in
        let f = meth prog "f" in
        (* absolute counts double... *)
        Alcotest.(check int) "invocations doubled"
          (2 * Runtime.Profile.invocation_count vm.profiles f)
          (Runtime.Profile.invocation_count merged f);
        (* ...while ratios (branch probability) are unchanged *)
        let fn = body_of prog "f" in
        Ir.Fn.iter_blocks
          (fun blk ->
            match blk.term with
            | Ir.Types.If { site; _ } when site.sm = f ->
                Alcotest.(check (option (float 1e-9)))
                  "branch prob invariant under merge"
                  (Runtime.Profile.branch_prob vm.profiles site)
                  (Runtime.Profile.branch_prob merged site)
            | _ -> ())
          fn);
    test "negative counts are rejected" (fun () ->
        List.iter
          (fun bad ->
            match Runtime.Profile.of_text bad with
            | _ -> Alcotest.failf "accepted %S" bad
            | exception Runtime.Profile.Bad_profile _ -> ())
          [ "i 1 -2"; "b 0 1 -5"; "r 2 0 3 -1"; "c 0 1 -3 4"; "c 0 1 3 -4" ]);
    test "compiled code does not profile" (fun () ->
        let src =
          {|def g(): Int = 1
            def bench(): Int = g()
            def main(): Unit = println(bench())|}
        in
        let e = engine ~hotness:3 src (Some (incremental ())) "incr" in
        for _ = 1 to 20 do
          ignore (Jit.Engine.run_meth e "bench" [ Runtime.Values.Vunit ])
        done;
        let prog = e.vm.prog in
        let bench_m = meth prog "bench" in
        (* bench compiles after 3 invocations; interpreter profiling stops *)
        let inv = Runtime.Profile.invocation_count e.vm.profiles bench_m in
        Alcotest.(check bool) "counts frozen below 20" true (inv < 20));
  ]

let () = Alcotest.run "profile" [ ("profile", tests) ]
