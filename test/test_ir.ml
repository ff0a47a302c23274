(* Tests for the IR layer: function/block manipulation, dominators, loop
   discovery, frequency estimation, the verifier, inline splicing, and
   the program's class-hierarchy queries. *)

open Util
open Ir.Types

(* diamond: b0 -> b1|b2 -> b3, with a phi in b3 *)
let make_diamond () =
  let fn = Ir.Fn.create ~fname:"diamond" ~param_tys:[| Tint |] ~rty:Tint in
  let b0 = Ir.Fn.add_block fn in
  let b1 = Ir.Fn.add_block fn in
  let b2 = Ir.Fn.add_block fn in
  let b3 = Ir.Fn.add_block fn in
  fn.entry <- b0;
  let p = Ir.Fn.append fn b0 (Param 0) in
  let zero = Ir.Fn.append fn b0 (Const (Cint 0)) in
  let cond = Ir.Fn.append fn b0 (Binop (Lt, p, zero)) in
  Ir.Fn.set_term fn b0 (If { cond; site = { sm = 0; sidx = 0 }; tb = b1; fb = b2 });
  let one = Ir.Fn.append fn b1 (Const (Cint 1)) in
  Ir.Fn.set_term fn b1 (Goto b3);
  let two = Ir.Fn.append fn b2 (Const (Cint 2)) in
  Ir.Fn.set_term fn b2 (Goto b3);
  let phi = Ir.Fn.prepend fn b3 (Phi { ty = Tint; inputs = [ (b1, one); (b2, two) ] }) in
  Ir.Fn.set_term fn b3 (Return phi);
  (fn, b0, b1, b2, b3, phi)

(* loop: b0 -> b1 (header) -> b2 (body) -> b1; b1 -> b3 (exit) *)
let make_loop () =
  let fn = Ir.Fn.create ~fname:"loop" ~param_tys:[| Tint |] ~rty:Tint in
  let b0 = Ir.Fn.add_block fn in
  let b1 = Ir.Fn.add_block fn in
  let b2 = Ir.Fn.add_block fn in
  let b3 = Ir.Fn.add_block fn in
  fn.entry <- b0;
  let n = Ir.Fn.append fn b0 (Param 0) in
  let zero = Ir.Fn.append fn b0 (Const (Cint 0)) in
  Ir.Fn.set_term fn b0 (Goto b1);
  let i = Ir.Fn.append fn b1 (Phi { ty = Tint; inputs = [] }) in
  let cond = Ir.Fn.append fn b1 (Binop (Lt, i, n)) in
  Ir.Fn.set_term fn b1 (If { cond; site = { sm = 0; sidx = 0 }; tb = b2; fb = b3 });
  let one = Ir.Fn.append fn b2 (Const (Cint 1)) in
  let inc = Ir.Fn.append fn b2 (Binop (Add, i, one)) in
  Ir.Fn.set_term fn b2 (Goto b1);
  Ir.Fn.set_phi_inputs fn i [ (b0, zero); (b2, inc) ];
  Ir.Fn.set_term fn b3 (Return i);
  (fn, b0, b1, b2, b3)

let fn_tests =
  [
    test "size counts instructions and terminators" (fun () ->
        let fn, _, _, _, _, _ = make_diamond () in
        (* 6 instrs + 4 terminators *)
        Alcotest.(check int) "size" 10 (Ir.Fn.size fn));
    test "preds" (fun () ->
        let fn, b0, b1, b2, b3, _ = make_diamond () in
        let preds = Ir.Fn.preds fn in
        Alcotest.(check (list int)) "b3 preds" [ b1; b2 ]
          (List.sort compare (Hashtbl.find preds b3));
        Alcotest.(check (list int)) "b0 preds" [] (Hashtbl.find preds b0));
    test "rpo starts at entry" (fun () ->
        let fn, b0, _, _, _, _ = make_diamond () in
        Alcotest.(check int) "first" b0 (List.hd (Ir.Fn.rpo fn)));
    test "rpo covers reachable blocks exactly once" (fun () ->
        let fn, _, _, _, _, _ = make_diamond () in
        let order = Ir.Fn.rpo fn in
        Alcotest.(check int) "count" 4 (List.length order);
        Alcotest.(check int) "unique" 4 (List.length (List.sort_uniq compare order)));
    test "delete_instr removes uses from blocks" (fun () ->
        let fn, _, b1, _, _, _ = make_diamond () in
        let blk = Ir.Fn.block fn b1 in
        let v = List.hd blk.instrs in
        Ir.Fn.delete_instr fn v;
        Alcotest.(check bool) "gone" false (List.mem v (Ir.Fn.block fn b1).instrs);
        Alcotest.(check bool) "dead" false (Ir.Fn.instr_live fn v));
    test "replace_uses rewrites operands, phis and terminators" (fun () ->
        let fn, _, b1, _, b3, phi = make_diamond () in
        let one = List.hd (Ir.Fn.block fn b1).instrs in
        let fresh = Ir.Fn.append fn b1 (Const (Cint 42)) in
        Ir.Fn.replace_uses fn ~old_v:one ~new_v:fresh;
        (match Ir.Fn.kind fn phi with
        | Phi { inputs; _ } ->
            Alcotest.(check bool) "phi updated" true (List.mem_assoc b1 inputs);
            Alcotest.(check int) "phi value" fresh (List.assoc b1 inputs)
        | _ -> Alcotest.fail "not a phi");
        Ir.Fn.replace_uses fn ~old_v:phi ~new_v:fresh;
        match Ir.Fn.term fn b3 with
        | Return v -> Alcotest.(check int) "return updated" fresh v
        | _ -> Alcotest.fail "not a return");
    test "users lists follow every rewrite" (fun () ->
        let fn, _, b1, _, b3, phi = make_diamond () in
        let one = List.hd (Ir.Fn.block fn b1).instrs in
        Alcotest.(check (list int)) "phi reads one" [ phi ] (Ir.Fn.users fn one);
        Alcotest.(check (list int)) "b3 returns phi" [ b3 ] (Ir.Fn.term_users fn phi);
        let fresh = Ir.Fn.append fn b1 (Const (Cint 42)) in
        Ir.Fn.replace_uses fn ~old_v:one ~new_v:fresh;
        Alcotest.(check (list int)) "one unused" [] (Ir.Fn.users fn one);
        Alcotest.(check (list int)) "phi reads fresh" [ phi ] (Ir.Fn.users fn fresh);
        let neg = Ir.Fn.append fn b3 (Unop (Neg, phi)) in
        Ir.Fn.set_term fn b3 (Return neg);
        Alcotest.(check (list int)) "b3 returns neg" [ b3 ] (Ir.Fn.term_users fn neg);
        Alcotest.(check (list int)) "neg reads phi" [ neg ] (Ir.Fn.users fn phi);
        Alcotest.(check (list int)) "term no longer reads phi" [] (Ir.Fn.term_users fn phi);
        Ir.Fn.delete_instr fn one;
        Alcotest.(check int) "one unplaced" (-1) (Ir.Fn.block_of fn one);
        Alcotest.(check int) "neg in b3" b3 (Ir.Fn.block_of fn neg);
        check_verifies fn);
    test "insert_before places instruction before target" (fun () ->
        let fn, b0, _, _, _, _ = make_diamond () in
        let target = List.nth (Ir.Fn.block fn b0).instrs 1 in
        let v = Ir.Fn.insert_before fn ~before:target (Const (Cint 9)) in
        let instrs = (Ir.Fn.block fn b0).instrs in
        let rec idx x = function
          | [] -> -1
          | y :: _ when y = x -> 0
          | _ :: tl -> 1 + idx x tl
        in
        Alcotest.(check bool) "before" true (idx v instrs < idx target instrs));
    test "copy is deep for mutable kinds" (fun () ->
        let fn, _, _, _, _, phi = make_diamond () in
        let copy = Ir.Fn.copy fn in
        Ir.Fn.set_phi_inputs copy phi [];
        match Ir.Fn.kind fn phi with
        | Phi { inputs; _ } -> Alcotest.(check int) "original intact" 2 (List.length inputs)
        | _ -> Alcotest.fail "not a phi");
    test "calls lists call instructions in order" (fun () ->
        let fn = Ir.Fn.create ~fname:"c" ~param_tys:[||] ~rty:Tunit in
        let b0 = Ir.Fn.add_block fn in
        fn.entry <- b0;
        let c1 =
          Ir.Fn.append fn b0
            (Call { callee = Direct 0; args = []; site = { sm = 0; sidx = 0 }; rty = Tunit })
        in
        let c2 =
          Ir.Fn.append fn b0
            (Call { callee = Direct 1; args = []; site = { sm = 0; sidx = 1 }; rty = Tunit })
        in
        let u = Ir.Fn.append fn b0 (Const Cunit) in
        Ir.Fn.set_term fn b0 (Return u);
        Alcotest.(check (list int)) "calls" [ c1; c2 ]
          (List.map (fun (i : instr) -> i.id) (Ir.Fn.calls fn)));
  ]

let dom_tests =
  [
    test "entry dominates everything" (fun () ->
        let fn, b0, b1, b2, b3, _ = make_diamond () in
        let d = Ir.Dominators.compute fn in
        List.iter
          (fun b -> Alcotest.(check bool) "dom" true (Ir.Dominators.dominates d ~a:b0 ~b))
          [ b0; b1; b2; b3 ]);
    test "branches do not dominate the join" (fun () ->
        let fn, _, b1, b2, b3, _ = make_diamond () in
        let d = Ir.Dominators.compute fn in
        Alcotest.(check bool) "b1 !dom b3" false (Ir.Dominators.dominates d ~a:b1 ~b:b3);
        Alcotest.(check bool) "b2 !dom b3" false (Ir.Dominators.dominates d ~a:b2 ~b:b3));
    test "idom of join is the branch point" (fun () ->
        let fn, b0, _, _, b3, _ = make_diamond () in
        let d = Ir.Dominators.compute fn in
        Alcotest.(check (option int)) "idom" (Some b0) (Ir.Dominators.idom d b3));
    test "dominator children" (fun () ->
        let fn, b0, b1, b2, b3, _ = make_diamond () in
        let d = Ir.Dominators.compute fn in
        Alcotest.(check (list int)) "children of entry" [ b1; b2; b3 ]
          (Ir.Dominators.children d b0));
    test "loop header dominates body and exit" (fun () ->
        let fn, _, b1, b2, b3 = make_loop () in
        let d = Ir.Dominators.compute fn in
        Alcotest.(check bool) "body" true (Ir.Dominators.dominates d ~a:b1 ~b:b2);
        Alcotest.(check bool) "exit" true (Ir.Dominators.dominates d ~a:b1 ~b:b3));
  ]

let loop_tests =
  [
    test "natural loop discovered" (fun () ->
        let fn, _, b1, b2, _ = make_loop () in
        let loops = Ir.Loops.compute fn in
        Alcotest.(check int) "one loop" 1 (List.length loops.loops);
        let l = List.hd loops.loops in
        Alcotest.(check int) "header" b1 l.header;
        Alcotest.(check bool) "body in loop" true (Hashtbl.mem l.body b2));
    test "loop depth" (fun () ->
        let fn, b0, b1, b2, b3 = make_loop () in
        let loops = Ir.Loops.compute fn in
        Alcotest.(check int) "entry depth" 0 (Ir.Loops.depth loops b0);
        Alcotest.(check int) "header depth" 1 (Ir.Loops.depth loops b1);
        Alcotest.(check int) "body depth" 1 (Ir.Loops.depth loops b2);
        Alcotest.(check int) "exit depth" 0 (Ir.Loops.depth loops b3));
    test "diamond has no loops" (fun () ->
        let fn, _, _, _, _, _ = make_diamond () in
        Alcotest.(check int) "none" 0 (List.length (Ir.Loops.compute fn).loops));
    test "nested loops from source give depth 2" (fun () ->
        let prog =
          compile
            {|def f(n: Int): Int = {
                var acc = 0;
                var i = 0;
                while (i < n) {
                  var j = 0;
                  while (j < n) { acc = acc + 1; j = j + 1; }
                  i = i + 1;
                }
                acc
              }
              def main(): Unit = {}|}
        in
        let fn = body_of prog "f" in
        let loops = Ir.Loops.compute fn in
        let max_depth =
          Ir.Fn.fold_blocks (fun acc blk -> max acc (Ir.Loops.depth loops blk.b_id)) 0 fn
        in
        Alcotest.(check int) "two loops" 2 (List.length loops.loops);
        Alcotest.(check int) "max depth" 2 max_depth);
  ]

let freq_tests =
  [
    test "static: if branches get half the entry frequency" (fun () ->
        let fn, b0, b1, b2, b3, _ = make_diamond () in
        let f = Ir.Freq.static fn in
        Alcotest.(check (float 1e-9)) "entry" 1.0 (Hashtbl.find f b0);
        Alcotest.(check (float 1e-9)) "then" 0.5 (Hashtbl.find f b1);
        Alcotest.(check (float 1e-9)) "else" 0.5 (Hashtbl.find f b2);
        Alcotest.(check (float 1e-9)) "join" 1.0 (Hashtbl.find f b3));
    test "static: loop body amplified" (fun () ->
        let fn, _, b1, b2, _ = make_loop () in
        let f = Ir.Freq.static fn in
        Alcotest.(check bool) "header amplified" true (Hashtbl.find f b1 > 1.0);
        Alcotest.(check bool) "body amplified" true (Hashtbl.find f b2 > 1.0));
    test "profiled: uses counts relative to entry" (fun () ->
        let fn, b0, b1, b2, b3, _ = make_diamond () in
        let counts b =
          if b = b0 then 100.0
          else if b = b1 then 90.0
          else if b = b2 then 10.0
          else if b = b3 then 100.0
          else 0.0
        in
        let f = Ir.Freq.profiled fn ~counts in
        Alcotest.(check (float 1e-9)) "then" 0.9 (Hashtbl.find f b1);
        Alcotest.(check (float 1e-9)) "else" 0.1 (Hashtbl.find f b2));
    test "profiled falls back to static without entry count" (fun () ->
        let fn, _, b1, _, _, _ = make_diamond () in
        let f = Ir.Freq.profiled fn ~counts:(fun _ -> 0.0) in
        Alcotest.(check (float 1e-9)) "then static" 0.5 (Hashtbl.find f b1));
  ]

let verify_tests =
  [
    test "well-formed diamond passes" (fun () ->
        let fn, _, _, _, _, _ = make_diamond () in
        check_verifies fn);
    test "well-formed loop passes" (fun () ->
        let fn, _, _, _, _ = make_loop () in
        check_verifies fn);
    test "use before def in same block fails" (fun () ->
        let fn = Ir.Fn.create ~fname:"bad" ~param_tys:[||] ~rty:Tint in
        let b0 = Ir.Fn.add_block fn in
        fn.entry <- b0;
        let c = Ir.Fn.append fn b0 (Const (Cint 1)) in
        let add = Ir.Fn.append fn b0 (Binop (Add, c + 1, c)) in
        let _ = Ir.Fn.append fn b0 (Const (Cint 0)) in
        (* add references the NEXT instruction's id: use before def... build
           it explicitly: swap the order *)
        Ir.Fn.unplace fn c;
        Ir.Fn.unplace fn (c + 2);
        Ir.Fn.place fn b0 [ c; c + 2 ];
        Ir.Fn.set_term fn b0 (Return add);
        Alcotest.(check bool) "ill-formed" false (Ir.Verify.is_well_formed fn));
    test "branch to dead block fails" (fun () ->
        let fn, _, b1, _, _, _ = make_diamond () in
        Ir.Fn.set_term fn b1 (Goto 99);
        Alcotest.(check bool) "ill-formed" false (Ir.Verify.is_well_formed fn));
    test "phi edges must match predecessors" (fun () ->
        let fn, _, b1, _, _, phi = make_diamond () in
        (match Ir.Fn.kind fn phi with
        | Phi { inputs; _ } ->
            Ir.Fn.set_phi_inputs fn phi (List.filter (fun (pb, _) -> pb <> b1) inputs)
        | _ -> assert false);
        Alcotest.(check bool) "ill-formed" false (Ir.Verify.is_well_formed fn));
    test "definition must dominate use across blocks" (fun () ->
        let fn, _, b1, b2, _, _ = make_diamond () in
        let one = List.hd (Ir.Fn.block fn b1).instrs in
        (* use b1's value in b2, which b1 does not dominate *)
        let v = Ir.Fn.append fn b2 (Unop (Neg, one)) in
        ignore v;
        Alcotest.(check bool) "ill-formed" false (Ir.Verify.is_well_formed fn));
    test "phi after non-phi fails" (fun () ->
        let fn, _, _, _, b3, phi = make_diamond () in
        let c = Ir.Fn.fresh_instr fn (Const (Cint 0)) in
        Ir.Fn.unplace fn phi;
        Ir.Fn.place fn b3 [ c.id; phi ];
        Alcotest.(check bool) "ill-formed" false (Ir.Verify.is_well_formed fn));
    test "an operand written behind Fn's back fails" (fun () ->
        let fn, b0, b1, _, _, _ = make_diamond () in
        let p = List.hd (Ir.Fn.block fn b0).instrs in
        let one = List.hd (Ir.Fn.block fn b1).instrs in
        let neg = Ir.Fn.append fn b1 (Unop (Neg, one)) in
        check_verifies fn;
        (* still valid SSA ([p] dominates b1), but [one]'s users list now
           names an instruction that no longer reads it *)
        (Ir.Fn.instr fn neg).kind <- Unop (Neg, p);
        match Ir.Verify.check fn with
        | () -> Alcotest.fail "stale users list accepted"
        | exception Ir.Verify.Ill_formed msg ->
            Alcotest.(check bool) "names the users index" true
              (String.starts_with ~prefix:"users of" msg));
    test "unreachable blocks are ignored" (fun () ->
        let fn, _, _, _, _, _ = make_diamond () in
        let dead = Ir.Fn.add_block fn in
        (* garbage in an unreachable block is fine *)
        ignore (Ir.Fn.append fn dead (Binop (Add, 1000, 1001)));
        Alcotest.(check bool) "ok" true (Ir.Verify.is_well_formed fn));
  ]

let splice_tests =
  [
    test "inlining a simple callee preserves behaviour" (fun () ->
        let src =
          {|def add1(x: Int): Int = x + 1
            def f(a: Int): Int = add1(a) * 2
            def main(): Unit = println(f(20))|}
        in
        let prog = compile src in
        let f = body_of prog "f" in
        let callee = body_of prog "add1" in
        let call =
          match Ir.Fn.calls f with [ c ] -> c.id | _ -> Alcotest.fail "one call"
        in
        let _ = Ir.Splice.inline_call ~caller:f ~call_vid:call ~callee:(Ir.Fn.copy callee) in
        check_verifies f;
        Alcotest.(check int) "no calls left" 0 (count_calls f);
        (* run the mutated program: f's body was modified in place *)
        let vm = Runtime.Interp.create prog in
        ignore (Runtime.Interp.run_main vm);
        Alcotest.(check string) "out" "42\n" (Runtime.Interp.output vm));
    test "inlining a callee with control flow" (fun () ->
        let src =
          {|def pick(c: Bool): Int = if (c) { 10 } else { 20 }
            def f(): Int = pick(true) + pick(false)
            def main(): Unit = println(f())|}
        in
        let prog = compile src in
        let f = body_of prog "f" in
        let callee = body_of prog "pick" in
        List.iter
          (fun (c : instr) ->
            ignore (Ir.Splice.inline_call ~caller:f ~call_vid:c.id ~callee:(Ir.Fn.copy callee)))
          (Ir.Fn.calls f);
        check_verifies f;
        let vm = Runtime.Interp.create prog in
        ignore (Runtime.Interp.run_main vm);
        Alcotest.(check string) "out" "30\n" (Runtime.Interp.output vm));
    test "inlining a callee with a loop" (fun () ->
        let src =
          {|def sum(n: Int): Int = { var i = 0; var s = 0; while (i < n) { s = s + i; i = i + 1 }; s }
            def f(): Int = sum(10)
            def main(): Unit = println(f())|}
        in
        let prog = compile src in
        let f = body_of prog "f" in
        let callee = body_of prog "sum" in
        let call = (List.hd (Ir.Fn.calls f)).id in
        let _ = Ir.Splice.inline_call ~caller:f ~call_vid:call ~callee:(Ir.Fn.copy callee) in
        check_verifies f;
        let vm = Runtime.Interp.create prog in
        ignore (Runtime.Interp.run_main vm);
        Alcotest.(check string) "out" "45\n" (Runtime.Interp.output vm));
    test "remap exposes callee callsites" (fun () ->
        let src =
          {|def g(): Int = 1
            def mid(): Int = g() + g()
            def f(): Int = mid()
            def main(): Unit = println(f())|}
        in
        let prog = compile src in
        let f = body_of prog "f" in
        let callee = body_of prog "mid" in
        let callee_copy = Ir.Fn.copy callee in
        let inner_calls = List.map (fun (i : instr) -> i.id) (Ir.Fn.calls callee_copy) in
        let call = (List.hd (Ir.Fn.calls f)).id in
        let remap = Ir.Splice.inline_call ~caller:f ~call_vid:call ~callee:callee_copy in
        List.iter
          (fun v ->
            match Hashtbl.find_opt remap.vmap v with
            | Some v' ->
                Alcotest.(check bool) "mapped call live" true (Ir.Fn.instr_live f v');
                Alcotest.(check bool) "is call" true (Ir.Instr.is_call (Ir.Fn.kind f v'))
            | None -> Alcotest.fail "inner call not mapped")
          inner_calls;
        Alcotest.(check int) "two calls now" 2 (count_calls f));
    test "call as the last instruction before the terminator" (fun () ->
        let src =
          {|def g(): Int = 7
            def f(): Int = g()
            def main(): Unit = println(f())|}
        in
        let prog = compile src in
        let f = body_of prog "f" in
        let callee = body_of prog "g" in
        let call = (List.hd (Ir.Fn.calls f)).id in
        ignore (Ir.Splice.inline_call ~caller:f ~call_vid:call ~callee:(Ir.Fn.copy callee));
        check_verifies f;
        let vm = Runtime.Interp.create prog in
        ignore (Runtime.Interp.run_main vm);
        Alcotest.(check string) "out" "7\n" (Runtime.Interp.output vm));
    test "unused call result still splices" (fun () ->
        let src =
          {|def g(): Int = { println(9); 1 }
            def f(): Int = { g(); 5 }
            def main(): Unit = println(f())|}
        in
        let prog = compile src in
        let f = body_of prog "f" in
        let callee = body_of prog "g" in
        let call = (List.hd (Ir.Fn.calls f)).id in
        ignore (Ir.Splice.inline_call ~caller:f ~call_vid:call ~callee:(Ir.Fn.copy callee));
        check_verifies f;
        let vm = Runtime.Interp.create prog in
        ignore (Runtime.Interp.run_main vm);
        Alcotest.(check string) "out" "9\n5\n" (Runtime.Interp.output vm));
    test "callee with multiple returns joins through a phi" (fun () ->
        let src =
          {|def pick(c: Bool): Int = if (c) { 11 } else { 22 }
            def f(c: Bool): Int = pick(c)
            def main(): Unit = println(f(true) + f(false))|}
        in
        let prog = compile src in
        Opt.Driver.prepare_program prog;
        let f = body_of prog "f" in
        let callee = body_of prog "pick" in
        let call = (List.hd (Ir.Fn.calls f)).id in
        ignore (Ir.Splice.inline_call ~caller:f ~call_vid:call ~callee:(Ir.Fn.copy callee));
        check_verifies f;
        (* the old call id must now be a phi *)
        Alcotest.(check bool) "phi at join" true
          (Ir.Instr.is_phi (Ir.Fn.kind f call));
        let vm = Runtime.Interp.create prog in
        ignore (Runtime.Interp.run_main vm);
        Alcotest.(check string) "out" "33\n" (Runtime.Interp.output vm));
    test "splicing into a loop body keeps loop phis valid" (fun () ->
        let src =
          {|def inc(x: Int): Int = x + 1
            def f(n: Int): Int = { var i = 0; while (i < n) { i = inc(i) }; i }
            def main(): Unit = println(f(9))|}
        in
        let prog = compile src in
        let f = body_of prog "f" in
        let callee = body_of prog "inc" in
        let call = (List.hd (Ir.Fn.calls f)).id in
        ignore (Ir.Splice.inline_call ~caller:f ~call_vid:call ~callee:(Ir.Fn.copy callee));
        check_verifies f;
        let vm = Runtime.Interp.create prog in
        ignore (Runtime.Interp.run_main vm);
        Alcotest.(check string) "out" "9\n" (Runtime.Interp.output vm));
    test "arity mismatch rejected" (fun () ->
        let src =
          {|def g(x: Int): Int = x
            def f(): Int = g(1)
            def main(): Unit = {}|}
        in
        let prog = compile src in
        let f = body_of prog "f" in
        let bad_callee = Ir.Fn.create ~fname:"bad" ~param_tys:[| Tunit; Tint; Tint; Tint |] ~rty:Tint in
        let b = Ir.Fn.add_block bad_callee in
        bad_callee.entry <- b;
        let p = Ir.Fn.append bad_callee b (Param 3) in
        Ir.Fn.set_term bad_callee b (Return p);
        let call = (List.hd (Ir.Fn.calls f)).id in
        Alcotest.check_raises "arity"
          (Invalid_argument "Splice.inline_call: arity mismatch")
          (fun () -> ignore (Ir.Splice.inline_call ~caller:f ~call_vid:call ~callee:bad_callee)));
  ]

(* print -> parse -> print must be the identity on live content *)
let roundtrip_ok (fn : fn) =
  let text = Ir.Printer.fn_to_string fn in
  let reparsed =
    try Ir.Parse.parse_fn text
    with Ir.Parse.Ir_parse_error msg ->
      Alcotest.failf "parse error: %s\nin:\n%s" msg text
  in
  let text2 = Ir.Printer.fn_to_string reparsed in
  Alcotest.(check string) "round trip" text text2;
  check_verifies reparsed

let parse_tests =
  [
    test "diamond round-trips" (fun () ->
        let fn, _, _, _, _, _ = make_diamond () in
        roundtrip_ok fn);
    test "loop round-trips" (fun () ->
        let fn, _, _, _, _ = make_loop () in
        roundtrip_ok fn);
    test "every prepared workload method round-trips" (fun () ->
        List.iter
          (fun (w : Workloads.Defs.t) ->
            let prog = Workloads.Registry.compile w in
            Opt.Driver.prepare_program prog;
            Ir.Program.iter_meths
              (fun (m : Ir.Types.meth) ->
                match m.body with
                | Some fn -> (
                    let text = Ir.Printer.fn_to_string fn in
                    match Ir.Parse.parse_fn text with
                    | reparsed ->
                        Alcotest.(check string)
                          (w.name ^ "/" ^ m.m_name)
                          text
                          (Ir.Printer.fn_to_string reparsed)
                    | exception Ir.Parse.Ir_parse_error msg ->
                        Alcotest.failf "%s/%s: %s\n%s" w.name m.m_name msg text)
                | None -> ())
              prog)
          [ Option.get (Workloads.Registry.find "foreach-poly");
            Option.get (Workloads.Registry.find "luindex-text");
            Option.get (Workloads.Registry.find "stm-bench") ]);
    test "compiled (inlined, typeswitched) code round-trips" (fun () ->
        let w = Option.get (Workloads.Registry.find "factorie-gm") in
        let prog = Workloads.Registry.compile w in
        Opt.Driver.prepare_program prog;
        let vm = Runtime.Interp.create prog in
        ignore (Runtime.Interp.run_main vm);
        let m = Option.get (Ir.Program.find_meth prog "bench") in
        let result =
          Inliner.Algorithm.compile prog vm.profiles Inliner.Params.default m
        in
        roundtrip_ok result.body);
    test "parse errors carry a message" (fun () ->
        List.iter
          (fun bad ->
            match Ir.Parse.parse_fn bad with
            | _ -> Alcotest.failf "accepted %S" bad
            | exception Ir.Parse.Ir_parse_error _ -> ())
          [
            "";
            "fn f() : Int entry=b0\nb0:\n  v0 = nonsense\n  return v0";
            "fn f() : Int entry=b0\nb0:\n  v0 = const 1";
            "fn f() : Wat entry=b0\nb0:\n  unreachable";
            "fn f() : Int entry=b0\nb0:\n  v0 = const 1\n  return v0\ngarbage";
          ]);
    test "parsed fn is executable" (fun () ->
        let text =
          "fn f(Unit, Int) : Int  entry=b0\n\
           b0:\n\
          \  v0 = param 0\n\
          \  v1 = param 1\n\
          \  v2 = const 2\n\
          \  v3 = mul v1, v2\n\
          \  return v3\n"
        in
        let fn = Ir.Parse.parse_fn text in
        check_verifies fn;
        let prog = compile "def main(): Unit = {}" in
        let vm = Runtime.Interp.create prog in
        let v =
          Runtime.Interp.exec vm ~mode:Runtime.Interp.Compiled ~meth:0 fn
            [| Runtime.Values.Vunit; Runtime.Values.Vint 21 |]
        in
        Alcotest.(check int) "f(21)" 42 (Runtime.Values.as_int v));
  ]

(* ---------- class hierarchy ---------- *)

(* The hierarchy queries by a fresh walk over the class table, with no
   memo: the concrete classes at or below [c] in preorder, children in id
   order, and dispatch up the parent chain. *)
let walk_concrete (prog : program) (c : class_id) : class_id list =
  let children c =
    let acc = ref [] in
    Ir.Program.iter_classes (fun k -> if k.parent = Some c then acc := k.c_id :: !acc) prog;
    List.rev !acc
  in
  let rec go c =
    let below = List.concat_map go (children c) in
    if (Ir.Program.cls prog c).is_abstract then below else c :: below
  in
  go c

let rec walk_resolve (prog : program) (c : class_id) (sel : string) : meth_id option =
  let k = Ir.Program.cls prog c in
  match List.assoc_opt sel k.vtable with
  | Some m -> Some m
  | None -> Option.bind k.parent (fun p -> walk_resolve prog p sel)

(* Every class's memoized answers against the walk. Asking also fills the
   memos, so the next edit must clear them. *)
let check_hierarchy (what : string) (prog : program) : unit =
  for c = 0 to Ir.Program.num_classes prog - 1 do
    let at = Printf.sprintf "%s: class %d" what c in
    let walk = walk_concrete prog c in
    Alcotest.(check (list int)) (at ^ " concrete subtypes") walk
      (Ir.Program.concrete_subtypes prog c);
    Alcotest.(check (option int)) (at ^ " unique concrete subtype")
      (match walk with [ only ] -> Some only | _ -> None)
      (Ir.Program.unique_concrete_subtype prog c);
    Alcotest.(check (option int)) (at ^ " resolves m") (walk_resolve prog c "m")
      (Ir.Program.resolve prog c "m")
  done

let hierarchy_tests =
  [
    test "class-hierarchy answers follow class-table edits" (fun () ->
        let prog = Ir.Program.create () in
        let add ?parent ~abstract name =
          let c = Ir.Program.add_class prog ~name ~parent ~abstract ~own_fields:[] in
          check_hierarchy ("after adding " ^ name) prog;
          c
        in
        let shape = add ~abstract:true "Shape" in
        let m =
          Ir.Program.add_meth prog ~name:"Shape.m" ~selector:"m" ~owner:(Some shape)
            ~param_tys:[| Tobj shape |] ~rty:Tint
        in
        Ir.Program.register_in_vtable prog m;
        let square = add ~parent:shape ~abstract:false "Square" in
        let _circle = add ~parent:shape ~abstract:false "Circle" in
        let fn_base = add ~abstract:true "Fn" in
        let lambda = add ~abstract:false "Lambda" in
        (* the frontend's lambda re-parenting: a unique implementation
           appears below [fn_base] *)
        Ir.Program.set_parent prog lambda ~parent:(Some fn_base);
        check_hierarchy "after re-parenting Lambda" prog;
        Alcotest.(check (option int)) "Lambda is Fn's one implementation" (Some lambda)
          (Ir.Program.unique_concrete_subtype prog fn_base);
        (* moving a class out of a hierarchy leaves Shape one implementation
           and takes Square's inherited method away *)
        Ir.Program.set_parent prog square ~parent:(Some fn_base);
        check_hierarchy "after re-parenting Square" prog;
        Alcotest.(check (option int)) "Square no longer resolves m" None
          (Ir.Program.resolve prog square "m");
        ignore (add ~parent:square ~abstract:true "Abstract square");
        ignore (add ~parent:square ~abstract:false "Big square"));
    (* the threaded tier asks at every type test a compiled typeswitch
       runs, so a question must not allocate *)
    test "is_subclass allocates nothing" (fun () ->
        let prog = Ir.Program.create () in
        let add ~parent name =
          Ir.Program.add_class prog ~name ~parent ~abstract:false ~own_fields:[]
        in
        let a = add ~parent:None "A" in
        let b = add ~parent:(Some a) "B" in
        let c = add ~parent:(Some b) "C" in
        let other = add ~parent:None "Other" in
        let hits = ref 0 in
        let before = Gc.minor_words () in
        for i = 1 to 10_000 do
          let sup = if i land 1 = 0 then a else other in
          if Ir.Program.is_subclass prog ~sub:c ~sup then incr hits
        done;
        let words = Gc.minor_words () -. before in
        Alcotest.(check int) "C is below A, not below Other" 5_000 !hits;
        if words >= 100. then
          Alcotest.failf "10,000 is_subclass calls allocated %.0f words" words);
  ]

let () =
  Alcotest.run "ir"
    [
      ("fn", fn_tests);
      ("dominators", dom_tests);
      ("loops", loop_tests);
      ("freq", freq_tests);
      ("verify", verify_tests);
      ("splice", splice_tests);
      ("parse", parse_tests);
      ("hierarchy", hierarchy_tests);
    ]
