(* Property-based tests (qcheck): random Sel programs from [Sel_gen] are
   checked for the system's central invariants:

   - lowering always produces verifier-clean SSA;
   - the optimizer preserves program output and result;
   - canonicalization is idempotent;
   - the incremental inliner (and both baselines) preserve behaviour on
     profiled programs;
   - algebraic laws of the analysis tuple algebra. *)

open QCheck

(* ---------- random programs ---------- *)

let interp_output (prog : Ir.Types.program) : string =
  let vm = Runtime.Interp.create prog in
  ignore (Runtime.Interp.run_main vm);
  Runtime.Interp.output vm

let prop_lowering_verifies =
  Test.make ~name:"lowering produces verifier-clean SSA" ~count:60 Sel_gen.program
    (fun src ->
      let prog = Util.compile src in
      match Ir.Verify.check_program prog with
      | Ok () -> true
      | Error e -> Test.fail_reportf "verifier: %s" e)

let prop_optimizer_preserves =
  Test.make ~name:"optimizer preserves output" ~count:60 Sel_gen.program (fun src ->
      let prog1 = Util.compile src in
      let before = interp_output prog1 in
      let prog2 = Util.compile src in
      Opt.Driver.prepare_program prog2;
      (match Ir.Verify.check_program prog2 with
      | Ok () -> ()
      | Error e -> Test.fail_reportf "verifier after opt: %s" e);
      let after = interp_output prog2 in
      if before <> after then
        Test.fail_reportf "output changed:@.before: %s@.after: %s" before after
      else true)

let prop_canonicalize_idempotent =
  Test.make ~name:"canonicalization is idempotent" ~count:40 Sel_gen.program
    (fun src ->
      let prog = Util.compile src in
      Opt.Driver.prepare_program prog;
      let leftovers = ref 0 in
      Ir.Program.iter_meths
        (fun (m : Ir.Types.meth) ->
          match m.body with
          | Some fn ->
              let stats = Opt.Driver.simplify prog fn in
              leftovers := !leftovers + Opt.Driver.simple_opt_count stats
          | None -> ())
        prog;
      if !leftovers > 0 then
        Test.fail_reportf "second simplify still fired %d events" !leftovers
      else true)

(* [src] compiled and prepared, with profiles from one run of main. *)
let profiled (src : string) : Ir.Types.program * Runtime.Interp.vm =
  let prog = Util.compile src in
  Opt.Driver.prepare_program prog;
  let vm = Runtime.Interp.create prog in
  ignore (Runtime.Interp.run_main vm);
  (prog, vm)

let differential_with (compiler : Jit.Engine.compiler) (src : string) : bool =
  let prog, vm = profiled src in
  let reference = Runtime.Interp.output vm in
  let cache = Hashtbl.create 8 in
  Ir.Program.iter_meths
    (fun (m : Ir.Types.meth) ->
      if m.body <> None && Runtime.Profile.invocation_count vm.profiles m.m_id >= 2 then begin
        let body = compiler prog vm.profiles m.m_id in
        (match Ir.Verify.check body with
        | () -> ()
        | exception Ir.Verify.Ill_formed msg ->
            Test.fail_reportf "compiled %s ill-formed: %s" m.m_name msg);
        Hashtbl.replace cache m.m_id body
      end)
    prog;
  let vm2 = Runtime.Interp.create prog in
  Hashtbl.iter (fun m body -> Runtime.Interp.set_installed vm2 m (Some body)) cache;
  ignore (Runtime.Interp.run_main vm2);
  let got = Runtime.Interp.output vm2 in
  if got <> reference then
    Test.fail_reportf "compiled output differs:@.expected: %s@.got: %s" reference got
  else true

let prop_incremental_differential =
  Test.make ~name:"incremental inliner preserves behaviour" ~count:40 Sel_gen.program
    (differential_with (Util.incremental ()))

let prop_incremental_1by1_differential =
  Test.make ~name:"1-by-1 ablation preserves behaviour" ~count:20 Sel_gen.program
    (differential_with
       (Util.incremental
          ~params:(Inliner.Params.without_clustering Inliner.Params.default)
          ()))

let prop_greedy_differential =
  Test.make ~name:"greedy baseline preserves behaviour" ~count:30 Sel_gen.program
    (differential_with Util.greedy)

let prop_c2_differential =
  Test.make ~name:"c2-like baseline preserves behaviour" ~count:30 Sel_gen.program
    (differential_with Util.c2like)

let prop_inliner_deterministic =
  Test.make ~name:"the inliner is deterministic" ~count:25 Sel_gen.program (fun src ->
      let prog, vm = profiled src in
      let m = Option.get (Ir.Program.find_meth prog "f") in
      let once () =
        Ir.Printer.fn_to_string
          (Inliner.Algorithm.compile prog vm.profiles Inliner.Params.default m)
            .Inliner.Algorithm.body
      in
      let a = once () and b = once () in
      if a <> b then Test.fail_reportf "two compilations differ:@.%s@.vs@.%s" a b
      else true)

(* ---------- generator coverage ---------- *)

(* What one program reaches: fused sites on a default threaded VM after
   main; whether the incremental inliner, on profiles from
   one main run of the prepared program, inlines [poly] or a [g] into [f]
   (read from its decision trace); and whether compiled [f] keeps a
   typeswitch. *)
let reach (src : string) : int * bool * bool =
  let vm = Runtime.Interp.create ~backend:Runtime.Interp.Threaded (Util.compile src) in
  ignore (Runtime.Interp.run_main vm);
  let fused =
    List.fold_left
      (fun n (s : Runtime.Interp.sstat) -> n + s.ss_sites)
      0 (Runtime.Interp.superinst_stats vm)
  in
  let prog, vm = profiled src in
  let f = Option.get (Ir.Program.find_meth prog "f") in
  let sink, read = Obs.Trace.memory_sink () in
  let body =
    Obs.Trace.scoped sink (fun () ->
        (Inliner.Algorithm.compile prog vm.profiles Inliner.Params.default f).body)
  in
  let has needle line = Util.contains_substring ~needle line in
  let inlined =
    List.exists
      (fun line ->
        has {|"verdict": "inline"|} line
        && (has {|"target": "poly"|} line || has {|"target": "g|} line))
      (read ())
  in
  let typeswitches =
    Util.count_instrs body (function Ir.Types.TypeTest _ -> true | _ -> false)
  in
  (fused, inlined, typeswitches > 0)

(* Narrowing the generator must fail a test. Over 300 programs from this
   seed it measured 28.7 fused sites per program, [poly] or a [g] inlined
   into [f] in 88% and a typeswitch in compiled [f] in 50%; the floors are
   half of that, over the first 100. *)
let test_generator_coverage () =
  let programs =
    Gen.generate ~rand:(Random.State.make [| 42 |]) ~n:100 (gen Sel_gen.program)
  in
  let reached = List.map reach programs in
  let per_program count =
    float_of_int (List.fold_left (fun n r -> n + count r) 0 reached) /. 100.
  in
  let at_least what floor value =
    if value < floor then Alcotest.failf "%s: %.2f, below the floor %.2f" what value floor
  in
  at_least "fused sites per program" 14.34 (per_program (fun (n, _, _) -> n));
  at_least "share inlining poly or a g into f" 0.44
    (per_program (fun (_, i, _) -> Bool.to_int i));
  at_least "share with a typeswitch in compiled f" 0.25
    (per_program (fun (_, _, t) -> Bool.to_int t))

(* ---------- random IR-level CFGs (see [Ir_gen]) ---------- *)

let ir_fn_arbitrary = Ir_gen.arbitrary

(* executes with fixed arguments, classifying the outcome; the VM is
   returned for its step and cycle counts *)
let exec_ir_fn ?backend (fn : Ir.Types.fn) : Runtime.Interp.vm * string =
  let prog = Util.compile "def main(): Unit = {}" in
  let vm = Runtime.Interp.create ?backend ~max_steps:20_000 prog in
  ( vm,
    match
      Util.exec_compiled vm fn [ Runtime.Values.Vint 13; Runtime.Values.Vint (-7) ]
    with
    | Runtime.Values.Vint n -> Printf.sprintf "int:%d" n
    | v -> Printf.sprintf "other:%s" (Runtime.Values.to_string v)
    | exception Runtime.Values.Trap msg ->
        if Util.contains_substring ~needle:"step budget" msg then "diverges"
        else "trap:" ^ msg )

let run_ir_fn (fn : Ir.Types.fn) : string = snd (exec_ir_fn fn)

(* The threaded tier's frames share a slot between values that are never
   live at once, while the reference walker keeps every value by vid.
   Random CFGs bring the shapes the frontend never emits: irreducible
   loops, and loops back into the entry block, which re-enter its
   [Param]s. *)
let prop_threaded_random_cfg =
  Test.make ~name:"threaded = reference on random CFGs" ~count:300 ir_fn_arbitrary
    (fun fn ->
      let rvm, r = exec_ir_fn ~backend:Runtime.Interp.Reference fn in
      let tvm, t = exec_ir_fn ~backend:Runtime.Interp.Threaded fn in
      if (r, rvm.steps, rvm.cycles) <> (t, tvm.steps, tvm.cycles) then
        Test.fail_reportf "reference %s after %d steps, %d cycles; threaded %s after %d, %d"
          r rvm.steps rvm.cycles t tvm.steps tvm.cycles;
      true)

let prop_ir_generator_valid =
  Test.make ~name:"random CFGs verify" ~count:120 ir_fn_arbitrary (fun fn ->
      match Ir.Verify.check fn with
      | () -> true
      | exception Ir.Verify.Ill_formed msg -> Test.fail_reportf "ill-formed: %s" msg)

let preserves_outcome name transform =
  Test.make ~name ~count:80 ir_fn_arbitrary (fun fn ->
      let before = run_ir_fn fn in
      let copy = Ir.Fn.copy fn in
      transform copy;
      (match Ir.Verify.check copy with
      | () -> ()
      | exception Ir.Verify.Ill_formed msg ->
          Test.fail_reportf "ill-formed after %s: %s" name msg);
      let after = run_ir_fn copy in
      if before <> after then
        Test.fail_reportf "outcome changed: %s -> %s@.%s" before after
          (Ir.Printer.fn_to_string fn)
      else true)

let prop_simplify_random_cfg =
  let prog = lazy (Util.compile "def main(): Unit = {}") in
  preserves_outcome "Driver.simplify preserves outcomes on random CFGs" (fun fn ->
      ignore (Opt.Driver.simplify (Lazy.force prog) fn))

let prop_cleanup_random_cfg =
  preserves_outcome "Simplify.cleanup preserves outcomes on random CFGs" (fun fn ->
      ignore (Opt.Simplify.cleanup fn))

let prop_gvn_random_cfg =
  preserves_outcome "GVN preserves outcomes on random CFGs" (fun fn ->
      ignore (Opt.Gvn.run fn))

let prop_dce_random_cfg =
  preserves_outcome "DCE preserves outcomes on random CFGs" (fun fn ->
      ignore (Opt.Dce.run fn))

let prop_licm_random_cfg =
  preserves_outcome "LICM preserves outcomes on random CFGs" (fun fn ->
      ignore (Opt.Licm.run fn))

(* Bare CFGs for the dominator tree: random terminators only, with
   self-loops, irreducible shapes and unreachable blocks, some of them
   deleted ([Ir_gen] deletes them all). *)
let gen_cfg : Ir.Types.fn Gen.t =
  let open Gen in
  let open Ir.Types in
  let* nblocks = int_range 1 10 in
  let* seed = int_range 0 1_000_000 in
  return
    (let rng = Support.Rng.create seed in
     let fn = Ir.Fn.create ~fname:"cfg" ~param_tys:[||] ~rty:Tint in
     let blocks = Array.init nblocks (fun _ -> Ir.Fn.add_block fn) in
     fn.entry <- blocks.(0);
     Array.iteri
       (fun i b ->
         let target () = blocks.(Support.Rng.int rng nblocks) in
         Ir.Fn.set_term fn b
           (match Support.Rng.int rng 5 with
           | 0 -> Return (-1)
           | 1 -> Goto b
           | 2 -> Goto (target ())
           | _ -> If { cond = -1; site = { sm = 0; sidx = i }; tb = target (); fb = target () }))
       blocks;
     let reachable = Ir.Fn.reachable fn in
     Array.iter
       (fun b ->
         if (not (reachable b)) && Support.Rng.bool rng then Ir.Fn.delete_block fn b)
       blocks;
     fn)

(* [idom], [dominates] and [children] against brute force: among reachable
   blocks, a dominates b iff b is unreachable from the entry once a is
   removed; an unreachable or deleted block has no idom, no children, and
   is dominated only by itself. Block ids at or past the block count (which
   a pass creates when it adds blocks after computing dominators) are
   unknown to the tree. *)
let prop_dominators_brute_force =
  Test.make ~name:"dominators agree with brute force" ~count:300
    (QCheck.make ~print:Ir.Printer.fn_to_string gen_cfg)
    (fun fn ->
      let doms = Ir.Dominators.compute fn in
      let n = Support.Vec.length fn.blocks in
      let ids = List.init n Fun.id in
      let reach ~avoid =
        let seen = Array.make n false in
        let rec go b =
          if b <> avoid && not seen.(b) then begin
            seen.(b) <- true;
            List.iter go (Ir.Fn.succs fn b)
          end
        in
        go fn.entry;
        seen
      in
      let reachable = reach ~avoid:(-1) in
      let dom =
        Array.init n (fun a ->
            let without_a = reach ~avoid:a in
            Array.init n (fun b -> a = b || (reachable.(b) && not without_a.(b))))
      in
      let idom b =
        if not reachable.(b) then None
        else if b = fn.entry then Some b
        else
          (* the strict dominator every other strict dominator dominates *)
          List.find_opt
            (fun d ->
              d <> b
              && dom.(d).(b)
              && List.for_all (fun e -> e = b || (not dom.(e).(b)) || dom.(e).(d)) ids)
            ids
      in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              let fast = Ir.Dominators.dominates doms ~a ~b in
              if fast <> dom.(a).(b) then
                Test.fail_reportf "dominates %d %d: brute=%b fast=%b" a b dom.(a).(b) fast)
            ids)
        ids;
      List.iter
        (fun b ->
          if Ir.Dominators.idom doms b <> idom b then Test.fail_reportf "idom of b%d" b;
          let kids = List.filter (fun c -> c <> b && idom c = Some b) ids in
          if Ir.Dominators.children doms b <> kids then Test.fail_reportf "children of b%d" b)
        ids;
      List.iter
        (fun o ->
          if Ir.Dominators.idom doms o <> None then Test.fail_reportf "idom of new b%d" o;
          if Ir.Dominators.children doms o <> [] then Test.fail_reportf "children of new b%d" o;
          List.iter
            (fun x ->
              if Ir.Dominators.dominates doms ~a:o ~b:x || Ir.Dominators.dominates doms ~a:x ~b:o
              then Test.fail_reportf "new b%d related to b%d" o x)
            ids)
        [ n; n + 1 ];
      true)

(* tuple algebra laws *)
let tuple_gen =
  Gen.(pair (float_range (-50.0) 50.0) (float_range 1.0 100.0))

let prop_merge_commutative =
  Test.make ~name:"tuple merge is commutative" ~count:200
    (QCheck.make Gen.(pair tuple_gen tuple_gen))
    (fun (t1, t2) -> Inliner.Analysis.merge t1 t2 = Inliner.Analysis.merge t2 t1)

let prop_merge_associative =
  Test.make ~name:"tuple merge is associative (ratio-equal)" ~count:200
    (QCheck.make Gen.(triple tuple_gen tuple_gen tuple_gen))
    (fun (t1, t2, t3) ->
      let a = Inliner.Analysis.merge (Inliner.Analysis.merge t1 t2) t3 in
      let b = Inliner.Analysis.merge t1 (Inliner.Analysis.merge t2 t3) in
      abs_float (Inliner.Analysis.ratio a -. Inliner.Analysis.ratio b) < 1e-9)

let prop_ratio_bounds =
  Test.make ~name:"merged ratio lies between the operands' ratios" ~count:200
    (QCheck.make Gen.(pair tuple_gen tuple_gen))
    (fun (t1, t2) ->
      let r1 = Inliner.Analysis.ratio t1 and r2 = Inliner.Analysis.ratio t2 in
      let rm = Inliner.Analysis.ratio (Inliner.Analysis.merge t1 t2) in
      rm >= min r1 r2 -. 1e-9 && rm <= max r1 r2 +. 1e-9)

let () =
  Alcotest.run "properties"
    [
      ( "programs",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_lowering_verifies;
            prop_optimizer_preserves;
            prop_canonicalize_idempotent;
            prop_incremental_differential;
            prop_incremental_1by1_differential;
            prop_greedy_differential;
            prop_c2_differential;
            prop_inliner_deterministic;
          ]
        @ [ Util.test "the generator reaches fusion, inlining and typeswitches"
              test_generator_coverage ] );
      ( "random-cfg",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_ir_generator_valid;
            prop_simplify_random_cfg;
            prop_cleanup_random_cfg;
            prop_gvn_random_cfg;
            prop_dce_random_cfg;
            prop_licm_random_cfg;
            prop_threaded_random_cfg;
            prop_dominators_brute_force;
          ] );
      ( "tuple-algebra",
        List.map QCheck_alcotest.to_alcotest
          [ prop_merge_commutative; prop_merge_associative; prop_ratio_bounds ] );
    ]
