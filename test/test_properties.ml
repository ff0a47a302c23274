(* Property-based tests (qcheck): random Sel programs are generated as
   source text, then checked for the system's central invariants:

   - lowering always produces verifier-clean SSA;
   - the optimizer preserves program output and result;
   - canonicalization is idempotent;
   - the incremental inliner (and both baselines) preserve behaviour on
     profiled programs;
   - algebraic laws of the analysis tuple algebra.

   Programs are deterministic by construction: loops have constant bounds,
   divisors are non-zero literals, and all randomness comes from the
   generator's seed. *)

open QCheck

(* ---------- random program generation ---------- *)

(* Integer expressions over variables [vars] (ints, box fields [c.v] and
   safe array reads are all pre-rendered into [vars]) plus calls to helper
   functions [funs] (name, arity) and a fixed polymorphic helper. *)
let rec gen_int_expr ~vars ~funs ~depth : string Gen.t =
  let open Gen in
  let leaf =
    oneof
      [
        map string_of_int (int_range 0 9);
        (if vars = [] then return "7" else oneofl vars);
      ]
  in
  if depth = 0 then leaf
  else
    frequency
      [
        (2, leaf);
        ( 3,
          let* op = oneofl [ "+"; "-"; "*" ] in
          let* a = gen_int_expr ~vars ~funs ~depth:(depth - 1) in
          let* b = gen_int_expr ~vars ~funs ~depth:(depth - 1) in
          return (Printf.sprintf "(%s %s %s)" a op b) );
        ( 1,
          let* a = gen_int_expr ~vars ~funs ~depth:(depth - 1) in
          let* d = oneofl [ "2"; "3"; "5" ] in
          return (Printf.sprintf "(%s / %s)" a d) );
        ( 1,
          let* a = gen_int_expr ~vars ~funs ~depth:(depth - 1) in
          let* d = oneofl [ "3"; "7" ] in
          return (Printf.sprintf "(%s %% %s)" a d) );
        ( 1,
          let* c = gen_bool_expr ~vars ~funs ~depth:(depth - 1) in
          let* a = gen_int_expr ~vars ~funs ~depth:(depth - 1) in
          let* b = gen_int_expr ~vars ~funs ~depth:(depth - 1) in
          return (Printf.sprintf "(if (%s) { %s } else { %s })" c a b) );
        ( 2,
          if funs = [] then leaf
          else
            let* fname, arity = oneofl funs in
            let* args =
              list_repeat arity (gen_int_expr ~vars ~funs:[] ~depth:(depth - 1))
            in
            return (Printf.sprintf "%s(%s)" fname (String.concat ", " args)) );
        ( 1,
          (* polymorphic dispatch through the fixed prelude *)
          let* i = gen_int_expr ~vars ~funs:[] ~depth:0 in
          let* x = gen_int_expr ~vars ~funs:[] ~depth:(depth - 1) in
          return (Printf.sprintf "poly(%s, %s)" i x) );
      ]

and gen_bool_expr ~vars ~funs ~depth : string Gen.t =
  let open Gen in
  if depth = 0 then
    let* a = gen_int_expr ~vars ~funs ~depth:0 in
    let* op = oneofl [ "<"; "<="; ">"; ">="; "=="; "!=" ] in
    let* b = gen_int_expr ~vars ~funs ~depth:0 in
    return (Printf.sprintf "(%s %s %s)" a op b)
  else
    frequency
      [
        ( 3,
          let* a = gen_int_expr ~vars ~funs ~depth:(depth - 1) in
          let* op = oneofl [ "<"; "<="; ">"; "=="; "!=" ] in
          let* b = gen_int_expr ~vars ~funs ~depth:(depth - 1) in
          return (Printf.sprintf "(%s %s %s)" a op b) );
        ( 1,
          let* a = gen_bool_expr ~vars ~funs ~depth:(depth - 1) in
          let* op = oneofl [ "&&"; "||" ] in
          let* b = gen_bool_expr ~vars ~funs ~depth:(depth - 1) in
          return (Printf.sprintf "(%s %s %s)" a op b) );
        ( 1,
          let* a = gen_bool_expr ~vars ~funs ~depth:(depth - 1) in
          return (Printf.sprintf "(!%s)" a) );
      ]

(* A statement block mutating [acc], locals, heap boxes and arrays. Loops
   use fresh counters with constant bounds so every generated program
   terminates; array indices are rendered as [abs(e) % len] so they never
   trap. *)
let gen_block ~funs : string Gen.t =
  let open Gen in
  let* nstmts = int_range 1 7 in
  let rec go k vars cells arrays acc_stmts fresh =
    if k = 0 then return (List.rev acc_stmts)
    else
      let* choice = int_range 0 7 in
      match choice with
      | 0 ->
          let name = Printf.sprintf "x%d" fresh in
          let* e = gen_int_expr ~vars ~funs ~depth:2 in
          go (k - 1) (name :: vars) cells arrays
            (Printf.sprintf "var %s = %s;" name e :: acc_stmts)
            (fresh + 1)
      | 1 ->
          let* e = gen_int_expr ~vars ~funs ~depth:2 in
          go (k - 1) vars cells arrays
            (Printf.sprintf "acc = acc + (%s);" e :: acc_stmts)
            fresh
      | 2 ->
          let i = Printf.sprintf "i%d" fresh in
          let* bound = int_range 1 6 in
          let* e = gen_int_expr ~vars:(i :: vars) ~funs ~depth:2 in
          go (k - 1) vars cells arrays
            (Printf.sprintf "var %s = 0; while (%s < %d) { acc = acc + (%s); %s = %s + 1; };"
               i i bound e i i
            :: acc_stmts)
            (fresh + 1)
      | 3 ->
          let* c = gen_bool_expr ~vars ~funs ~depth:1 in
          let* e = gen_int_expr ~vars ~funs ~depth:2 in
          go (k - 1) vars cells arrays
            (Printf.sprintf "if (%s) { acc = acc + (%s) };" c e :: acc_stmts)
            fresh
      | 4 ->
          (* heap box: field reads join the int-expression pool *)
          let name = Printf.sprintf "c%d" fresh in
          let* e = gen_int_expr ~vars ~funs ~depth:1 in
          go (k - 1)
            (Printf.sprintf "%s.v" name :: vars)
            (name :: cells) arrays
            (Printf.sprintf "val %s = new Cell(%s);" name e :: acc_stmts)
            (fresh + 1)
      | 5 when cells <> [] ->
          let* cell = oneofl cells in
          let* e = gen_int_expr ~vars ~funs ~depth:2 in
          go (k - 1) vars cells arrays
            (Printf.sprintf "%s.v = %s;" cell e :: acc_stmts)
            fresh
      | 6 ->
          let name = Printf.sprintf "ar%d" fresh in
          let* len = int_range 1 8 in
          go (k - 1)
            (Printf.sprintf "%s[abs(acc) %% %d]" name len :: vars)
            cells
            ((name, len) :: arrays)
            (Printf.sprintf "val %s = new Array[Int](%d);" name len :: acc_stmts)
            (fresh + 1)
      | _ when arrays <> [] ->
          let* arr, len = oneofl arrays in
          let* idx = gen_int_expr ~vars ~funs ~depth:1 in
          let* e = gen_int_expr ~vars ~funs ~depth:2 in
          go (k - 1) vars cells arrays
            (Printf.sprintf "%s[abs(%s) %% %d] = %s;" arr idx len e :: acc_stmts)
            fresh
      | _ ->
          let* e = gen_int_expr ~vars ~funs ~depth:2 in
          go (k - 1) vars cells arrays
            (Printf.sprintf "acc = acc + (%s);" e :: acc_stmts)
            fresh
  in
  let* stmts = go nstmts [ "a"; "b"; "acc" ] [] [] [] 0 in
  return (String.concat "\n  " stmts)

let prelude =
  {|class Cell(v: Int) {}
abstract class P { def m(x: Int): Int }
class P1() extends P { def m(x: Int): Int = x + 1 }
class P2() extends P { def m(x: Int): Int = x * 2 }
class P3() extends P { def m(x: Int): Int = x - 3 }
def poly(i: Int, x: Int): Int = {
  val k = if (i % 3 == 0) { 0 } else { if (i % 3 == 1) { 1 } else { 2 } };
  var p: P = new P1();
  if (k == 1) { p = new P2() };
  if (k == 2) { p = new P3() };
  p.m(x)
}
|}

(* A full program: helpers g0..gk, a driver f, and main printing f's results
   over a few inputs (which also warms up profiles). *)
let gen_program : string Gen.t =
  let open Gen in
  let* nfuns = int_range 0 2 in
  let rec gen_funs k acc known =
    if k = 0 then return (acc, known)
    else
      let name = Printf.sprintf "g%d" (List.length known) in
      let* body = gen_int_expr ~vars:[ "a"; "b" ] ~funs:known ~depth:2 in
      gen_funs (k - 1)
        (Printf.sprintf "def %s(a: Int, b: Int): Int = %s" name body :: acc)
        ((name, 2) :: known)
  in
  let* fun_texts, funs = gen_funs nfuns [] [] in
  let* block = gen_block ~funs in
  let f =
    Printf.sprintf
      "def f(a: Int, b: Int): Int = {\n  var acc = 0;\n  %s\n  acc\n}" block
  in
  let main =
    {|def main(): Unit = {
  var i = 0;
  while (i < 6) { println(f(i, i * 2 - 3)); i = i + 1; }
}|}
  in
  return (String.concat "\n" (prelude :: List.rev fun_texts) ^ "\n" ^ f ^ "\n" ^ main)

let program_arbitrary = QCheck.make ~print:(fun s -> s) gen_program

(* ---------- properties ---------- *)

let interp_output (prog : Ir.Types.program) : string =
  let vm = Runtime.Interp.create prog in
  ignore (Runtime.Interp.run_main vm);
  Runtime.Interp.output vm

let compile_ok src =
  match Frontend.Pipeline.compile src with
  | Ok prog -> prog
  | Error e ->
      Test.fail_reportf "generated program does not compile: %s@.%s"
        (Frontend.Pipeline.error_to_string e)
        src

let prop_lowering_verifies =
  Test.make ~name:"lowering produces verifier-clean SSA" ~count:60 program_arbitrary
    (fun src ->
      let prog = compile_ok src in
      match Ir.Verify.check_program prog with
      | Ok () -> true
      | Error e -> Test.fail_reportf "verifier: %s" e)

let prop_optimizer_preserves =
  Test.make ~name:"optimizer preserves output" ~count:60 program_arbitrary (fun src ->
      let prog1 = compile_ok src in
      let before = interp_output prog1 in
      let prog2 = compile_ok src in
      Opt.Driver.prepare_program prog2;
      (match Ir.Verify.check_program prog2 with
      | Ok () -> ()
      | Error e -> Test.fail_reportf "verifier after opt: %s" e);
      let after = interp_output prog2 in
      if before <> after then
        Test.fail_reportf "output changed:@.before: %s@.after: %s" before after
      else true)

let prop_canonicalize_idempotent =
  Test.make ~name:"canonicalization is idempotent" ~count:40 program_arbitrary
    (fun src ->
      let prog = compile_ok src in
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

let differential_with (compiler : Jit.Engine.compiler) (src : string) : bool =
  let prog = compile_ok src in
  Opt.Driver.prepare_program prog;
  let reference = interp_output prog in
  let vm = Runtime.Interp.create prog in
  ignore (Runtime.Interp.run_main vm);
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
  vm2.code <- (fun m -> Hashtbl.find_opt cache m);
  ignore (Runtime.Interp.run_main vm2);
  let got = Runtime.Interp.output vm2 in
  if got <> reference then
    Test.fail_reportf "compiled output differs:@.expected: %s@.got: %s" reference got
  else true

let prop_incremental_differential =
  Test.make ~name:"incremental inliner preserves behaviour" ~count:40 program_arbitrary
    (fun src ->
      differential_with
        (fun p pr m -> (Inliner.Algorithm.compile p pr Inliner.Params.default m).body)
        src)

let prop_incremental_1by1_differential =
  Test.make ~name:"1-by-1 ablation preserves behaviour" ~count:20 program_arbitrary
    (fun src ->
      differential_with
        (fun p pr m ->
          (Inliner.Algorithm.compile p pr
             (Inliner.Params.without_clustering Inliner.Params.default)
             m)
            .body)
        src)

let prop_greedy_differential =
  Test.make ~name:"greedy baseline preserves behaviour" ~count:30 program_arbitrary
    (fun src -> differential_with (fun p pr m -> Baselines.Greedy.compile p pr m) src)

let prop_c2_differential =
  Test.make ~name:"c2-like baseline preserves behaviour" ~count:30 program_arbitrary
    (fun src -> differential_with (fun p pr m -> Baselines.C2like.compile p pr m) src)

let prop_inliner_deterministic =
  Test.make ~name:"the inliner is deterministic" ~count:25 program_arbitrary (fun src ->
      let prog = compile_ok src in
      Opt.Driver.prepare_program prog;
      let vm = Runtime.Interp.create prog in
      ignore (Runtime.Interp.run_main vm);
      let m = Option.get (Ir.Program.find_meth prog "f") in
      let once () =
        Ir.Printer.fn_to_string
          (Inliner.Algorithm.compile prog vm.profiles Inliner.Params.default m)
            .Inliner.Algorithm.body
      in
      let a = once () and b = once () in
      if a <> b then Test.fail_reportf "two compilations differ:@.%s@.vs@.%s" a b
      else true)

(* ---------- random IR-level CFGs ----------

   The frontend only produces structured CFGs; these generators build
   arbitrary (including irreducible) graphs directly at the IR level to
   harden dominators, the verifier, CFG cleanup, GVN and DCE.

   Construction keeps programs total (no traps except the step budget) and
   SSA-valid by construction: non-phi operands come from values defined in
   strictly-dominating blocks or earlier in the same block; phi inputs
   come from values visible at the end of each predecessor. *)

let gen_ir_fn : Ir.Types.fn Gen.t =
  let open Gen in
  let open Ir.Types in
  let* nblocks = int_range 3 9 in
  let* seed = int_range 0 1_000_000 in
  return
    (let rng = Support.Rng.create seed in
     let fn = Ir.Fn.create ~fname:"rand" ~param_tys:[| Tint; Tint |] ~rty:Tint in
     let blocks = Array.init nblocks (fun _ -> Ir.Fn.add_block fn) in
     fn.entry <- blocks.(0);
     (* 1. random terminator structure (operands patched later) *)
     Array.iteri
       (fun i b ->
         let target () = blocks.(Support.Rng.int rng nblocks) in
         if i = nblocks - 1 then Ir.Fn.set_term fn b (Return (-1))
         else
           match Support.Rng.int rng 4 with
           | 0 -> Ir.Fn.set_term fn b (Return (-1))
           | 1 | 2 ->
               Ir.Fn.set_term fn b
                 (If { cond = -1; site = { sm = 0; sidx = i }; tb = target (); fb = target () })
           | _ -> Ir.Fn.set_term fn b (Goto (target ())))
       blocks;
     (* 2. fill non-phi instructions in dominator preorder *)
     let doms = Ir.Dominators.compute fn in
     let reachable = Ir.Fn.reachable fn in
     let params = ref [] in
     let p0 = Ir.Fn.append fn blocks.(0) (Param 0) in
     let p1 = Ir.Fn.append fn blocks.(0) (Param 1) in
     params := [ p0; p1 ];
     let defs : (Ir.Types.bid, Ir.Types.vid list) Hashtbl.t = Hashtbl.create 8 in
     let rec visible b =
       (* values defined in strict dominators *)
       match Ir.Dominators.idom doms b with
       | Some d when d <> b ->
           (try Hashtbl.find defs d with Not_found -> []) @ visible d
       | _ -> []
     in
     let int_ops = [| Add; Sub; Mul; Shl; Band; Bor; Bxor |] in
     let rec fill b =
       if reachable b then begin
         let local = ref (if b = fn.entry then !params else []) in
         let pool () = !local @ visible b in
         let n_instrs = Support.Rng.int rng 4 in
         for _ = 1 to n_instrs do
           let pool_now = pool () in
           let pick () =
             if pool_now = [] || Support.Rng.int rng 4 = 0 then
               Ir.Fn.append fn b (Const (Cint (Support.Rng.int rng 100)))
             else Support.Rng.pick rng pool_now
           in
           let a = pick () and c = pick () in
           let op = int_ops.(Support.Rng.int rng (Array.length int_ops)) in
           local := Ir.Fn.append fn b (Binop (op, a, c)) :: !local
         done;
         Hashtbl.replace defs b !local;
         List.iter
           (fun child -> if child <> b then fill child)
           (Ir.Dominators.children doms b)
       end
     in
     fill fn.entry;
     let end_visible b = (try Hashtbl.find defs b with Not_found -> []) @ visible b in
     (* 3. phis at reachable multi-pred blocks *)
     let preds = Ir.Fn.preds fn in
     Array.iter
       (fun b ->
         if reachable b && b <> fn.entry then
           let ps =
             (try Hashtbl.find preds b with Not_found -> [])
             |> List.filter reachable
             |> List.sort_uniq compare
           in
           if List.length ps >= 2 && Support.Rng.bool rng then begin
             let fallback p =
               (* a constant placed in the predecessor always works *)
               Ir.Fn.append fn p (Const (Cint (Support.Rng.int rng 50)))
             in
             let inputs =
               List.map
                 (fun p ->
                   let pool = end_visible p in
                   if pool = [] || Support.Rng.int rng 3 = 0 then (p, fallback p)
                   else (p, Support.Rng.pick rng pool))
                 ps
             in
             let phi = Ir.Fn.prepend fn b (Phi { ty = Tint; inputs }) in
             Hashtbl.replace defs b (phi :: (try Hashtbl.find defs b with Not_found -> []))
           end)
       blocks;
     (* 4. patch terminator operands *)
     Array.iter
       (fun b ->
         if reachable b then
           let value_for () =
             match end_visible b with
             | [] -> Ir.Fn.append fn b (Const (Cint 7))
             | pool -> Support.Rng.pick rng pool
           in
           match Ir.Fn.term fn b with
           | Return _ -> Ir.Fn.set_term fn b (Return (value_for ()))
           | If r ->
               let a = value_for () and c = value_for () in
               let cond = Ir.Fn.append fn b (Binop (Lt, a, c)) in
               Ir.Fn.set_term fn b (If { r with cond })
           | _ -> ())
       blocks;
     (* unreachable blocks still carry unpatched placeholder operands;
        passes are entitled to assume live instructions are well-formed,
        so drop those blocks entirely *)
     Array.iter
       (fun b -> if not (reachable b) then Ir.Fn.delete_block fn b)
       blocks;
     fn)

let ir_fn_arbitrary =
  QCheck.make ~print:(fun fn -> Ir.Printer.fn_to_string fn) gen_ir_fn

(* executes with fixed arguments, classifying the outcome *)
let run_ir_fn (fn : Ir.Types.fn) : string =
  let prog = compile_ok "def main(): Unit = {}" in
  let vm = Runtime.Interp.create ~max_steps:20_000 prog in
  match
    Runtime.Interp.exec vm ~mode:Runtime.Interp.Compiled ~meth:0 fn
      [| Runtime.Values.Vint 13; Runtime.Values.Vint (-7) |]
  with
  | Runtime.Values.Vint n -> Printf.sprintf "int:%d" n
  | v -> Printf.sprintf "other:%s" (Runtime.Values.to_string v)
  | exception Runtime.Values.Trap msg ->
      if Util.contains_substring ~needle:"step budget" msg then "diverges" else "trap:" ^ msg

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
  let prog = lazy (compile_ok "def main(): Unit = {}") in
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
   deleted (the generator above deletes them all). *)
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
          ] );
      ( "random-cfg",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_ir_generator_valid;
            prop_simplify_random_cfg;
            prop_cleanup_random_cfg;
            prop_gvn_random_cfg;
            prop_dce_random_cfg;
            prop_licm_random_cfg;
            prop_dominators_brute_force;
          ] );
      ( "tuple-algebra",
        List.map QCheck_alcotest.to_alcotest
          [ prop_merge_commutative; prop_merge_associative; prop_ratio_bounds ] );
    ]
