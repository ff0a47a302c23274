(* Random IR-level bodies for the optimizer's property tests.

   The frontend only produces structured CFGs; this generator builds
   arbitrary (including irreducible) graphs directly at the IR level to
   harden the verifier, CFG cleanup, GVN, DCE, LICM, the threaded tier
   and the cached control-flow analyses.

   Construction keeps programs total (no traps except the step budget) and
   SSA-valid by construction: non-phi operands come from values defined in
   strictly-dominating blocks or earlier in the same block; phi inputs
   come from values visible at the end of each predecessor. *)

open QCheck

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
             preds.(b)
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

let arbitrary = QCheck.make ~print:(fun fn -> Ir.Printer.fn_to_string fn) gen_ir_fn
