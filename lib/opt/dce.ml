(* Dead-code elimination: removes instructions whose results are unused and
   whose execution is unobservable (pure ops, dead loads, dead
   allocations). Uses a mark phase seeded from side-effecting instructions
   and terminator operands, so phi cycles feeding only each other die. *)

open Ir.Types

let run (fn : fn) : int =
  let marked = Bytes.make (Support.Vec.length fn.instrs) '\000' in
  (* marked instructions whose operands are still to be marked; the
     marked set does not depend on the order they are taken in *)
  let work = Support.Vec.create ~dummy:0 in
  let mark v =
    if Ir.Fn.instr_live fn v && Bytes.get marked v = '\000' then begin
      Bytes.set marked v '\001';
      Support.Vec.push work v
    end
  in
  Ir.Fn.iter_instrs
    (fun i -> if Ir.Instr.has_side_effect i.kind then mark i.id)
    fn;
  Ir.Fn.iter_blocks
    (fun blk ->
      match blk.term with
      | If { cond; _ } -> mark cond
      | Return v -> mark v
      | Goto _ | Unreachable -> ())
    fn;
  while not (Support.Vec.is_empty work) do
    Ir.Instr.iter_operands mark (Ir.Fn.kind fn (Support.Vec.pop work))
  done;
  Ir.Fn.delete_instrs fn (fun v -> Bytes.get marked v = '\000')
