(* Relative block-frequency estimation.

   The inliner's callsite frequency f(n) (paper, Section IV) is the
   frequency of the block containing the callsite relative to one entry of
   the enclosing method. Two sources:

   - profiled: the interpreter records per-block execution counts; the
     relative frequency is count(b)/count(entry). This mirrors the JVM
     branch/backedge profile information Graal consumes.
   - static: when a method was never interpreted (e.g. discovered only via
     expansion), estimate by propagating branch probability 0.5 along
     acyclic edges and multiplying by a loop factor per nesting depth.

   Copies of a method's IR preserve block ids, so profile lookups keyed by
   (method, block) remain valid on the specialized copies the call tree
   holds. *)

open Types

let loop_multiplier = 8.0

let static (fn : fn) : (bid, float) Hashtbl.t =
  let loops = Loops.compute fn in
  let preds = Fn.preds fn in
  let { Fn.order; index } = Fn.numbering fn in
  (* acyclic propagation: ignore edges that go backwards in RPO *)
  let freq = Hashtbl.create 16 in
  Array.iteri
    (fun i b ->
      let f =
        if b = fn.entry then 1.0
        else
          List.fold_left
            (fun acc p ->
              if index.(p) < 0 || index.(p) >= i then acc
              else
                let pf = try Hashtbl.find freq p with Not_found -> 0.0 in
                let prob =
                  match Fn.term fn p with
                  | If _ -> 0.5
                  | _ -> 1.0
                in
                acc +. (pf *. prob))
            0.0 preds.(b)
      in
      Hashtbl.replace freq b f)
    order;
  (* amplify by loop nesting *)
  Array.iter
    (fun b ->
      let d = Loops.depth loops b in
      if d > 0 then
        Hashtbl.replace freq b
          ((try Hashtbl.find freq b with Not_found -> 0.0)
          *. (loop_multiplier ** float_of_int d)))
    order;
  freq

(* [profiled fn ~counts] uses per-block execution counts when the entry has
   been observed; falls back to [static] otherwise. *)
let profiled (fn : fn) ~(counts : bid -> float) : (bid, float) Hashtbl.t =
  let entry_count = counts fn.entry in
  if entry_count <= 0.0 then static fn
  else begin
    let freq = Hashtbl.create 16 in
    Fn.iter_blocks
      (fun blk -> Hashtbl.replace freq blk.b_id (counts blk.b_id /. entry_count))
      fn;
    freq
  end

(* Convenience: frequency of the block containing instruction [v]. *)
let of_instr (fn : fn) (freqs : (bid, float) Hashtbl.t) (v : vid) : float =
  Option.value (Hashtbl.find_opt freqs (Fn.block_of fn v)) ~default:0.0
