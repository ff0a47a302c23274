(* Natural-loop discovery from dominator-identified back edges.

   A back edge is an edge b -> h where h dominates b. The loop body of h is
   everything that reaches b without passing through h. Loop nesting depth
   per block feeds static frequency estimation and the inliner's loop-aware
   priorities; headers feed loop-invariant hoisting and OSR entry. *)

open Types

type loop = {
  header : bid;
  body : (bid, unit) Hashtbl.t;   (* includes the header *)
  back_edges : bid list;          (* sources of back edges into [header] *)
}

type t = {
  loops : loop list;
  depth : int array;              (* by block id; 0 outside any loop *)
}

(* Each block's depth is counted as the bodies are collected: it is the
   number of bodies that take it in, so the forest costs the sum of the
   body sizes, not the block count times the loop count. *)
let build (fn : fn) : t =
  let doms = Dominators.compute fn in
  let preds = Fn.preds fn in
  let reachable = Fn.reachable fn in
  (* back edges grouped by header *)
  let by_header : (bid, bid list) Hashtbl.t = Hashtbl.create 8 in
  let back_edge src h =
    if reachable h && Dominators.dominates doms ~a:h ~b:src then
      let old = try Hashtbl.find by_header h with Not_found -> [] in
      Hashtbl.replace by_header h (src :: old)
  in
  Fn.iter_blocks
    (fun blk ->
      if reachable blk.b_id then
        match blk.term with
        | Goto s -> back_edge blk.b_id s
        | If { tb; fb; _ } ->
            back_edge blk.b_id tb;
            back_edge blk.b_id fb
        | Return _ | Unreachable -> ())
    fn;
  let depth = Array.make (Support.Vec.length fn.blocks) 0 in
  let loops =
    Hashtbl.fold
      (fun header sources acc ->
        let body = Hashtbl.create 8 in
        let take b =
          Hashtbl.replace body b ();
          depth.(b) <- depth.(b) + 1
        in
        take header;
        let rec pull b =
          if not (Hashtbl.mem body b) then begin
            take b;
            List.iter pull preds.(b)
          end
        in
        List.iter pull sources;
        { header; body; back_edges = sources } :: acc)
      by_header []
  in
  { loops; depth }

type analysis += Forest of t

let compute (fn : fn) : t =
  Fn.cached fn ~find:(function Forest t -> Some t | _ -> None) ~wrap:(fun t -> Forest t) build

let depth t b = if b >= 0 && b < Array.length t.depth then t.depth.(b) else 0

let is_header t b = List.exists (fun l -> l.header = b) t.loops
