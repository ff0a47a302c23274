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
  depth : (bid, int) Hashtbl.t;   (* 0 outside any loop *)
}

let compute (fn : fn) : t =
  let doms = Dominators.compute fn in
  let preds = Fn.preds fn in
  let reachable = Fn.reachable fn in
  (* back edges grouped by header *)
  let by_header : (bid, bid list) Hashtbl.t = Hashtbl.create 8 in
  Fn.iter_blocks
    (fun blk ->
      if reachable blk.b_id then
        List.iter
          (fun s ->
            if reachable s && Dominators.dominates doms ~a:s ~b:blk.b_id then
              let old = try Hashtbl.find by_header s with Not_found -> [] in
              Hashtbl.replace by_header s (blk.b_id :: old))
          (Fn.succs fn blk.b_id))
    fn;
  let loops =
    Hashtbl.fold
      (fun header sources acc ->
        let body = Hashtbl.create 8 in
        Hashtbl.replace body header ();
        let rec pull b =
          if not (Hashtbl.mem body b) then begin
            Hashtbl.replace body b ();
            List.iter pull (try Hashtbl.find preds b with Not_found -> [])
          end
        in
        List.iter pull sources;
        { header; body; back_edges = sources } :: acc)
      by_header []
  in
  let depth = Hashtbl.create 16 in
  Fn.iter_blocks
    (fun blk ->
      let d =
        List.fold_left
          (fun acc l -> if Hashtbl.mem l.body blk.b_id then acc + 1 else acc)
          0 loops
      in
      Hashtbl.replace depth blk.b_id d)
    fn;
  { loops; depth }

let depth t b = try Hashtbl.find t.depth b with Not_found -> 0

let is_header t b = List.exists (fun l -> l.header = b) t.loops
