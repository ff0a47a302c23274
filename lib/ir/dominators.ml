(* Dominator tree via the Cooper–Harvey–Kennedy iterative algorithm.
   Operates on reachable blocks only.

   Every table is a dense array indexed by block id, sized to the block
   count when the tree was computed. The tree's children lists and a
   pre/post numbering of its depth-first walk are built once, so
   [children] and [dominates] answer in O(1). *)

open Types

type t = {
  idom : bid array;      (* immediate dominator; entry maps to itself, -1 unreachable *)
  children : bid list array;  (* ascending *)
  pre : int array;       (* dominator-tree preorder number; -1 unreachable *)
  post : int array;      (* dominator-tree postorder number *)
}

(* [rpo] is the reverse postorder from the entry, [rpo.(0)]; [preds.(b)]
   lists [b]'s predecessors, of which the unreachable ones are ignored. *)
let build ~(n : int) ~(rpo : bid array) ~(preds : bid list array) : t =
  let index = Array.make n (-1) in
  Array.iteri (fun i b -> index.(b) <- i) rpo;
  let idom = Array.make n (-1) in
  let entry = if Array.length rpo > 0 then rpo.(0) else -1 in
  if entry >= 0 then idom.(entry) <- entry;
  let rec intersect f1 f2 =
    if f1 = f2 then f1
    else if index.(f1) > index.(f2) then intersect idom.(f1) f2
    else intersect f1 idom.(f2)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to Array.length rpo - 1 do
      let b = rpo.(i) in
      let new_idom =
        List.fold_left
          (fun acc p ->
            if idom.(p) < 0 then acc else if acc < 0 then p else intersect p acc)
          (-1) preds.(b)
      in
      if new_idom >= 0 && idom.(b) <> new_idom then begin
        idom.(b) <- new_idom;
        changed := true
      end
    done
  done;
  let children = Array.make n [] in
  for b = n - 1 downto 0 do
    if idom.(b) >= 0 && b <> entry then children.(idom.(b)) <- b :: children.(idom.(b))
  done;
  let pre = Array.make n (-1) and post = Array.make n (-1) in
  let clock = ref 0 in
  let rec walk b =
    pre.(b) <- !clock;
    incr clock;
    List.iter walk children.(b);
    post.(b) <- !clock;
    incr clock
  in
  if entry >= 0 then walk entry;
  { idom; children; pre; post }

type analysis += Doms of t

let compute (fn : fn) : t =
  Fn.cached fn
    ~find:(function Doms t -> Some t | _ -> None)
    ~wrap:(fun t -> Doms t)
    (fun fn ->
      build ~n:(Support.Vec.length fn.blocks) ~rpo:(Array.of_list (Fn.rpo fn))
        ~preds:(Fn.preds fn))

let reachable t b = b >= 0 && b < Array.length t.idom && t.idom.(b) >= 0

let idom t b = if reachable t b then Some t.idom.(b) else None

(* Does [a] dominate [b]? [a] is an ancestor of [b] in the dominator tree
   exactly when its preorder/postorder interval encloses [b]'s. *)
let dominates t ~(a : bid) ~(b : bid) : bool =
  a = b
  || reachable t a
     && reachable t b
     && t.pre.(a) <= t.pre.(b)
     && t.post.(b) <= t.post.(a)

(* Children in the dominator tree. *)
let children t (b : bid) : bid list = if reachable t b then t.children.(b) else []
