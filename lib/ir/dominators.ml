(* Dominator tree via the Cooper–Harvey–Kennedy iterative algorithm
   ("A Simple, Fast Dominance Algorithm", 2001), which is defined over
   reverse-postorder numbers. Operates on reachable blocks only.

   Every table the tree makes is indexed by a block's position in the
   reverse postorder it was given, so a tree costs its reachable blocks,
   not every block slot the body has had. The children, grouped by
   parent in one flat array, and a pre/post numbering of the tree's
   depth-first walk are built once, so [iter_children] and [dominates]
   need no search. *)

open Types

type t = {
  order : bid array;  (* the reverse postorder: position -> block *)
  index : int array;  (* block -> position, -1 unreachable *)
  idom : int array;   (* position of the immediate dominator; the entry's is its own *)
  first : int array;  (* [kids.(first.(i))] .. [kids.(first.(i + 1) - 1)] are i's children *)
  kids : bid array;   (* children grouped by parent, each group ascending by block id *)
  pre : int array;    (* dominator-tree preorder number *)
  post : int array;   (* dominator-tree postorder number *)
}

(* The entry is [order.(0)]; [preds.(b)] lists [b]'s predecessors, of
   which the unreachable ones are ignored. *)
let build ({ order; index } : Fn.numbering) ~(preds : bid list array) : t =
  let n = Array.length order in
  let idom = Array.make n (-1) in
  if n > 0 then idom.(0) <- 0;
  let rec intersect f1 f2 =
    if f1 = f2 then f1 else if f1 > f2 then intersect idom.(f1) f2 else intersect f1 idom.(f2)
  in
  (* folds [intersect] over the predecessors that already have an idom *)
  let rec meet acc = function
    | [] -> acc
    | p :: rest ->
        let i = index.(p) in
        if i < 0 || idom.(i) < 0 then meet acc rest
        else meet (if acc < 0 then i else intersect i acc) rest
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to n - 1 do
      let d = meet (-1) preds.(order.(i)) in
      if d >= 0 && idom.(i) <> d then begin
        idom.(i) <- d;
        changed := true
      end
    done
  done;
  (* a counting sort by parent: [first.(p)] counts up to the end of p's
     group, then a descending sweep over block ids fills each group from
     its end, leaving [first.(p)] at its start *)
  let first = Array.make (n + 1) 0 and kids = Array.make (max 0 (n - 1)) 0 in
  for i = 1 to n - 1 do
    first.(idom.(i)) <- first.(idom.(i)) + 1
  done;
  for i = 1 to n - 1 do
    first.(i) <- first.(i) + first.(i - 1)
  done;
  for b = Array.length index - 1 downto 0 do
    let i = index.(b) in
    if i > 0 then begin
      let p = idom.(i) in
      first.(p) <- first.(p) - 1;
      kids.(first.(p)) <- b
    end
  done;
  first.(n) <- Array.length kids;
  let pre = Array.make n 0 and post = Array.make n 0 in
  let clock = ref 0 in
  let rec walk i =
    pre.(i) <- !clock;
    incr clock;
    for k = first.(i) to first.(i + 1) - 1 do
      walk index.(kids.(k))
    done;
    post.(i) <- !clock;
    incr clock
  in
  if n > 0 then walk 0;
  { order; index; idom; first; kids; pre; post }

type analysis += Doms of t

let compute (fn : fn) : t =
  Fn.cached fn
    ~find:(function Doms t -> Some t | _ -> None)
    ~wrap:(fun t -> Doms t)
    (fun fn -> build (Fn.numbering fn) ~preds:(Fn.preds fn))

(* [b]'s position, -1 when it is unreachable or past the bound *)
let position t b = if b >= 0 && b < Array.length t.index then t.index.(b) else -1

let idom t b =
  let i = position t b in
  if i < 0 then None else Some t.order.(t.idom.(i))

(* Does [a] dominate [b]? [a] is an ancestor of [b] in the dominator tree
   exactly when its preorder/postorder interval encloses [b]'s. *)
let dominates t ~(a : bid) ~(b : bid) : bool =
  a = b
  ||
  let i = position t a and j = position t b in
  i >= 0 && j >= 0 && t.pre.(i) <= t.pre.(j) && t.post.(j) <= t.post.(i)

let iter_children f t (b : bid) =
  let i = position t b in
  if i >= 0 then
    for k = t.first.(i) to t.first.(i + 1) - 1 do
      f t.kids.(k)
    done

let children t (b : bid) : bid list =
  let i = position t b in
  if i < 0 then []
  else Array.to_list (Array.sub t.kids t.first.(i) (t.first.(i + 1) - t.first.(i)))
