(* Bounded code cache residency: see the interface for the policy.

   A plain list is enough for installs: they are rare (a few hundred per
   fleet pass), a resident set is at most a few dozen entries, and a
   linear victim scan is trivially deterministic. It is not enough for
   touches, which come once per entry of a resident method — millions
   per fleet pass. So every resident entry is also indexed by method id
   in a dense array: [touch], [mem] and [remove] find it with one array
   read, no comparison of keys and no allocation. [seq] numbers installs
   and breaks retention ties oldest-install-first. *)

open Support
open Ir.Types

type entry = {
  ce_meth : meth_id;
  ce_size : int;
  ce_seq : int;
  mutable ce_last : int;  (* last-use time, caller's clock *)
  mutable ce_uses : int;
}

(* The index's mark for a method with no resident entry; never mutated. *)
let vacant = { ce_meth = -1; ce_size = 0; ce_seq = -1; ce_last = 0; ce_uses = 0 }

type t = {
  cap : int;
  mutable entries : entry list;  (* the resident entries, newest first *)
  mutable index : entry array;   (* meth_id -> its resident entry, or [vacant] *)
  mutable next_seq : int;
  mutable total : int;           (* sum of resident ce_size *)
}

let create ~capacity =
  { cap = max 0 capacity; entries = []; index = [||]; next_seq = 0; total = 0 }

let used t = t.total
let resident t = List.length t.entries

let find t meth =
  if meth >= 0 && meth < Array.length t.index then t.index.(meth) else vacant

let mem t meth = find t meth != vacant

let retain_score ~last_used ~uses ~size =
  Sat.sub (Sat.add last_used (Sat.mul 64 uses)) size

let score_of e = retain_score ~last_used:e.ce_last ~uses:e.ce_uses ~size:e.ce_size

let drop t e =
  t.entries <- List.filter (fun e' -> e' != e) t.entries;
  t.index.(e.ce_meth) <- vacant;
  t.total <- t.total - e.ce_size

let remove t meth =
  let e = find t meth in
  if e != vacant then drop t e

let install t ~meth ~size ~now =
  remove t meth;
  let e =
    { ce_meth = meth; ce_size = max 0 size; ce_seq = t.next_seq;
      ce_last = now; ce_uses = 0 }
  in
  t.next_seq <- t.next_seq + 1;
  let n = Array.length t.index in
  if meth >= n then begin
    let index = Array.make (max (meth + 1) (2 * n)) vacant in
    Array.blit t.index 0 index 0 n;
    t.index <- index
  end;
  t.index.(meth) <- e;
  t.entries <- e :: t.entries;
  t.total <- t.total + e.ce_size;
  let victims = ref [] in
  while t.total > t.cap do
    match t.entries with
    | [] -> t.total <- 0 (* unreachable: total > cap >= 0 implies an entry *)
    | e0 :: rest ->
        let victim =
          List.fold_left
            (fun best e' ->
              let sb = score_of best and se = score_of e' in
              if se < sb || (se = sb && e'.ce_seq < best.ce_seq) then e' else best)
            e0 rest
        in
        drop t victim;
        victims := victim.ce_meth :: !victims
  done;
  List.rev !victims

let touch t meth ~now =
  let e = find t meth in
  if e != vacant then begin
    e.ce_last <- now;
    e.ce_uses <- e.ce_uses + 1
  end
