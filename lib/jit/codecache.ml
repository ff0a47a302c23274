(* Bounded code cache residency: see the interface for the policy.

   A resident set is at most a few dozen entries, so a plain list with
   linear victim scans is enough — and trivially deterministic. [seq]
   numbers installs and breaks retention ties oldest-install-first. *)

open Support

type 'k entry = {
  ce_meth : 'k;
  ce_size : int;
  ce_seq : int;
  mutable ce_last : int;  (* last-use time, caller's clock *)
  mutable ce_uses : int;
}

type 'k t = {
  cap : int;
  mutable entries : 'k entry list;
  mutable next_seq : int;
  mutable total : int;  (* sum of resident ce_size *)
}

let create ~capacity = { cap = max 0 capacity; entries = []; next_seq = 0; total = 0 }

let used t = t.total
let resident t = List.length t.entries
let mem t meth = List.exists (fun e -> e.ce_meth = meth) t.entries

let retain_score ~last_used ~uses ~size =
  Sat.sub (Sat.add last_used (Sat.mul 64 uses)) size

let score_of e = retain_score ~last_used:e.ce_last ~uses:e.ce_uses ~size:e.ce_size

let drop t e =
  t.entries <- List.filter (fun e' -> e' != e) t.entries;
  t.total <- t.total - e.ce_size

let remove t meth =
  match List.find_opt (fun e -> e.ce_meth = meth) t.entries with
  | Some e -> drop t e
  | None -> ()

let install t ~meth ~size ~now =
  remove t meth;
  let e =
    { ce_meth = meth; ce_size = max 0 size; ce_seq = t.next_seq;
      ce_last = now; ce_uses = 0 }
  in
  t.next_seq <- t.next_seq + 1;
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
  match List.find_opt (fun e -> e.ce_meth = meth) t.entries with
  | Some e ->
      e.ce_last <- now;
      e.ce_uses <- e.ce_uses + 1
  | None -> ()
