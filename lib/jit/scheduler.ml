(* Bounded prioritized compile queue: see the interface for the policy.

   Capacities are small (the serve default is 4 per tenant), so the
   representation is a plain list with linear scans — obviously
   deterministic, no heap-order ties to reason about. [seq] numbers
   requests in arrival order and breaks every score tie: pops prefer the
   oldest, displacement sheds the youngest, so the tie policy is "the
   request that has waited longest wins". *)

open Support

type 'k req = {
  rq_meth : 'k;
  rq_hotness : int;
  rq_enqueued_at : int;
  rq_seq : int;
}

type 'k t = {
  cap : int;
  age_unit : int;
  mutable reqs : 'k req list;  (* arrival order, newest first *)
  mutable next_seq : int;
  mutable busy : int;          (* compiler occupied until this time *)
}

let create ~capacity ~age_unit =
  { cap = max 0 capacity; age_unit = max 1 age_unit;
    reqs = []; next_seq = 0; busy = 0 }

let length t = List.length t.reqs

let score ~hotness ~age ~age_unit =
  let age_unit = max 1 age_unit in
  Sat.mul hotness (Sat.add 1 (Sat.sub age 0 / age_unit))

let score_of t now r =
  score ~hotness:r.rq_hotness ~age:(Sat.sub now r.rq_enqueued_at)
    ~age_unit:t.age_unit

type 'k admission =
  | Admitted
  | Waiting
  | Displaced of 'k
  | Rejected

(* The waiting request with the lowest score; ties pick the youngest
   (largest seq), so displacement never sheds the longer-waiting side of
   a tie. *)
let cheapest t now =
  match t.reqs with
  | [] -> None
  | r0 :: rest ->
      Some
        (List.fold_left
           (fun best r ->
             let sb = score_of t now best and sr = score_of t now r in
             if sr < sb || (sr = sb && r.rq_seq > best.rq_seq) then r else best)
           r0 rest)

let enqueue t ~meth ~hotness ~now =
  if List.exists (fun r -> r.rq_meth = meth) t.reqs then Waiting
  else
    let admit () =
      let r =
        { rq_meth = meth; rq_hotness = hotness; rq_enqueued_at = now;
          rq_seq = t.next_seq }
      in
      t.next_seq <- t.next_seq + 1;
      t.reqs <- r :: t.reqs
    in
    if List.length t.reqs < t.cap then begin
      admit ();
      Admitted
    end
    else
      match cheapest t now with
      | None -> Rejected (* capacity 0 *)
      | Some victim ->
          let incoming = score ~hotness ~age:0 ~age_unit:t.age_unit in
          if incoming <= score_of t now victim then Rejected
          else begin
            t.reqs <- List.filter (fun r -> r != victim) t.reqs;
            admit ();
            Displaced victim.rq_meth
          end

let occupy t ~until = if until > t.busy then t.busy <- until

let pop t ~now =
  if now < t.busy then None
  else
    match t.reqs with
    | [] -> None
    | r0 :: rest ->
        let best =
          List.fold_left
            (fun best r ->
              let sb = score_of t now best and sr = score_of t now r in
              if sr > sb || (sr = sb && r.rq_seq < best.rq_seq) then r else best)
            r0 rest
        in
        t.reqs <- List.filter (fun r -> r != best) t.reqs;
        Some (best.rq_meth, Sat.sub now best.rq_enqueued_at)
