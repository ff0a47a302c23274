(* Specialization signatures: what a callsite would propagate into its
   callee — per parameter, an optional constant and an optional refined
   type. Shared by the call tree (deep inlining trials, re-specialization
   guards) and the trial cache (memoization keys). *)

open Ir.Types

type spec = (const option * ty option) array

let strictly_more_precise (prog : program) ~(refined : ty) ~(declared : ty) : bool =
  refined <> declared
  &&
  match (refined, declared) with
  | Tobj a, Tobj b -> Ir.Program.is_subclass prog ~sub:a ~sup:b
  | _ -> false

(* Strictly better information: some parameter gained a constant or a more
   precise type, and none lost one. *)
let improves (prog : program) ~(old_sig : spec) ~(new_sig : spec) : bool =
  if Array.length old_sig <> Array.length new_sig then true
  else begin
    let improved = ref false and regressed = ref false in
    Array.iteri
      (fun i (oc, oty) ->
        let nc, nty = new_sig.(i) in
        (match (oc, nc) with
        | None, Some _ -> improved := true
        | Some _, None -> regressed := true
        | Some a, Some b when a <> b -> regressed := true
        | _ -> ());
        match (oty, nty) with
        | None, Some _ -> improved := true
        | Some _, None -> regressed := true
        | Some a, Some b when a <> b ->
            if strictly_more_precise prog ~refined:b ~declared:a then improved := true
            else regressed := true
        | _ -> ())
      old_sig;
    !improved && not !regressed
  end
