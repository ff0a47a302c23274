(* Shared machinery for the baseline inliners: candidate scanning, depth
   tracking across splices, and monomorphic speculation. *)

open Ir.Types

type state = {
  prog : program;
  profiles : Runtime.Profile.t;
  body : fn;                            (* working copy of the root *)
  depth : (vid, int) Hashtbl.t;         (* inlining depth per call instr *)
  mutable next_syn_site : int;
  root_meth : meth_id;
}

let create (prog : program) (profiles : Runtime.Profile.t) (root_meth : meth_id) : state =
  let body =
    match (Ir.Program.meth prog root_meth).body with
    | Some fn -> Ir.Fn.copy fn
    | None -> invalid_arg "baseline: compiling an abstract method"
  in
  let st = { prog; profiles; body; depth = Hashtbl.create 32; next_syn_site = -1; root_meth } in
  List.iter (fun (c : instr) -> Hashtbl.replace st.depth c.id 0) (Ir.Fn.calls body);
  st

let fresh_site (st : state) : site =
  st.next_syn_site <- st.next_syn_site - 1;
  { sm = st.root_meth; sidx = st.next_syn_site }

let depth_of (st : state) (v : vid) : int =
  match Hashtbl.find_opt st.depth v with Some d -> d | None -> 0

(* Splices [callee]'s prepared body into the root at [call_vid] and records
   the new calls' depth. *)
let inline_at (st : state) ~(call_vid : vid) ~(callee : meth_id) : unit =
  let body =
    match (Ir.Program.meth st.prog callee).body with
    | Some fn -> Ir.Fn.copy fn
    | None -> invalid_arg "baseline: inlining an abstract method"
  in
  let d = depth_of st call_vid in
  let callee_calls = List.map (fun (c : instr) -> c.id) (Ir.Fn.calls body) in
  let remap = Ir.Splice.inline_call ~caller:st.body ~call_vid ~callee:body in
  List.iter
    (fun v ->
      let v' = remap.vmap.(v) in
      if v' <> Ir.Splice.unmapped then Hashtbl.replace st.depth v' (d + 1))
    callee_calls

(* Monomorphic speculation: a virtual call whose receiver profile is
   dominated (>= [min_prob]) by one class becomes a typeswitch with a
   single test; returns the direct call vid. Synthetic (negative) sites
   are never re-speculated. *)
let speculate_mono (st : state) ~(min_prob : float) (call : instr) : vid option =
  match call.kind with
  | Call { callee = Virtual sel; site; _ } when site.sidx >= 0 -> (
      match Runtime.Profile.receiver_profile st.profiles site with
      | (cls, p) :: _ when p >= min_prob -> (
          match Ir.Program.resolve st.prog cls sel with
          | Some m when (Ir.Program.meth st.prog m).body <> None ->
              let d = depth_of st call.id in
              let direct =
                Inliner.Typeswitch.build st.prog st.body ~call_vid:call.id
                  ~targets:[ (cls, m) ]
                  ~fresh_site:(fun () -> fresh_site st)
              in
              (match direct with
              | [ (_, dcall) ] ->
                  Hashtbl.replace st.depth dcall d;
                  Some dcall
              | _ -> None)
          | _ -> None)
      | _ -> None)
  | _ -> None

let callee_size (st : state) (m : meth_id) : int =
  match (Ir.Program.meth st.prog m).body with
  | Some fn -> Ir.Fn.size fn
  | None -> max_int

(* Static block frequencies of the current working body. Baselines
   recompute them after every splice (cheap at Sel sizes). *)
let freqs (st : state) : (bid, float) Hashtbl.t = Ir.Freq.static st.body

let call_freq (st : state) (fr : (bid, float) Hashtbl.t) (v : vid) : float =
  Ir.Freq.of_instr st.body fr v
