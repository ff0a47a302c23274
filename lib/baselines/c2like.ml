(* A HotSpot-C2-style baseline, as characterized in the paper (Section V):
   "inlines a single method at a time (first only trivial methods during
   bytecode parsing, and larger methods in a separate, later phase), with a
   greedy heuristic".

   Phase 1 (parse-time): exhaustively inline trivial direct callees.
   Phase 2: greedy frequency-guided inlining with fixed size thresholds,
   plus profile-guided monomorphic speculation (C2's class check). The
   optimizer runs once, after inlining — like C2's separate optimization
   phases. *)

open Ir.Types

type params = {
  trivial_size : int;       (* parse-time inline cap (C2: MaxTrivialSize) *)
  max_inline_size : int;    (* phase-2 cap (C2: MaxInlineSize-ish) *)
  freq_threshold : float;   (* phase-2 minimum callsite frequency *)
  max_root_size : int;
  max_depth : int;
  mono_min_prob : float;
}

let default =
  {
    trivial_size = 14;
    max_inline_size = 70;
    freq_threshold = 0.4;
    max_root_size = 500;
    max_depth = 9;
    mono_min_prob = 0.95;
  }

let compile ?(params = default) (prog : program) (profiles : Runtime.Profile.t)
    (root : meth_id) : fn =
  let st = Common.create prog profiles root in
  (* phase 1: trivial inlining, to a fixpoint *)
  let progress = ref true in
  while !progress && Ir.Fn.size st.body < params.max_root_size do
    progress := false;
    let next =
      List.find_map
        (fun (c : instr) ->
          match c.kind with
          | Call { callee = Direct m; _ }
            when (Ir.Program.meth prog m).body <> None
                 && Common.callee_size st m <= params.trivial_size
                 && Common.depth_of st c.id <= params.max_depth ->
              Some (c.id, m)
          | _ -> None)
        (Ir.Fn.calls st.body)
    in
    match next with
    | Some (v, m) ->
        Common.inline_at st ~call_vid:v ~callee:m;
        progress := true
    | None -> ()
  done;
  (* phase 2: greedy frequency-guided inlining of larger methods *)
  let continue_ = ref true in
  while !continue_ && Ir.Fn.size st.body < params.max_root_size do
    List.iter
      (fun (c : instr) ->
        match c.kind with
        | Call { callee = Virtual _; _ } when Common.depth_of st c.id <= params.max_depth ->
            ignore (Common.speculate_mono st ~min_prob:params.mono_min_prob c)
        | _ -> ())
      (Ir.Fn.calls st.body);
    let fr = Common.freqs st in
    let candidates =
      List.filter_map
        (fun (c : instr) ->
          match c.kind with
          | Call { callee = Direct m; _ } when (Ir.Program.meth prog m).body <> None ->
              let size = Common.callee_size st m in
              let freq = Common.call_freq st fr c.id in
              if
                Common.depth_of st c.id <= params.max_depth
                && size <= params.max_inline_size
                && (freq >= params.freq_threshold || size <= params.trivial_size)
              then Some (c.id, m, freq)
              else None
          | _ -> None)
        (Ir.Fn.calls st.body)
    in
    match candidates with
    | [] -> continue_ := false
    | _ ->
        let best_vid, best_m, _ =
          List.fold_left
            (fun ((_, _, bf) as acc) ((_, _, f) as cand) -> if f > bf then cand else acc)
            (List.hd candidates) (List.tl candidates)
        in
        Common.inline_at st ~call_vid:best_vid ~callee:best_m
  done;
  (* one full optimization pass after inlining, as with the other
     compilers — the comparison varies only the inlining decisions *)
  ignore (Opt.Driver.round_root_opts prog st.body);
  Ir.Fn.drop_analyses st.body;
  st.body
