(* The greedy priority-based baseline, modeled on the open-source Graal
   inliner as the paper describes it (Section V, "Comparison against
   alternatives"): akin to Steiner et al. — priority-ordered, single pass,
   fixed thresholds, and crucially *no* alternation between exploration,
   optimization and inlining. Decisions are made from profile frequencies
   and static sizes only; optimizations run once, at the end. *)

open Ir.Types

type params = {
  max_root_size : int;    (* stop inlining once the root reaches this *)
  max_callee_size : int;  (* never inline anything larger *)
  trivial_size : int;     (* trivial callees inline regardless of frequency *)
  max_depth : int;
  min_freq : float;
  mono_min_prob : float;  (* receiver-profile share for monomorphic speculation *)
}

let default =
  {
    max_root_size = 700;
    max_callee_size = 120;
    trivial_size = 18;
    max_depth = 12;
    min_freq = 0.05;
    mono_min_prob = 0.9;
  }

let compile ?(params = default) (prog : program) (profiles : Runtime.Profile.t)
    (root : meth_id) : fn =
  let st = Common.create prog profiles root in
  let continue_ = ref true in
  while !continue_ && Ir.Fn.size st.body < params.max_root_size do
    (* speculate monomorphic virtual calls so they become direct candidates *)
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
              let depth = Common.depth_of st c.id in
              let freq = Common.call_freq st fr c.id in
              let trivial = size <= params.trivial_size in
              if
                depth <= params.max_depth
                && size <= params.max_callee_size
                && (trivial || freq >= params.min_freq)
              then Some (c.id, m, freq /. float_of_int (max 1 size))
              else None
          | _ -> None)
        (Ir.Fn.calls st.body)
    in
    match candidates with
    | [] -> continue_ := false
    | _ ->
        let best_vid, best_m, _ =
          List.fold_left
            (fun ((_, _, bp) as acc) ((_, _, p) as cand) -> if p > bp then cand else acc)
            (List.hd candidates) (List.tl candidates)
        in
        Common.inline_at st ~call_vid:best_vid ~callee:best_m
  done;
  (* The full optimizer runs once at the end — same passes as the
     incremental inliner's rounds (the paper swaps only the inliner inside
     the same compiler), but with no alternation between inlining and
     optimization. *)
  ignore (Opt.Driver.round_root_opts prog st.body);
  Ir.Fn.drop_analyses st.body;
  st.body
