(* The top-level incremental inlining algorithm (paper, Listing 1):

     root = createRoot(μ)
     while !detectTermination(root):
       expand(root); analyze(root); inline(root)

   plus the per-round root optimizations of Section IV on the root method
   (canonicalization, then [Opt.Driver.root_passes]), followed by a
   call-tree refresh (deleted callsites, devirtualized targets,
   re-specialization, orphan callsites).

   Termination (paper): no cutoff nodes left, or no change during the last
   round, or the root IR size exceeding the cap. *)

type stats = {
  mutable rounds : int;
  mutable expanded : int;
  mutable inlined : int;
  mutable initial_size : int;
  mutable final_size : int;
  mutable opt_events : int;
}

let pp_stats ppf (s : stats) =
  Fmt.pf ppf "rounds=%d expanded=%d inlined=%d size %d->%d opts=%d" s.rounds s.expanded
    s.inlined s.initial_size s.final_size s.opt_events

type result = { body : Ir.Types.fn; stats : stats }

let log_src = Logs.Src.create "inliner" ~doc:"incremental inliner"

module Log = (val Logs.src_log log_src)

let m_rounds = Obs.Metrics.histogram "inliner.rounds_per_compile"

(* Compiles [root_meth]: returns the optimized root body with callees
   inlined per the algorithm. The method's interpreter body is left
   untouched; the caller installs the result in the code cache. *)
let compile ?trial_cache (prog : Ir.Types.program) (profiles : Runtime.Profile.t)
    (params : Params.t) (root_meth : Ir.Types.meth_id) : result =
  let t = Calltree.create ?trial_cache prog profiles params root_meth in
  let stats =
    {
      rounds = 0;
      expanded = 0;
      inlined = 0;
      initial_size = Ir.Fn.size t.root_fn;
      final_size = 0;
      opt_events = 0;
    }
  in
  (* Compile watchdog: under an ambient [Support.Fuel] budget, snapshot
     the root after every completed round. A fuel abort mid-round
     (checkpoints sit in [Expansion.run] and [Opt.Driver]) then falls
     back to the last completed round's body — the best result the
     budget paid for. If not even the first round finished, there is no
     useful body and [Fuel.Exhausted] escapes to the engine's bailout
     path. Snapshots cost one [Ir.Fn.copy] per round and only exist when
     a budget is installed. *)
  let watchdog = Support.Fuel.enabled () in
  let best : (Ir.Types.fn * int * int * int * int) option ref = ref None in
  let changed = ref true in
  (try
     while
       !changed
       && stats.rounds < params.max_rounds
       && Ir.Fn.size t.root_fn < params.root_size_cap
     do
       Support.Fuel.spend 1;
       stats.rounds <- stats.rounds + 1;
       let expanded = Expansion.run t in
       Analysis.run t;
       let inlined = Inline_phase.run t in
       let opt_stats =
         Opt.Driver.round_root_opts ~passes:params.root_passes prog t.root_fn
       in
       stats.expanded <- stats.expanded + expanded;
       stats.inlined <- stats.inlined + inlined;
       stats.opt_events <- stats.opt_events + Opt.Driver.simple_opt_count opt_stats;
       Calltree.refresh t;
       Log.debug (fun m ->
           m "round %d: expanded=%d inlined=%d root_size=%d cutoffs=%d" stats.rounds
             expanded inlined (Ir.Fn.size t.root_fn) (Calltree.tree_n_c t));
       Obs.Trace.emit "inline_round" (fun () ->
           Support.Json.
             [
               ("root", Int root_meth);
               ("round", Int stats.rounds);
               ("expanded", Int expanded);
               ("inlined", Int inlined);
               ("root_size", Int (Ir.Fn.size t.root_fn));
               ("cutoffs", Int (Calltree.tree_n_c t));
             ]);
       changed := expanded > 0 || inlined > 0;
       if watchdog then
         best :=
           Some
             ( Ir.Fn.copy t.root_fn,
               stats.rounds,
               stats.expanded,
               stats.inlined,
               stats.opt_events )
     done;
     stats.final_size <- Ir.Fn.size t.root_fn;
     Obs.Metrics.observe m_rounds stats.rounds;
     (* the compiled body outlives the compilation *)
     Ir.Fn.drop_analyses t.root_fn;
     { body = t.root_fn; stats }
   with Support.Fuel.Exhausted -> (
     match !best with
     | None -> raise Support.Fuel.Exhausted
     | Some (body, rounds, expanded, inlined, opt_events) ->
         stats.rounds <- rounds;
         stats.expanded <- expanded;
         stats.inlined <- inlined;
         stats.opt_events <- opt_events;
         stats.final_size <- Ir.Fn.size body;
         Obs.Trace.emit "inline_round" (fun () ->
             Support.Json.
               [
                 ("root", Int root_meth);
                 ("round", Int rounds);
                 ("fuel_abort", Bool true);
                 ("root_size", Int (Ir.Fn.size body));
               ]);
         Obs.Metrics.observe m_rounds rounds;
         { body; stats }))
