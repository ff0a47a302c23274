(* Benchmark methodology from the paper's evaluation (Section V):
   repeat a benchmark's entry method, record per-iteration simulated
   cycles, and report peak performance as the mean of the last 40% (at
   most 20) iterations, plus the installed code size. *)

type iteration = {
  index : int;
  cycles : int;             (* simulated execution cycles of this iteration *)
  compiled_methods : int;   (* code-cache size after the iteration *)
}

type run = {
  name : string;            (* benchmark + configuration label *)
  iterations : iteration list;
  peak_cycles : float;      (* steady-state mean *)
  peak_stddev : float;
  code_size : int;          (* installed code size at the end *)
  compile_cycles : int;
  timeline : (string * int * int) list;  (* method, size, at_cycles; chronological *)
  invalidated : (string * int) list;     (* method, at_cycles; chronological *)
  bailed_out : (string * string * int) list;
  (* method, reason, at_cycles; chronological compile failures *)
  blacklisted : string list;  (* methods permanently retired to the interpreter *)
  output : string;          (* program output, for differential checking *)
  (* inline-cache totals over every site the run dispatched through *)
  ic_sites : int;
  ic_hits : int;
  ic_misses : int;
  ic_megamorphic : int;
  dispatch : string;        (* interpreted-tier dispatch: threaded/walker *)
  superinst : Runtime.Interp.sstat list;  (* mined fusion table at end of run *)
}

(* [None] when the run dispatched through no virtual sites at all — a
   0.0 "hit rate" there would be indistinguishable from a pathological
   all-miss run, so reports emit null instead. *)
let ic_hit_rate_opt (r : run) : float option =
  let d = r.ic_hits + r.ic_misses + r.ic_megamorphic in
  if d = 0 then None else Some (float_of_int r.ic_hits /. float_of_int d)

let ic_hit_rate (r : run) : float =
  match ic_hit_rate_opt r with Some rate -> rate | None -> 0.0

(* Runs [entry] (a 0-argument Sel function returning Int or Unit) [iters]
   times on a fresh engine. A [setup] entry, when present, runs once
   beforehand (workload initialization). *)
let run_benchmark ?(setup : string option) ~(iters : int) (engine : Engine.t)
    ~(entry : string) ~(label : string) : run =
  (* run boundary marker: [Obs.Summary.split_runs] keys per-run aggregates
     on it when one trace holds several harness runs *)
  Obs.Trace.emit "run_start" (fun () ->
      Support.Json.
        [ ("label", String label); ("entry", String entry); ("iters", Int iters) ]);
  (match setup with
  | Some s -> ignore (Engine.run_meth engine s [ Runtime.Values.Vunit ])
  | None -> ());
  let iterations = ref [] in
  for index = 1 to iters do
    let c0 = engine.vm.cycles in
    ignore (Engine.run_meth engine entry [ Runtime.Values.Vunit ]);
    iterations :=
      {
        index;
        cycles = engine.vm.cycles - c0;
        compiled_methods = Engine.installed_methods engine;
      }
      :: !iterations
  done;
  let iterations = List.rev !iterations in
  let series = List.map (fun i -> float_of_int i.cycles) iterations in
  let window = Support.Stats.steady_state_window series in
  let meth_name m = (Ir.Program.meth engine.vm.prog m).m_name in
  (* inline-cache accounting: one ic_site event per dispatched-through
     site (one record per site whatever code dispatched there, ordered by
     site, so identical runs emit identical traces), plus run-level
     totals *)
  let ics = Engine.ic_stats engine in
  List.iter
    (fun (st : Runtime.Interp.ic_stat) ->
      Obs.Trace.emit "ic_site" (fun () ->
          Support.Json.
            [
              ("m", Int st.st_site.sm);
              ("meth", String (meth_name st.st_site.sm));
              ("sidx", Int st.st_site.sidx);
              ("selector", String st.st_selector);
              ("ic_hit", Int st.st_hits);
              ("ic_miss", Int st.st_misses);
              ("ic_megamorphic", Int st.st_mega);
            ]))
    ics;
  let sum f = List.fold_left (fun acc st -> acc + f st) 0 ics in
  let s = Engine.stats engine in
  {
    name = label;
    iterations;
    peak_cycles = Support.Stats.mean window;
    peak_stddev = Support.Stats.stddev window;
    code_size = s.code_size;
    compile_cycles = s.compile_cycles;
    timeline =
      List.rev_map
        (fun (c : Engine.compilation) -> (meth_name c.cm, c.size, c.at_cycles))
        engine.compilations;
    invalidated =
      List.rev_map (fun (m, at) -> (meth_name m, at)) engine.invalidations;
    bailed_out =
      List.rev_map
        (fun (b : Engine.bailout) -> (meth_name b.bm, b.reason, b.at_cycles))
        engine.bailouts;
    blacklisted = List.map meth_name s.blacklisted_methods;
    output = Engine.output engine;
    ic_sites = List.length ics;
    ic_hits = sum (fun st -> st.Runtime.Interp.st_hits);
    ic_misses = sum (fun st -> st.Runtime.Interp.st_misses);
    ic_megamorphic = sum (fun st -> st.Runtime.Interp.st_mega);
    dispatch = Engine.dispatch_label engine;
    superinst = Engine.superinst_stats engine;
  }

(* The compile-timeline section of a run's JSON: when code was installed
   and how big it was. *)
let timeline_json (r : run) : Support.Json.t =
  Support.Json.Obj
    [
      ( "installs",
        Support.Json.List
          (List.map
             (fun (meth, size, at) ->
               Support.Json.Obj
                 [
                   ("meth", Support.Json.String meth);
                   ("size", Support.Json.Int size);
                   ("at_cycles", Support.Json.Int at);
                 ])
             r.timeline) );
      ( "invalidations",
        Support.Json.List
          (List.map
             (fun (meth, at) ->
               Support.Json.Obj
                 [
                   ("meth", Support.Json.String meth);
                   ("at_cycles", Support.Json.Int at);
                 ])
             r.invalidated) );
      ( "bailouts",
        Support.Json.List
          (List.map
             (fun (meth, reason, at) ->
               Support.Json.Obj
                 [
                   ("meth", Support.Json.String meth);
                   ("reason", Support.Json.String reason);
                   ("at_cycles", Support.Json.Int at);
                 ])
             r.bailed_out) );
      ( "blacklisted",
        Support.Json.List (List.map (fun m -> Support.Json.String m) r.blacklisted) );
      ("code_size", Support.Json.Int r.code_size);
      ("compile_cycles", Support.Json.Int r.compile_cycles);
    ]

(* Inline-cache totals of a run. A run without virtual dispatches
   reports hit_rate null, not 0.0 — there was nothing to hit. *)
let ic_json (r : run) : Support.Json.t =
  Support.Json.Obj
    [
      ("sites", Support.Json.Int r.ic_sites);
      ("hits", Support.Json.Int r.ic_hits);
      ("misses", Support.Json.Int r.ic_misses);
      ("megamorphic", Support.Json.Int r.ic_megamorphic);
      ( "hit_rate",
        match ic_hit_rate_opt r with
        | Some rate -> Support.Json.Float rate
        | None -> Support.Json.Null );
    ]

(* The mined superinstruction table of a run: which op sequences were
   fused, and at how many sites. *)
let superinst_json (r : run) : Support.Json.t =
  Support.Json.Obj
    [
      ("patterns", Support.Json.Int (List.length r.superinst));
      ( "fused_sites",
        Support.Json.Int
          (List.fold_left (fun a (s : Runtime.Interp.sstat) -> a + s.ss_sites) 0
             r.superinst) );
      ( "table",
        Support.Json.List
          (List.map
             (fun (s : Runtime.Interp.sstat) ->
               Support.Json.Obj
                 [
                   ("pattern", Support.Json.String s.ss_pattern);
                   ("sites", Support.Json.Int s.ss_sites);
                 ])
             r.superinst) );
    ]

(* The complete run as JSON, as `selvm bench --json` writes it. *)
let run_json (r : run) : Support.Json.t =
  Support.Json.Obj
    [
      ("name", Support.Json.String r.name);
      ("iterations", Support.Json.Int (List.length r.iterations));
      ("peak_cycles", Support.Json.Float r.peak_cycles);
      ("peak_stddev", Support.Json.Float r.peak_stddev);
      ( "per_iteration",
        Support.Json.List
          (List.map
             (fun (it : iteration) ->
               Support.Json.Obj
                 [
                   ("index", Support.Json.Int it.index);
                   ("cycles", Support.Json.Int it.cycles);
                   ("compiled_methods", Support.Json.Int it.compiled_methods);
                 ])
             r.iterations) );
      ("dispatch", Support.Json.String r.dispatch);
      ("ic", ic_json r);
      ("superinst", superinst_json r);
      ("timeline", timeline_json r);
    ]
