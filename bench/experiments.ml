(* The experiments: one function per figure/table of the paper's evaluation
   (Section V). Each prints the same rows/series the paper reports, over
   the Sel workload suite and the simulated-cycle clock. See DESIGN.md for
   the experiment index and EXPERIMENTS.md for paper-vs-measured notes. *)

open Common

let all_workloads = Workloads.Registry.all

let find name = Option.get (Workloads.Registry.find name)

(* ---------- Figure 5: warmup curves ---------- *)

(* The paper shows per-iteration running time during warmup for prominent
   benchmarks, for the new inliner vs. the alternatives. *)
let fig5 () =
  print_header
    "Figure 5 — warmup curves: per-iteration simulated cycles (prominent workloads)";
  let configs = [ cfg_incremental; cfg_greedy; cfg_c2 ] in
  List.iter
    (fun wname ->
      let w = find wname in
      let runs = List.map (fun c -> measure ~iters:30 w c) configs in
      Printf.printf "\n%s (compiled methods in brackets)\n" w.name;
      let columns = "iter" :: List.map (fun (c : config) -> c.label) configs in
      let rows =
        List.init 30 (fun i ->
            string_of_int (i + 1)
            :: List.map
                 (fun (m : measurement) ->
                   let it = List.nth m.run.iterations i in
                   Printf.sprintf "%d [%d]" it.cycles it.compiled_methods)
                 runs)
      in
      print_table ~columns ~rows)
    [ "foreach-poly"; "factorie-gm"; "jython-loop"; "gauss-mix" ];
  note
    "Expected shape: all configurations start at the interpreter's cost and drop as\n\
     methods compile; steady state is reached after a similar number of iterations,\n\
     with the incremental inliner's plateau lowest on the Scala-shaped workloads."

(* ---------- Figures 6 and 7: adaptive vs fixed thresholds ---------- *)

(* Constants are rescaled to the substrate: Sel bodies are ~10x smaller
   than Graal IR, so the paper's T_e in {500..7k} / T_i in {1k..6k} map to
   {50..700} / {100..600} here. *)
let te_values = [ 50; 100; 300; 500; 700 ]
let ti_values = [ 100; 300; 600 ]
let fixed_ti_for_fig6 = 600
let fixed_te_for_fig7 = 300

let sweep_table ~title ~configs ~workloads =
  print_header title;
  let columns =
    "workload" :: List.concat_map (fun (c : config) -> [ c.label; "code" ]) configs
  in
  let rows =
    List.map
      (fun (w : Workloads.Defs.t) ->
        let ms = List.map (fun c -> measure w c) configs in
        w.name
        :: List.concat_map
             (fun (m : measurement) ->
               [ fmt_cycles m.run.peak_cycles; string_of_int m.code_size ])
             ms)
      workloads
  in
  print_table ~columns ~rows

let fig6 () =
  let configs =
    cfg_incremental
    :: List.map
         (fun te ->
           cfg_params
             (Printf.sprintf "Te=%d" te)
             (Inliner.Params.with_fixed ~te ~ti:fixed_ti_for_fig6 Inliner.Params.default))
         te_values
  in
  sweep_table
    ~title:
      (Printf.sprintf
         "Figure 6 — adaptive vs fixed EXPANSION threshold (peak cycles; Ti=%d for all \
          fixed variants)"
         fixed_ti_for_fig6)
    ~configs ~workloads:all_workloads;
  note
    "Expected shape: no single Te is best everywhere — small Te wins on some\n\
     workloads and loses badly on others; the adaptive policy tracks the best fixed\n\
     value on most workloads without per-benchmark tuning (paper, Fig. 6)."

let fig7 () =
  let configs =
    cfg_incremental
    :: List.map
         (fun ti ->
           cfg_params
             (Printf.sprintf "Ti=%d" ti)
             (Inliner.Params.with_fixed ~te:fixed_te_for_fig7 ~ti Inliner.Params.default))
         ti_values
  in
  sweep_table
    ~title:
      (Printf.sprintf
         "Figure 7 — adaptive vs fixed INLINING threshold (peak cycles; Te=%d for all \
          fixed variants)"
         fixed_te_for_fig7)
    ~configs ~workloads:all_workloads;
  note
    "Expected shape: as in the paper, large Ti helps a few benchmarks and is an\n\
     extremely bad choice for others (code-size blowup); adaptive needs no tuning."

(* ---------- Figure 8: clustering vs 1-by-1 ---------- *)

let fig8_grid =
  [ (0.0005, 60.0); (0.005, 60.0); (0.05, 60.0); (0.3, 60.0); (0.005, 30.0);
    (0.005, 120.0) ]

let fig8_workloads =
  [ "foreach-poly"; "actors-msg"; "scalac-visitor"; "stm-bench"; "factorie-gm";
    "neo4j-query"; "sunflow-vec"; "gauss-mix" ]

let fig8 () =
  print_header
    "Figure 8 — callsite clustering vs 1-by-1 inlining across (t1, t2) parameters";
  let variants =
    List.concat_map
      (fun (t1, t2) ->
        let base = { Inliner.Params.default with t1; t2 } in
        [
          cfg_params (Printf.sprintf "cl(%g,%.0f)" t1 t2) base;
          cfg_params
            (Printf.sprintf "1x1(%g,%.0f)" t1 t2)
            (Inliner.Params.without_clustering base);
        ])
      fig8_grid
  in
  let columns = "workload" :: List.map (fun (c : config) -> c.label) variants in
  let rows =
    List.map
      (fun wname ->
        let w = find wname in
        wname
        :: List.map (fun c -> fmt_cycles (measure w c).run.peak_cycles) variants)
      fig8_workloads
  in
  print_table ~columns ~rows;
  note
    "Expected shape: 1-by-1 is sensitive to (t1, t2) — its best setting differs per\n\
     workload — while clustering is comparatively flat and matches or beats the best\n\
     1-by-1 variant (paper, Fig. 8)."

(* ---------- Figure 9: comparison against alternatives ---------- *)

let fig9 () =
  print_header
    "Figure 9 — peak performance: incremental vs greedy (open-source-Graal-like) vs \
     C2-like";
  let configs =
    [
      interp;
      cfg_greedy;
      cfg_c2;
      cfg_params "incr-shallow" (Inliner.Params.without_deep_trials Inliner.Params.default);
      cfg_incremental;
    ]
  in
  let columns =
    [ "workload"; "flavor"; "interp"; "greedy"; "c2-like"; "incr-shallow";
      "incremental"; "±std"; "vs greedy"; "vs c2" ]
  in
  let speedups_greedy = ref [] and speedups_c2 = ref [] in
  let rows =
    List.map
      (fun (w : Workloads.Defs.t) ->
        let ms = List.map (fun c -> measure w c) configs in
        let peak i = (List.nth ms i).run.peak_cycles in
        let vs_greedy = peak 1 /. peak 4 in
        let vs_c2 = peak 2 /. peak 4 in
        speedups_greedy := vs_greedy :: !speedups_greedy;
        speedups_c2 := vs_c2 :: !speedups_c2;
        [
          w.name;
          Workloads.Defs.flavor_to_string w.flavor;
          fmt_cycles (peak 0);
          fmt_cycles (peak 1);
          fmt_cycles (peak 2);
          fmt_cycles (peak 3);
          fmt_cycles (peak 4);
          Printf.sprintf "%.0f" (List.nth ms 4).run.peak_stddev;
          fmt_ratio vs_greedy;
          fmt_ratio vs_c2;
        ])
      all_workloads
  in
  print_table ~columns ~rows;
  note
    "geomean speedup: %.2fx vs greedy, %.2fx vs C2-like\n\
     Expected shape: the incremental inliner beats the greedy inliner everywhere\n\
     (up to multiples on Scala-shaped workloads) and beats C2-like on most; C2-like\n\
     may win narrowly on a Java-shaped workload or two. Deep trials (incremental vs\n\
     incr-shallow) matter mainly on abstraction-heavy code (paper, Fig. 9)."
    (Support.Stats.geomean !speedups_greedy)
    (Support.Stats.geomean !speedups_c2)

(* ---------- Figure 10 and Table I: code size ---------- *)

let code_size_data () =
  let configs = [ cfg_incremental; cfg_greedy; cfg_c2; cfg_c1 ] in
  List.map (fun (w : Workloads.Defs.t) -> (w, List.map (fun c -> measure w c) configs))
    all_workloads

let fig10 () =
  print_header
    "Figure 10 — installed code size (IR nodes) and compiled method counts";
  let data = code_size_data () in
  let columns =
    [ "workload"; "incr"; "(methods)"; "greedy"; "(methods)"; "c2-like"; "(methods)";
      "c1-all"; "(methods)" ]
  in
  let rows =
    List.map
      (fun ((w : Workloads.Defs.t), ms) ->
        w.name
        :: List.concat_map
             (fun (m : measurement) ->
               [ string_of_int m.code_size; string_of_int m.compiled_methods ])
             ms)
      data
  in
  print_table ~columns ~rows;
  note
    "Expected shape: the incremental inliner installs more code than greedy/C2-like\n\
     but far less than a compile-everything first tier; on some workloads (as in the\n\
     paper) its code is not larger at all because optimization-driven simplification\n\
     deletes what inlining duplicated.";
  data

let table1 ?(data : (Workloads.Defs.t * measurement list) list option) () =
  let data = match data with Some d -> d | None -> code_size_data () in
  print_header
    "Table I — total installed code size: incremental vs greedy vs C2-like";
  let ratios_greedy = ref [] and ratios_c2 = ref [] in
  let rows =
    List.map
      (fun ((w : Workloads.Defs.t), ms) ->
        let size i = (List.nth ms i).code_size in
        ratios_greedy := (float_of_int (size 0) /. float_of_int (max 1 (size 1))) :: !ratios_greedy;
        ratios_c2 := (float_of_int (size 0) /. float_of_int (max 1 (size 2))) :: !ratios_c2;
        [
          w.name;
          string_of_int (size 0);
          string_of_int (size 1);
          string_of_int (size 2);
          fmt_ratio (float_of_int (size 0) /. float_of_int (max 1 (size 1)));
          fmt_ratio (float_of_int (size 0) /. float_of_int (max 1 (size 2)));
        ])
      data
  in
  print_table
    ~columns:[ "workload"; "incr"; "greedy"; "c2-like"; "incr/greedy"; "incr/c2" ]
    ~rows;
  note
    "geomean code-size ratio: %.2fx vs greedy, %.2fx vs C2-like\n\
     (paper: =2.37x more code than the greedy inliner and =1.88x more than C2 on\n\
     average — more code, much faster; see Fig. 9)"
    (Support.Stats.geomean !ratios_greedy)
    (Support.Stats.geomean !ratios_c2)

(* ---------- warmup / compile budget (paper, Section IV "Parameter
   tuning": "another constraint was not to increase the warmup time by
   more than 20%") ---------- *)

let warmup () =
  print_header
    "Warmup — iterations to steady state and compile cycles (tuning constraint)";
  let configs = [ cfg_incremental; cfg_greedy; cfg_c2 ] in
  let columns =
    "workload"
    :: List.concat_map
         (fun (c : config) -> [ c.label ^ " iters"; "compile" ]) configs
  in
  let rows =
    List.map
      (fun (w : Workloads.Defs.t) ->
        w.name
        :: List.concat_map
             (fun c ->
               let m = measure w c in
               (* first iteration within 10% of peak *)
               let steady =
                 List.find_opt
                   (fun (it : Jit.Harness.iteration) ->
                     float_of_int it.cycles <= m.run.peak_cycles *. 1.1)
                   m.run.iterations
               in
               [
                 (match steady with
                 | Some it -> string_of_int it.index
                 | None -> "-");
                 string_of_int m.compile_cycles;
               ])
             configs)
      all_workloads
  in
  print_table ~columns ~rows;
  note
    "Expected shape (paper, Section IV parameter tuning): the incremental inliner\n\
     reaches steady state after a similar number of iterations as the baselines —\n\
     its extra exploration shows up as compile cycles, not as extra warmup\n\
     iterations."

(* ---------- substrate ablation: the per-round root optimizations
   (DESIGN.md design choices beyond the paper's own heuristics) ---------- *)

let opts_ablation () =
  print_header
    "Opts ablation — per-round root optimizations, each disabled in turn (peak cycles)";
  let p = Inliner.Params.default in
  let keeping label keep =
    cfg_params label { p with root_passes = List.filter (fun (n, _) -> keep n) p.root_passes }
  in
  let configs =
    (cfg_incremental
    :: List.map (fun (name, _) -> keeping ("-" ^ name) (( <> ) name)) p.root_passes)
    @ [ keeping "-all" (fun _ -> false) ]
  in
  let columns = "workload" :: List.map (fun (c : config) -> c.label) configs in
  let rows =
    List.map
      (fun (w : Workloads.Defs.t) ->
        w.name :: List.map (fun c -> fmt_cycles (measure w c).run.peak_cycles) configs)
      all_workloads
  in
  print_table ~columns ~rows;
  note
    "Reading: 'incremental' runs the full per-round pipeline; each column drops one\n\
     pass. Scalar replacement carries lambda-heavy workloads (it is what makes\n\
     cluster inlining pay, the Graal-EE partial-escape-analysis effect); read-write\n\
     elimination and LICM contribute broadly smaller amounts."

(* ---------- scaling: compile effort vs. call-graph size (Synth) ------- *)

let scaling () =
  print_header
    "Scaling — inliner effort vs. synthetic call-graph size (Workloads.Synth)";
  let columns =
    [ "shape"; "methods"; "peak"; "vs greedy"; "rounds"; "expanded"; "inlined";
      "root size"; "compile ms" ]
  in
  let rows =
    List.map
      (fun (depth, fanout, poly) ->
        let cfgen =
          { Workloads.Synth.default with depth; fanout; poly_degree = poly; seed = 7 }
        in
        let w = Workloads.Synth.generate cfgen in
        (* peak under the packaged configs *)
        let m_incr = measure w cfg_incremental in
        let m_greedy = measure w cfg_greedy in
        (* one direct compilation of bench, instrumented *)
        let prog = Workloads.Registry.compile w in
        Opt.Driver.prepare_program prog;
        let vm = Runtime.Interp.create prog in
        ignore (Runtime.Interp.run_meth vm "bench" [ Runtime.Values.Vunit ]);
        let root = Option.get (Ir.Program.find_meth prog "bench") in
        let t0 = Unix.gettimeofday () in
        let result = Inliner.Algorithm.compile prog vm.profiles Inliner.Params.default root in
        let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
        [
          Printf.sprintf "d%d f%d p%d" depth fanout poly;
          string_of_int (Ir.Program.num_meths prog);
          fmt_cycles m_incr.run.peak_cycles;
          fmt_ratio (m_greedy.run.peak_cycles /. m_incr.run.peak_cycles);
          string_of_int result.stats.rounds;
          string_of_int result.stats.expanded;
          string_of_int result.stats.inlined;
          string_of_int result.stats.final_size;
          Printf.sprintf "%.1f" ms;
        ])
      [ (2, 2, 3); (3, 2, 3); (4, 2, 3); (5, 2, 3); (6, 2, 3); (4, 3, 3); (4, 3, 6) ]
  in
  print_table ~columns ~rows;
  note
    "Expected shape: effort grows with the explorable graph but stays bounded by\n\
     the adaptive thresholds, the per-round expansion cap and the root size cap —\n\
     the compile-time discipline the paper's online setting demands (Section II).\n\
     Observed limitation, reported honestly: on deep *uniformly cold* towers the\n\
     cluster tuple (benefit minus children's benefits, Listing 6) telescopes the\n\
     interior heat away, so the incremental inliner can decline towers that the\n\
     greedy baseline's purely local rule inlines — it trails greedy by up to ~10%%\n\
     at depth 6. The paper's benchmarks (and the Sel suite) have skewed heat,\n\
     where cluster analysis wins; perfectly uniform towers are its adversary."

let all () =
  fig5 ();
  fig6 ();
  fig7 ();
  fig8 ();
  fig9 ();
  let data = fig10 () in
  table1 ~data ();
  warmup ();
  opts_ablation ();
  scaling ()
