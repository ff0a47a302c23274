(* Interpreter-only wall-clock smoke benchmark.

   Runs every registered workload under the interpreter (no JIT compiler)
   on both backends — the reference IR walker and the closure-threaded
   engine with superinstructions — verifies per workload
   that the runs are observationally identical (output, simulated cycles
   and steps), and reports real steps/second for both plus the
   per-workload and aggregate speedup, the dispatch strategy, the mined
   superinstruction counts and the inline-cache hit rates. Each workload's timed section
   is best-of-3 per backend after one warmup pass each, so a stray
   scheduler hiccup on one pass cannot sink the gate, and the timed
   passes alternate between the backends, so a host that speeds up or
   slows down during the run moves both sides of the speedup alike.
   Results land in BENCH_interp.json in the working directory.

   This measures the harness itself, not the simulation: simulated cycles
   are identical by construction; wall-clock throughput is the win. The
   gated speedup is reference vs threaded — the production path. Every
   deterministic figure (OSR time-to-peak, fleet isolation) is a test. *)

let interp_config : Jit.Engine.config =
  {
    name = "interp";
    compiler = None;
    hotness_threshold = Common.hotness_threshold;
    compile_cost_per_node = Common.compile_cost_per_node;
    verify = false;
  }

let timed_passes = 3 (* best-of per backend, after one untimed warmup pass each *)

(* One full workload execution on one backend: a fresh engine every
   pass, so caches, profiles and the mined fusion table rebuild from
   scratch and every pass observes identical simulated behavior. *)
let one_pass (backend : Runtime.Interp.backend) (w : Workloads.Defs.t) :
    Jit.Engine.t * Jit.Harness.run * float =
  let prog = Workloads.Registry.compile w in
  let engine = Jit.Engine.create prog interp_config in
  engine.vm.backend <- backend;
  (* metrics recording stays on here (enabled-but-unread): it costs
     nothing on the step loop, so the speedup gate holds. Attribution is
     NOT enabled — its per-invocation enter/leave brackets are a
     deliberate opt-in profiling cost. *)
  let t0 = Unix.gettimeofday () in
  let run =
    Jit.Harness.run_benchmark ~iters:w.iters engine ~entry:"bench" ~label:w.name
  in
  let seconds = Unix.gettimeofday () -. t0 in
  (engine, run, seconds)

(* Per-workload comparison of the two backends, checked for
   observational equality on the spot. *)
type comparison = {
  c_name : string;
  c_steps : int;
  c_cycles : int;
  c_ref_seconds : float;
  c_thr_seconds : float;
  c_thr_run : Jit.Harness.run;
}

let check_equal (w : Workloads.Defs.t) (ref_engine : Jit.Engine.t)
    (ref_run : Jit.Harness.run) (engine : Jit.Engine.t) (run : Jit.Harness.run)
    : unit =
  if ref_engine.vm.cycles <> engine.vm.cycles then
    Fmt.failwith "%s: backend divergence: %d reference cycles vs %d threaded"
      w.name ref_engine.vm.cycles engine.vm.cycles;
  if ref_run.output <> run.output then
    Fmt.failwith "%s: backend divergence: outputs differ" w.name;
  if ref_engine.vm.steps <> engine.vm.steps then
    Fmt.failwith "%s: backend divergence: %d reference steps vs %d threaded"
      w.name ref_engine.vm.steps engine.vm.steps

(* One warmup pass per backend, then [timed_passes] rounds of one
   reference pass followed by one threaded pass, keeping each backend's
   best time. The last round's engines and runs serve the equality check
   and the stats (all passes are deterministic, so any round would do). *)
let compare_workload (w : Workloads.Defs.t) : comparison =
  ignore (one_pass Runtime.Interp.Reference w);
  ignore (one_pass Runtime.Interp.Threaded w);
  let ref_best = ref infinity and thr_best = ref infinity in
  let last = ref None in
  for _ = 1 to timed_passes do
    let ref_engine, ref_run, ref_seconds = one_pass Runtime.Interp.Reference w in
    let thr_engine, thr_run, thr_seconds = one_pass Runtime.Interp.Threaded w in
    ref_best := Float.min !ref_best ref_seconds;
    thr_best := Float.min !thr_best thr_seconds;
    last := Some (ref_engine, ref_run, thr_engine, thr_run)
  done;
  match !last with
  | None -> assert false
  | Some (ref_engine, ref_run, thr_engine, thr_run) ->
      check_equal w ref_engine ref_run thr_engine thr_run;
      {
        c_name = w.name;
        c_steps = thr_engine.vm.steps;
        c_cycles = thr_engine.vm.cycles;
        c_ref_seconds = !ref_best;
        c_thr_seconds = !thr_best;
        c_thr_run = thr_run;
      }

let workload_speedup (c : comparison) : float = c.c_ref_seconds /. c.c_thr_seconds

let fused_sites (c : comparison) : int =
  List.fold_left
    (fun a (s : Runtime.Interp.sstat) -> a + s.ss_sites)
    0 c.c_thr_run.superinst

let run () =
  let nworkloads = List.length Workloads.Registry.all in
  Common.print_header
    (Printf.sprintf
       "interp smoke: %d workloads, interpreter only, wall clock, best of %d"
       nworkloads timed_passes);
  let comparisons =
    Obs.Metrics.scoped (fun () -> List.map compare_workload Workloads.Registry.all)
  in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 comparisons in
  let sumf f = List.fold_left (fun acc c -> acc +. f c) 0.0 comparisons in
  let steps = sum (fun c -> c.c_steps) in
  let ref_seconds = sumf (fun c -> c.c_ref_seconds) in
  let thr_seconds = sumf (fun c -> c.c_thr_seconds) in
  let speedup = ref_seconds /. thr_seconds in
  let ic_sites = sum (fun c -> c.c_thr_run.ic_sites) in
  let ic_hits = sum (fun c -> c.c_thr_run.ic_hits) in
  let ic_misses = sum (fun c -> c.c_thr_run.ic_misses) in
  let ic_mega = sum (fun c -> c.c_thr_run.ic_megamorphic) in
  let ic_dispatches = ic_hits + ic_misses + ic_mega in
  let ic_hit_rate =
    if ic_dispatches = 0 then 0.0
    else float_of_int ic_hits /. float_of_int ic_dispatches
  in
  Common.print_table
    ~columns:
      [ "workload"; "steps"; "ref s"; "thr s"; "speedup"; "fused" ]
    ~rows:
      (List.map
         (fun c ->
           [
             c.c_name;
             string_of_int c.c_steps;
             Printf.sprintf "%.3f" c.c_ref_seconds;
             Printf.sprintf "%.3f" c.c_thr_seconds;
             Printf.sprintf "%.2fx" (workload_speedup c);
             string_of_int (fused_sites c);
           ])
         comparisons);
  Common.note
    "threaded engine speedup: %.2fx (outputs, cycles and steps identical per \
     workload)"
    speedup;
  Common.note "inline caches: %d sites, %d dispatches, %.1f%% hit rate" ic_sites
    ic_dispatches
    (100.0 *. ic_hit_rate);
  let backend_json (dispatch : string) (seconds : float) =
    Support.Json.Obj
      [
        ("dispatch", Support.Json.String dispatch);
        ("steps", Support.Json.Int steps);
        ("simulated_cycles", Support.Json.Int (sum (fun c -> c.c_cycles)));
        ("seconds", Support.Json.Float seconds);
        ("steps_per_sec", Support.Json.Float (float_of_int steps /. seconds));
      ]
  in
  let per_workload_json =
    Support.Json.List
      (List.map
         (fun c ->
           Support.Json.Obj
             [
               ("name", Support.Json.String c.c_name);
               ("steps", Support.Json.Int c.c_steps);
               ("reference_seconds", Support.Json.Float c.c_ref_seconds);
               ("threaded_seconds", Support.Json.Float c.c_thr_seconds);
               ("speedup", Support.Json.Float (workload_speedup c));
               ("dispatch", Support.Json.String c.c_thr_run.dispatch);
               ("superinst", Jit.Harness.superinst_json c.c_thr_run);
               ("ic_sites", Support.Json.Int c.c_thr_run.ic_sites);
               ( "ic_hit_rate",
                 match Jit.Harness.ic_hit_rate_opt c.c_thr_run with
                 | Some rate -> Support.Json.Float rate
                 | None -> Support.Json.Null );
             ])
         comparisons)
  in
  let json =
    Support.Json.Obj
      [
        ("benchmark", Support.Json.String "interp-smoke");
        ("workloads", Support.Json.Int nworkloads);
        ("timed_passes", Support.Json.Int timed_passes);
        ("identical_output", Support.Json.Bool true);
        ("reference", backend_json "walker" ref_seconds);
        ("threaded", backend_json "threaded" thr_seconds);
        ("speedup", Support.Json.Float speedup);
        ( "ic",
          Support.Json.Obj
            [
              ("sites", Support.Json.Int ic_sites);
              ("hits", Support.Json.Int ic_hits);
              ("misses", Support.Json.Int ic_misses);
              ("megamorphic", Support.Json.Int ic_mega);
              ( "hit_rate",
                if ic_dispatches = 0 then Support.Json.Null
                else Support.Json.Float ic_hit_rate );
            ] );
        ("per_workload", per_workload_json);
      ]
  in
  (* atomic: an interrupted run never leaves a truncated results file *)
  Support.Io.write_atomic "BENCH_interp.json" (Support.Json.to_string json ^ "\n");
  Common.note "wrote BENCH_interp.json"
