(* Interpreter-only wall-clock smoke benchmark.

   Runs every registered workload under the interpreter (no JIT compiler)
   on both backends — the reference IR walker and the closure-threaded
   engine with profile-guided superinstructions — verifies per workload
   that the runs are observationally identical (output, simulated cycles
   and steps), and reports real steps/second for both plus the
   per-workload and aggregate speedup, the dispatch strategy, the mined
   superinstruction counts and the inline-cache hit rates. Each workload's timed section
   is best-of-3 after one warmup pass, so a stray scheduler hiccup on one
   pass cannot sink the gate. A JIT'd run of one workload with an
   attached telemetry trace contributes compile-timeline data. Results
   land in BENCH_interp.json in the working directory.

   This measures the harness itself, not the simulation: simulated cycles
   are identical by construction; wall-clock throughput is the win. The
   gated speedup is reference vs threaded — the production path. *)

let interp_config : Jit.Engine.config =
  {
    name = "interp";
    compiler = None;
    hotness_threshold = Common.hotness_threshold;
    compile_cost_per_node = Common.compile_cost_per_node;
    verify = false;
  }

let timed_passes = 3 (* best-of, after one untimed warmup pass *)

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
     NOT enabled on the gated runs — its per-invocation enter/leave
     brackets are a deliberate opt-in profiling cost; the traced JIT run
     below exercises it instead. *)
  let t0 = Unix.gettimeofday () in
  let run =
    Jit.Harness.run_benchmark ~iters:w.iters engine ~entry:"bench" ~label:w.name
  in
  let seconds = Unix.gettimeofday () -. t0 in
  (engine, run, seconds)

(* Warmup + best-of-N timed section; keeps the last pass's engine and
   run for equality checks and stats (all passes are deterministic, so
   any pass would do). *)
let run_workload (backend : Runtime.Interp.backend) (w : Workloads.Defs.t) :
    Jit.Engine.t * Jit.Harness.run * float =
  ignore (one_pass backend w);
  let best = ref infinity and last = ref None in
  for _ = 1 to timed_passes do
    let engine, run, seconds = one_pass backend w in
    if seconds < !best then best := seconds;
    last := Some (engine, run)
  done;
  match !last with
  | Some (engine, run) -> (engine, run, !best)
  | None -> assert false

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

let compare_workload (w : Workloads.Defs.t) : comparison =
  let ref_engine, ref_run, ref_seconds =
    run_workload Runtime.Interp.Reference w
  in
  let thr_engine, thr_run, thr_seconds =
    run_workload Runtime.Interp.Threaded w
  in
  check_equal w ref_engine ref_run thr_engine thr_run;
  {
    c_name = w.name;
    c_steps = thr_engine.vm.steps;
    c_cycles = thr_engine.vm.cycles;
    c_ref_seconds = ref_seconds;
    c_thr_seconds = thr_seconds;
    c_thr_run = thr_run;
  }

let workload_speedup (c : comparison) : float = c.c_ref_seconds /. c.c_thr_seconds

let fused_sites (c : comparison) : int =
  List.fold_left
    (fun a (s : Runtime.Interp.sstat) -> a + s.ss_sites)
    0 c.c_thr_run.superinst

(* One workload under the incremental JIT with an in-memory trace sink
   attached: the trace is digested back through [Obs.Summary] (a built-in
   self-check that the emitted JSONL parses) and its compile timeline is
   embedded in the result file. *)
let traced_jit_run () =
  let w = List.hd Workloads.Registry.all in
  let sink, lines = Obs.Trace.memory_sink () in
  let run, attrib, prog =
    Obs.Trace.scoped sink (fun () ->
        let prog = Workloads.Registry.compile w in
        let engine =
          Jit.Engine.create prog
            {
              name = "incremental";
              compiler = Some (Common.incremental ());
              hotness_threshold = Common.hotness_threshold;
              compile_cost_per_node = Common.compile_cost_per_node;
              verify = false;
            }
        in
        (* per-method cycle attribution rides the traced run: the hot
           methods land in BENCH_interp.json as a determinism anchor *)
        let attrib = Runtime.Interp.enable_attribution engine.vm in
        let run =
          Jit.Harness.run_benchmark ~iters:w.iters engine ~entry:"bench"
            ~label:w.name
        in
        (run, attrib, prog))
  in
  let summary =
    match Obs.Summary.of_lines (lines ()) with
    | Ok s -> s
    | Error e -> Fmt.failwith "trace self-check failed: %s" e
  in
  (w.name, run, summary, attrib, prog)

(* Time-to-peak: the simulated cycle at which a long-running loop first
   executes as compiled code. With OSR armed the running invocation
   transfers at the loop header — the first [osr_enter] event for the
   method. With OSR off the method only runs compiled from its next
   invocation, after the backedge-driven promotion installs it — the
   first [install] event. Both marks come off the same deterministic
   clock, so the collapse ratio (no-OSR over OSR) is stable and gateable
   in CI. *)
type ttp = { t_name : string; t_osr : int; t_no_osr : int }

let collapse (t : ttp) : float = float_of_int t.t_no_osr /. float_of_int t.t_osr

let osr_workload_names = [ "long-loop"; "nested-loop" ]

let time_to_peak (w : Workloads.Defs.t) : ttp =
  let run_one ~(osr : bool) : string list =
    (* a fresh compiler (and trial cache) per engine: each run compiles
       its own program instance *)
    let jit_config : Jit.Engine.config =
      {
        name = "incremental";
        compiler = Some (Common.incremental ());
        hotness_threshold = Common.hotness_threshold;
        compile_cost_per_node = Common.compile_cost_per_node;
        verify = false;
      }
    in
    let sink, lines = Obs.Trace.memory_sink () in
    Obs.Trace.scoped sink (fun () ->
        let prog = Workloads.Registry.compile w in
        let engine = Jit.Engine.create ~osr prog jit_config in
        ignore
          (Jit.Harness.run_benchmark ~iters:w.iters engine ~entry:"bench"
             ~label:w.name));
    lines ()
  in
  let first_cycles ~(kind : string) (lines : string list) : int =
    let mark l =
      match Support.Json.of_string l with
      | Error _ -> None
      | Ok j ->
          let str k = Option.bind (Support.Json.member k j) Support.Json.to_string_opt in
          let int k = Option.bind (Support.Json.member k j) Support.Json.to_int_opt in
          if str "ev" = Some kind && str "meth" = Some "bench" then int "cycles"
          else None
    in
    match List.filter_map mark lines with
    | c :: _ -> c
    | [] -> Fmt.failwith "%s: no %s event for method bench" w.name kind
  in
  {
    t_name = w.name;
    t_osr = first_cycles ~kind:"osr_enter" (run_one ~osr:true);
    t_no_osr = first_cycles ~kind:"install" (run_one ~osr:false);
  }

(* Fleet soak: 8 tenants multiplexed on bounded serving budgets with
   deterministic fault injection. The cache bound is sized at 25% of the
   demand an unbounded fleet measures, so eviction pressure is real, and
   every tenant is re-run solo under identical limits and asserted
   byte-identical — the serving layer may only degrade *when* a tenant
   reaches peak, never *what* it computes. Everything reported is
   simulated (steps, cycles, digests, percentiles), so the fleet section
   of BENCH_interp.json is byte-identical across same-seed runs. *)
let fleet_size = 8

let fleet_chaos_rate = 0.2

let fleet_chaos_seed = 0xC0FFEE

let fleet_tenants () : Jit.Serve.tenant list =
  let all = Workloads.Registry.all in
  List.init fleet_size (fun i ->
      let w = List.nth all (i mod List.length all) in
      {
        Jit.Serve.tn_id =
          Printf.sprintf "%s#%d" w.Workloads.Defs.name (i / List.length all);
        tn_make =
          (fun () ->
            ( Workloads.Registry.compile w,
              {
                Jit.Engine.name = "incremental";
                compiler = Some (Common.incremental ());
                hotness_threshold = Common.hotness_threshold;
                compile_cost_per_node = Common.compile_cost_per_node;
                verify = false;
              } ));
        tn_iters = w.iters;
      })

let fleet_soak () :
    int * int * Jit.Serve.limits * Jit.Serve.tenant_report list * string list
    * Obs.Slo.violation list =
  let tenants = fleet_tenants () in
  (* demand: the largest per-tenant resident code when nothing evicts *)
  let unbounded =
    Jit.Serve.run
      ~limits:{ Jit.Serve.default_limits with queue_capacity = Some 4 }
      tenants
  in
  let demand =
    List.fold_left
      (fun a (r : Jit.Serve.tenant_report) -> max a r.tr_cache_used)
      0 unbounded
  in
  let cap = max 1 (demand / 4) in
  let limits =
    {
      Jit.Serve.queue_capacity = Some 4;
      queue_age_unit = 1024;
      cache_capacity = Some cap;
      compile_deadline = None;
      chaos_rate = fleet_chaos_rate;
      chaos_seed = fleet_chaos_seed;
    }
  in
  (* the soak run doubles as the timeline/SLO exemplar: gauge samples and
     monitor state ride the simulated clock, so the rows (and their
     digest below) are byte-identical across same-seed runs *)
  let tl, read_rows = Obs.Timeline.memory () in
  let mon = Obs.Slo.monitor Obs.Slo.default_specs in
  let fleet = Jit.Serve.run ~limits ~timeline:tl ~slo:mon tenants in
  List.iter2
    (fun (f : Jit.Serve.tenant_report) tn ->
      match Jit.Serve.run ~limits [ tn ] with
      | [ s ] ->
          if f <> s then
            Fmt.failwith
              "fleet soak: tenant %s diverges from its solo run (fleet \
               steps=%d cycles=%d vs solo steps=%d cycles=%d)"
              f.tr_id f.tr_steps f.tr_cycles s.tr_steps s.tr_cycles
      | _ -> assert false)
    fleet tenants;
  (demand, cap, limits, fleet, read_rows (), Obs.Slo.violations mon)

let run () =
  let nworkloads = List.length Workloads.Registry.all in
  Common.print_header
    (Printf.sprintf
       "interp smoke: %d workloads, interpreter only, wall clock, best of %d"
       nworkloads timed_passes);
  (* metrics recording on for the whole smoke — enabled-but-unread during
     the measured runs, then exported into the results file *)
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  let comparisons = List.map compare_workload Workloads.Registry.all in
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
  let traced_name, traced, summary, attrib, traced_prog = traced_jit_run () in
  Common.note "trace smoke: %s under incremental — %d events, %d installs, %d IR nodes"
    traced_name summary.Obs.Summary.total
    (List.length traced.Jit.Harness.timeline)
    traced.Jit.Harness.code_size;
  (* compile-latency distribution of the traced JIT run, off the metrics
     registry's log2 histogram (simulated cycles, so deterministic) *)
  let ttps =
    List.map
      (fun name ->
        match Workloads.Registry.find name with
        | Some w -> time_to_peak w
        | None -> Fmt.failwith "unknown OSR workload %s" name)
      osr_workload_names
  in
  Common.print_table
    ~columns:[ "workload"; "peak w/ OSR"; "peak w/o OSR"; "collapse" ]
    ~rows:
      (List.map
         (fun t ->
           [
             t.t_name;
             string_of_int t.t_osr;
             string_of_int t.t_no_osr;
             Printf.sprintf "%.1fx" (collapse t);
           ])
         ttps);
  Common.note
    "OSR time-to-peak: cycles until the hot loop runs compiled, \
     mid-invocation transfer vs next-invocation promotion";
  let ttp_json =
    Support.Json.List
      (List.map
         (fun t ->
           Support.Json.Obj
             [
               ("name", Support.Json.String t.t_name);
               ("osr_cycles", Support.Json.Int t.t_osr);
               ("no_osr_cycles", Support.Json.Int t.t_no_osr);
               ("collapse", Support.Json.Float (collapse t));
             ])
         ttps)
  in
  let fleet_demand, fleet_cap, fleet_limits, fleet, fleet_rows, fleet_viols =
    fleet_soak ()
  in
  Common.print_table
    ~columns:
      [ "tenant"; "iters"; "steps"; "installs"; "evict"; "shed"; "qwait p99";
        "ttp p99" ]
    ~rows:
      (List.map
         (fun (r : Jit.Serve.tenant_report) ->
           [
             r.tr_id;
             string_of_int r.tr_iters;
             string_of_int r.tr_steps;
             string_of_int r.tr_installs;
             string_of_int r.tr_evictions;
             string_of_int r.tr_sheds;
             string_of_int r.tr_queue_wait_p99;
             string_of_int r.tr_ttp_p99;
           ])
         fleet);
  Common.note
    "fleet soak: %d tenants, cache %d nodes (25%% of %d demand), chaos %.2f \
     — every tenant byte-identical to its solo run"
    fleet_size fleet_cap fleet_demand fleet_chaos_rate;
  let timeline_rows =
    match Obs.Timeline.rows_of_lines fleet_rows with
    | Ok rs -> rs
    | Error e -> Fmt.failwith "fleet soak: malformed timeline row: %s" e
  in
  let count_kind k =
    List.length
      (List.filter (fun (r : Obs.Timeline.row) -> r.r_kind = k) timeline_rows)
  in
  let slo_counts =
    List.map
      (fun (s : Obs.Slo.spec) ->
        ( s.sp_name,
          List.length
            (List.filter
               (fun (v : Obs.Slo.violation) -> v.v_slo = s.sp_name)
               fleet_viols) ))
      Obs.Slo.default_specs
  in
  Common.note
    "fleet timeline: %d rows (%d samples, %d fleet), SLO firings: %s"
    (List.length fleet_rows)
    (count_kind "timeline_sample")
    (count_kind "timeline_fleet")
    (String.concat ", "
       (List.map (fun (n, c) -> Printf.sprintf "%s=%d" n c) slo_counts));
  let fleet_json =
    Support.Json.Obj
      [
        ("tenants", Support.Json.Int fleet_size);
        ( "queue_capacity",
          Support.Json.Int
            (match fleet_limits.Jit.Serve.queue_capacity with
            | Some c -> c
            | None -> -1) );
        ("cache_capacity", Support.Json.Int fleet_cap);
        ("demand", Support.Json.Int fleet_demand);
        ("chaos_rate", Support.Json.Float fleet_chaos_rate);
        ("chaos_seed", Support.Json.Int fleet_chaos_seed);
        ("solo_identical", Support.Json.Bool true);
        ("report", Jit.Serve.report_json fleet);
        ( "timeline",
          Support.Json.Obj
            [
              ("interval", Support.Json.Int Obs.Timeline.default_interval);
              ("rows", Support.Json.Int (List.length fleet_rows));
              ("samples", Support.Json.Int (count_kind "timeline_sample"));
              ("fleet_rows", Support.Json.Int (count_kind "timeline_fleet"));
              ( "digest",
                Support.Json.String
                  (Digest.to_hex
                     (Digest.string (String.concat "\n" fleet_rows))) );
            ] );
        ( "slo",
          Support.Json.Obj
            (List.map (fun (n, c) -> (n, Support.Json.Int c)) slo_counts) );
      ]
  in
  let latency = Obs.Metrics.histogram "jit.compile_latency_cycles" in
  let lat_p50 = Obs.Metrics.percentile latency 0.5 in
  let lat_p90 = Obs.Metrics.percentile latency 0.9 in
  let lat_max = Obs.Metrics.percentile latency 1.0 in
  Common.note "compile latency (cycles): p50=%d p90=%d max=%d" lat_p50 lat_p90
    lat_max;
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
        ("osr_time_to_peak", ttp_json);
        ("fleet", fleet_json);
        ( "trace",
          Support.Json.Obj
            [
              ("workload", Support.Json.String traced_name);
              ("config", Support.Json.String "incremental");
              ("events", Support.Json.Int summary.Obs.Summary.total);
              ( "events_by_kind",
                Support.Json.Obj
                  (List.map
                     (fun (k, n) -> (k, Support.Json.Int n))
                     summary.Obs.Summary.kinds) );
              ("dispatch", Support.Json.String traced.Jit.Harness.dispatch);
              ("ic", Jit.Harness.ic_json traced);
              ("superinst", Jit.Harness.superinst_json traced);
              ("timeline", Jit.Harness.timeline_json traced);
              ( "compile_latency",
                Support.Json.Obj
                  [
                    ("p50", Support.Json.Int lat_p50);
                    ("p90", Support.Json.Int lat_p90);
                    ("max", Support.Json.Int lat_max);
                  ] );
              ( "hot_methods",
                (* top of the traced run's attribution table — simulated
                   cycles, so stable across runs *)
                let name m = (Ir.Program.meth traced_prog m).Ir.Types.m_name in
                Support.Json.List
                  (List.filteri (fun i _ -> i < 5) (Runtime.Attribution.rows attrib)
                  |> List.map (fun (r : Runtime.Attribution.row) ->
                         Support.Json.Obj
                           [
                             ("meth", Support.Json.String (name r.r_meth));
                             ("self_cycles", Support.Json.Int r.r_self);
                             ("total_cycles", Support.Json.Int r.r_total);
                             ("invocations", Support.Json.Int r.r_invocations);
                           ])) );
            ] );
        ("metrics", Obs.Metrics.to_json ());
      ]
  in
  Obs.Metrics.set_enabled false;
  (* atomic: an interrupted run never leaves a truncated results file *)
  Support.Io.write_atomic "BENCH_interp.json" (Support.Json.to_string json ^ "\n");
  Common.note "wrote BENCH_interp.json"
