(* The SelVM command-line interface.

     selvm run prog.sel                       # run main under the JIT
     selvm run --config greedy prog.sel       # choose the inliner
     selvm run --trace events.jsonl prog.sel  # record structured JIT telemetry
     selvm bench --entry bench prog.sel       # repeat a method, report cycles
     selvm compile --method f prog.sel        # dump a method's optimized IR
     selvm events events.jsonl                # summarize a recorded trace
     selvm workloads                          # list the built-in benchmarks
     selvm run --workload gauss-mix           # run a built-in benchmark
     selvm serve --tenants "long-loop*2,gauss-mix" --cache-capacity 800
                                              # multi-tenant serving harness

   Configurations: interp (no JIT), greedy (open-source-Graal-like),
   c2 (HotSpot-C2-like), incremental (the paper's algorithm, default),
   and the ablations incremental-1by1, incremental-shallow,
   incremental-fixed. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let compiler_of_config (name : string) : (Jit.Engine.compiler option, string) result =
  let incr params : Jit.Engine.compiler =
   fun prog profiles m -> (Inliner.Algorithm.compile prog profiles params m).body
  in
  match name with
  | "interp" -> Ok None
  | "greedy" -> Ok (Some (fun p pr m -> Baselines.Greedy.compile p pr m))
  | "c2" -> Ok (Some (fun p pr m -> Baselines.C2like.compile p pr m))
  | "incremental" -> Ok (Some (incr Inliner.Params.default))
  | "incremental-1by1" ->
      Ok (Some (incr (Inliner.Params.without_clustering Inliner.Params.default)))
  | "incremental-shallow" ->
      Ok (Some (incr (Inliner.Params.without_deep_trials Inliner.Params.default)))
  | "incremental-fixed" ->
      Ok (Some (incr (Inliner.Params.with_fixed ~te:300 ~ti:600 Inliner.Params.default)))
  | other -> Error (Printf.sprintf "unknown configuration %s" other)

let load_program ~(file : string option) ~(workload : string option) :
    (Ir.Types.program * string, string) result =
  match (file, workload) with
  | Some path, None -> (
      match read_file path with
      | exception Sys_error e -> Error e
      | text -> (
          match Frontend.Pipeline.compile text with
          | Ok prog -> Ok (prog, path)
          | Error e -> Error (Frontend.Pipeline.error_to_string e)))
  | None, Some name -> (
      match Workloads.Registry.find name with
      | Some w -> Ok (Workloads.Registry.compile w, name)
      | None ->
          Error
            (Printf.sprintf "unknown workload %s (try: selvm workloads)" name))
  | Some _, Some _ -> Error "pass either a file or --workload, not both"
  | None, None -> Error "pass a .sel file or --workload NAME"

let make_engine ?compile_fuel ?(osr = true) prog config hotness verify =
  match compiler_of_config config with
  | Error e -> Error e
  | Ok compiler ->
      Ok
        (Jit.Engine.create ?compile_fuel ~osr prog
           {
             name = config;
             compiler;
             hotness_threshold = hotness;
             compile_cost_per_node = 50;
             verify;
           })

let print_stats (e : Jit.Engine.t) =
  let s = Jit.Engine.stats e in
  Printf.eprintf
    "-- %s: %d cycles executed, %d methods compiled (%d IR nodes installed, %d \
     compile cycles)\n"
    e.config.name s.cycles s.compiled s.code_size s.compile_cycles;
  if s.failed_attempts > 0 then
    Printf.eprintf "-- bailouts: %d failed attempts over %d methods, %d blacklisted\n"
      s.failed_attempts s.failed_methods
      (List.length s.blacklisted_methods);
  (match Jit.Engine.superinst_stats e with
  | [] -> ()
  | ss ->
      Printf.eprintf "-- superinstructions (%s dispatch): %d patterns, %d fused sites\n"
        (Jit.Engine.dispatch_label e)
        (List.length ss)
        (List.fold_left
           (fun a (s : Runtime.Interp.sstat) -> a + s.ss_sites)
           0 ss));
  match Support.Chaos.plan () with
  | Some p ->
      Printf.eprintf "-- chaos: seed %d rate %.2f: %d faults injected over %d rolls\n"
        p.seed p.rate p.injected p.rolls
  | None -> ()

(* ---- common options ---- *)

let file_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Sel source file.")

let workload_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "workload"; "w" ] ~docv:"NAME" ~doc:"Run a built-in workload instead of a file.")

let config_arg =
  Arg.(
    value
    & opt string "incremental"
    & info [ "config"; "c" ] ~docv:"CONFIG"
        ~doc:
          "JIT configuration: interp, greedy, c2, incremental, incremental-1by1, \
           incremental-shallow, incremental-fixed.")

let hotness_arg =
  Arg.(
    value
    & opt int 8
    & info [ "hotness" ] ~docv:"N" ~doc:"Invocations before a method compiles.")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print engine statistics to stderr.")

let verify_arg =
  Arg.(value & flag & info [ "verify" ] ~doc:"Verify every compiled body (slower).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record structured JIT telemetry (compiles, installs, invalidations, \
           inliner decisions, optimizer counters) as JSONL to FILE. Events carry \
           the simulated cycle clock, so identical runs produce identical traces. \
           Summarize with `selvm events FILE`.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Record the metrics registry (counters, gauges, log2-bucketed \
           histograms: compiles, compile latency, inline depth, IC hit rates, \
           bailouts) and write it to FILE as JSON at exit. Values derive from \
           the simulated clocks, so identical runs write identical files.")

let chaos_seed_arg =
  Arg.(
    value
    & opt int 1
    & info [ "chaos-seed" ] ~docv:"N"
        ~doc:"Seed of the deterministic fault-injection plan (with --chaos-rate).")

let chaos_rate_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "chaos-rate" ] ~docv:"R"
        ~doc:
          "Inject a fault (compiler crash, verifier reject, starved compile budget, \
           invalidation storm) with probability R at each opportunity; 0 disables. \
           The same seed and rate replay the exact same fault sequence; program \
           output is unaffected — faulted methods degrade to the interpreter.")

let no_osr_arg =
  Arg.(
    value & flag
    & info [ "no-osr" ]
        ~doc:
          "Kill switch for loop-entry on-stack replacement: long-running \
           interpreted loops wait for their next invocation instead of \
           transferring into compiled code mid-invocation. Program output is \
           identical either way; only warmup latency differs. The \
           backedge-driven hotness trigger at method entry stays active.")

let timeline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "timeline" ] ~docv:"FILE"
        ~doc:
          "Stream time-series telemetry as JSONL to FILE: one gauge snapshot \
           (tier residency, queue depth, cache occupancy, deopt/OSR/bailout \
           counters) per tenant every \
           --timeline-interval simulated cycles, and per-turn fleet rows under \
           `selvm serve`. Samples ride the deterministic cycle clock, so \
           same-seed runs produce byte-identical timelines. Inspect with \
           `selvm top FILE`, gate with `selvm slo --check FILE`.")

let timeline_interval_arg =
  Arg.(
    value
    & opt int Obs.Timeline.default_interval
    & info [ "timeline-interval" ] ~docv:"CYCLES"
        ~doc:"Simulated cycles between timeline samples of one source.")

let compile_fuel_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "compile-fuel" ] ~docv:"N"
        ~doc:
          "Watchdog budget per compilation, in fuel checkpoints; a compilation \
           exceeding it falls back to its best completed inlining round, or bails \
           out entirely when not even one round finished.")

let fail msg =
  Printf.eprintf "selvm: %s\n" msg;
  exit 1

(* A count option that must be at least [min]. *)
let check_at_least (flag : string) (min : int) (n : int) : unit =
  if n < min then fail (Printf.sprintf "--%s must be at least %d" flag min)

(* A budget or capacity option: absent, or a count of at least 0. *)
let check_nonneg (flag : string) (v : int option) : unit =
  Option.iter (check_at_least flag 0) v

(* Runs [f] with a JSONL trace sink on [path] when --trace was given. The
   trace is written atomically; an unwritable path is a one-line
   diagnostic, not a backtrace. *)
let with_optional_trace (path : string option) (f : unit -> 'a) : 'a =
  match path with
  | None -> f ()
  | Some path -> (
      try Obs.Trace.with_file path f
      with Sys_error e -> fail ("cannot write --trace: " ^ e))

(* Runs [f] with the metrics registry enabled when --metrics was given,
   writing the registry as one JSON line to [path] afterwards (atomic,
   like --trace). *)
let with_optional_metrics (path : string option) (f : unit -> 'a) : 'a =
  match path with
  | None -> f ()
  | Some path ->
      Obs.Metrics.reset ();
      let v = Obs.Metrics.scoped f in
      (try
         Support.Io.write_atomic path
           (Support.Json.to_string (Obs.Metrics.to_json ()) ^ "\n")
       with Sys_error e -> fail ("cannot write --metrics: " ^ e));
      v

(* Runs [f] with a timeline sampler on [path] when --timeline was given
   (atomic, like --trace). `selvm slo --check` runs the SLO detectors
   over the file afterwards. *)
let with_optional_timeline (path : string option) ~(interval : int)
    (f : Obs.Timeline.t option -> 'a) : 'a =
  match path with
  | None -> f None
  | Some path -> (
      if interval < 1 then fail "--timeline-interval must be >= 1";
      try Obs.Timeline.with_file ~interval path (fun tl -> f (Some tl))
      with Sys_error e -> fail ("cannot write --timeline: " ^ e))

(* Runs [f] under a chaos fault plan when --chaos-rate > 0. *)
let with_optional_chaos ~(seed : int) ~(rate : float) (f : unit -> 'a) : 'a =
  if rate = 0.0 then f ()
  else if not (Float.is_finite rate) || rate < 0.0 || rate > 1.0 then
    fail "--chaos-rate must be in [0, 1]"
  else Support.Chaos.scoped ~seed ~rate f

(* ---- run ---- *)

let run_cmd =
  let run file workload config hotness stats verify trace metrics chaos_seed
      chaos_rate compile_fuel no_osr timeline timeline_interval =
    check_at_least "hotness" 1 hotness;
    check_nonneg "compile-fuel" compile_fuel;
    match load_program ~file ~workload with
    | Error e -> fail e
    | Ok (prog, label) -> (
        (* failures inside the trace scope are carried out as [Error] and
           reported after it closes: [exit] would not unwind the scope, and
           the trace file only renames into place when the scope exits *)
        let outcome =
          with_optional_trace trace (fun () ->
              with_optional_metrics metrics (fun () ->
                  with_optional_timeline timeline ~interval:timeline_interval
                    (fun tl ->
                      with_optional_chaos ~seed:chaos_seed ~rate:chaos_rate
                        (fun () ->
                          match
                            make_engine ?compile_fuel ~osr:(not no_osr) prog
                              config hotness verify
                          with
                          | Error e -> Error e
                          | Ok e -> (
                              (match tl with
                              | Some tl ->
                                  Jit.Engine.attach_timeline e ~source:label tl
                              | None -> ());
                              match Jit.Engine.run_main e with
                              | _ ->
                                  Jit.Engine.sample_timeline ~force:true e;
                                  print_string (Jit.Engine.output e);
                                  if stats then print_stats e;
                                  if Obs.Metrics.enabled () then
                                    Jit.Engine.snapshot_metrics e;
                                  Ok ()
                              | exception Runtime.Values.Trap msg ->
                                  print_string (Jit.Engine.output e);
                                  Error ("runtime trap: " ^ msg))))))
        in
        match outcome with Ok () -> () | Error e -> fail e)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a Sel program's main under the JIT.")
    Term.(
      const run $ file_arg $ workload_arg $ config_arg $ hotness_arg $ stats_arg
      $ verify_arg $ trace_arg $ metrics_arg $ chaos_seed_arg $ chaos_rate_arg
      $ compile_fuel_arg $ no_osr_arg $ timeline_arg
      $ timeline_interval_arg)

(* ---- bench ---- *)

let bench_cmd =
  let entry_arg =
    Arg.(
      value & opt string "bench"
      & info [ "entry" ] ~docv:"METHOD" ~doc:"0-argument method to repeat.")
  in
  let iters_arg =
    Arg.(value & opt int 40 & info [ "iters" ] ~docv:"N" ~doc:"Iterations to run.")
  in
  let save_profiles_arg =
    Arg.(
      value & opt (some string) None
      & info [ "save-profiles" ] ~docv:"FILE"
          ~doc:"Write the collected profiles to FILE afterwards (see `compile \
                --profiles`).")
  in
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the full run (iterations, inline-cache totals, compile \
                timeline) to FILE as JSON.")
  in
  let bench file workload config hotness entry iters save_profiles json trace
      chaos_seed chaos_rate compile_fuel no_osr =
    check_at_least "hotness" 1 hotness;
    check_at_least "iters" 1 iters;
    check_nonneg "compile-fuel" compile_fuel;
    match load_program ~file ~workload with
    | Error e -> fail e
    | Ok (prog, label) -> (
        (* as in `run`: carry failures out of the trace scope so the
           atomic trace rename still happens before exiting *)
        let outcome =
          with_optional_trace trace (fun () ->
              with_optional_chaos ~seed:chaos_seed ~rate:chaos_rate (fun () ->
                  match
                    make_engine ?compile_fuel ~osr:(not no_osr) prog config
                      hotness false
                  with
                  | Error e -> Error e
                  | Ok e -> (
                      match
                        Jit.Harness.run_benchmark ~iters e ~entry
                          ~label:(label ^ "/" ^ config)
                      with
                      | exception Runtime.Values.Trap msg ->
                          Error ("runtime trap: " ^ msg)
                      | run -> (
                          Printf.printf "# %s  entry=%s config=%s\n" label entry config;
                          Printf.printf "# iter cycles compiled_methods\n";
                          List.iter
                            (fun (it : Jit.Harness.iteration) ->
                              Printf.printf "%d %d %d\n" it.index it.cycles
                                it.compiled_methods)
                            run.iterations;
                          Printf.printf
                            "# peak %.1f +- %.1f cycles; %d IR nodes installed\n"
                            run.peak_cycles run.peak_stddev run.code_size;
                          if run.ic_sites > 0 then
                            Printf.printf "# inline caches: %d sites, %.1f%% hit rate\n"
                              run.ic_sites
                              (100.0 *. Jit.Harness.ic_hit_rate run);
                          if run.bailed_out <> [] then
                            Printf.printf "# %d compile bailouts; blacklisted: %s\n"
                              (List.length run.bailed_out)
                              (match run.blacklisted with
                              | [] -> "none"
                              | ms -> String.concat ", " ms);
                          match
                            (match json with
                            | Some path ->
                                Support.Io.write_atomic path
                                  (Support.Json.to_string (Jit.Harness.run_json run)
                                  ^ "\n");
                                Printf.eprintf "-- run JSON written to %s\n" path
                            | None -> ());
                            match save_profiles with
                            | Some path ->
                                Support.Io.write_atomic path
                                  (Runtime.Profile.to_text e.vm.profiles);
                                Printf.eprintf "-- profiles written to %s\n" path
                            | None -> ()
                          with
                          | () -> Ok ()
                          | exception Sys_error msg ->
                              Error ("cannot write results: " ^ msg)))))
        in
        match outcome with Ok () -> () | Error e -> fail e)
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Repeat a method and report per-iteration simulated cycles.")
    Term.(
      const bench $ file_arg $ workload_arg $ config_arg $ hotness_arg $ entry_arg
      $ iters_arg $ save_profiles_arg $ json_arg $ trace_arg $ chaos_seed_arg
      $ chaos_rate_arg $ compile_fuel_arg $ no_osr_arg)

(* ---- compile ---- *)

let compile_cmd =
  let method_arg =
    Arg.(
      required & opt (some string) None
      & info [ "method"; "m" ] ~docv:"NAME" ~doc:"Method to compile and dump.")
  in
  let warmup_arg =
    Arg.(
      value & opt int 5
      & info [ "warmup" ] ~docv:"N" ~doc:"main() runs to collect profiles first.")
  in
  let profiles_arg =
    Arg.(
      value & opt (some string) None
      & info [ "profiles" ] ~docv:"FILE"
          ~doc:"Load profiles saved by `bench --save-profiles` (from the same \
                sources) instead of interpreting main for warmup.")
  in
  let compile file workload config meth_name warmup profiles =
    check_at_least "warmup" 0 warmup;
    match load_program ~file ~workload with
    | Error e -> fail e
    | Ok (prog, _) -> (
        Opt.Driver.prepare_program prog;
        (* the profile the compiler reads: loaded, or collected by running
           main [warmup] times *)
        let profile =
          match profiles with
          | Some path -> (
              match read_file path with
              | exception Sys_error e -> fail e
              | text -> (
                  match Runtime.Profile.of_text text with
                  | loaded -> loaded
                  | exception Runtime.Profile.Bad_profile msg ->
                      fail ("bad profile file: " ^ msg)))
          | None -> (
              let vm = Runtime.Interp.create prog in
              try
                for _ = 1 to warmup do
                  ignore (Runtime.Interp.run_main vm)
                done;
                vm.profiles
              with Runtime.Values.Trap msg -> fail ("runtime trap: " ^ msg))
        in
        match Ir.Program.find_meth prog meth_name with
        | None -> fail (Printf.sprintf "no method named %s" meth_name)
        | Some m -> (
            match ((Ir.Program.meth prog m).body, compiler_of_config config) with
            | None, _ -> fail (Printf.sprintf "%s is abstract: it has no body" meth_name)
            | _, Error e -> fail e
            | Some body, Ok None ->
                (* interp: show the prepared body *)
                print_string (Ir.Printer.fn_to_string body)
            | Some _, Ok (Some compiler) -> (
                match compiler prog profile m with
                | exception e when Jit.Engine.containable e ->
                    fail
                      (Printf.sprintf "compiling %s failed: %s" meth_name
                         (Printexc.to_string e))
                | body ->
                    Printf.printf "; %s compiled with %s (%d IR nodes)\n" meth_name
                      config (Ir.Fn.size body);
                    print_string (Ir.Printer.fn_to_string body))))
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Profile a program, compile one method, and dump the optimized IR.")
    Term.(
      const compile $ file_arg $ workload_arg $ config_arg $ method_arg $ warmup_arg
      $ profiles_arg)

(* ---- parse-ir ---- *)

let parse_ir_cmd =
  let file_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Textual IR dump (the format `selvm compile` prints).")
  in
  let parse_ir file =
    let text =
      match read_file file with text -> text | exception Sys_error e -> fail e
    in
    (* tolerate a leading `; comment` line from `selvm compile` output *)
    let text =
      if String.length text > 0 && text.[0] = ';' then
        match String.index_opt text '\n' with
        | Some i -> String.sub text (i + 1) (String.length text - i - 1)
        | None -> text
      else text
    in
    match Ir.Parse.parse_fn text with
    | fn -> (
        (match Ir.Verify.check fn with
        | () -> ()
        | exception Ir.Verify.Ill_formed msg ->
            fail (Printf.sprintf "parses but is ill-formed: %s" msg));
        match Ir.Verify.check_types fn with
        | () ->
            Printf.printf "%s: well-formed, %d IR nodes, %d blocks\n" fn.fname
              (Ir.Fn.size fn)
              (List.length (Ir.Fn.block_ids fn))
        | exception Ir.Verify.Ill_formed msg ->
            fail (Printf.sprintf "parses but is ill-typed: %s" msg))
    | exception Ir.Parse.Ir_parse_error msg -> fail ("parse error: " ^ msg)
  in
  Cmd.v
    (Cmd.info "parse-ir"
       ~doc:"Parse, verify and typecheck a textual IR dump (round-trip check).")
    Term.(const parse_ir $ file_arg)

(* ---- events ---- *)

let trace_pos_arg =
  Arg.(
    required & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"JSONL trace recorded with --trace.")

let events_cmd =
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Exit non-zero when the trace contains malformed lines (they are \
                always warned about on stderr and skipped).")
  in
  let events file strict =
    let lines =
      match read_file file with
      | text -> String.split_on_char '\n' text
      | exception Sys_error e -> fail e
    in
    let events, errors = Obs.Summary.parse_lines lines in
    List.iter
      (fun (lineno, e) ->
        Printf.eprintf "selvm: %s:%d: skipping malformed event: %s\n" file lineno e)
      errors;
    let events = List.map snd events in
    print_string (Obs.Summary.render (Obs.Summary.of_events events));
    (match Obs.Summary.split_runs events with
    | [] | [ _ ] -> ()  (* a single run reads the same as the overall summary *)
    | runs ->
        List.iteri
          (fun i (label, s) ->
            Printf.printf "\n=== run %d/%d: %s ===\n\n" (i + 1) (List.length runs)
              label;
            print_string (Obs.Summary.render s))
          runs);
    if strict && errors <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "events"
       ~doc:
         "Summarize a JSONL telemetry trace: compile timeline, installed code, \
          invalidations, inliner decisions, optimizer counters. Traces holding \
          several harness runs additionally get per-run sections.")
    Term.(const events $ trace_pos_arg $ strict_arg)

(* ---- explain ---- *)

let explain_cmd =
  let why_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "why" ] ~docv:"METHOD[:SITE]"
          ~doc:
            "Print the full decision provenance (every expansion and inlining \
             decision with its benefit/cost/penalty/threshold terms, per round) \
             for callsites targeting METHOD, optionally narrowed to the site \
             ordinal SITE.")
  in
  let explain file why =
    match Obs.Explain.of_file file with
    | Error e -> fail (Printf.sprintf "bad trace %s: %s" file e)
    | exception Sys_error e -> fail e
    | Ok comps -> (
        match why with
        | None -> print_string (Obs.Explain.render comps)
        | Some spec ->
            let meth, site =
              match String.rindex_opt spec ':' with
              | Some i -> (
                  let m = String.sub spec 0 i in
                  let s = String.sub spec (i + 1) (String.length spec - i - 1) in
                  match int_of_string_opt s with
                  | Some n -> (m, Some n)
                  | None -> (spec, None))
              | None -> (spec, None)
            in
            print_string (Obs.Explain.render_why comps ~meth ~site))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Reconstruct the inline trees from a recorded trace: per compiled \
          method, the callsite tree with each decision's benefit, cost, \
          penalty and threshold, and the round it was taken in.")
    Term.(const explain $ trace_pos_arg $ why_arg)

(* ---- report ---- *)

let report_cmd =
  let entry_arg =
    Arg.(
      value & opt string "bench"
      & info [ "entry" ] ~docv:"METHOD" ~doc:"0-argument method to repeat.")
  in
  let iters_arg =
    Arg.(value & opt int 40 & info [ "iters" ] ~docv:"N" ~doc:"Iterations to run.")
  in
  let top_arg =
    Arg.(
      value & opt int 20
      & info [ "top" ] ~docv:"N" ~doc:"Rows of the hot-method table to print.")
  in
  let folded_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"FILE"
          ~doc:
            "Write flamegraph-ready folded stacks (one `root;...;leaf cycles` \
             line per calling context) to FILE.")
  in
  let report file workload config hotness entry iters top folded =
    check_at_least "hotness" 1 hotness;
    check_at_least "iters" 1 iters;
    check_at_least "top" 0 top;
    match load_program ~file ~workload with
    | Error e -> fail e
    | Ok (prog, label) -> (
        match make_engine prog config hotness false with
        | Error e -> fail e
        | Ok e -> (
            let attrib = Runtime.Interp.enable_attribution e.vm in
            match
              Jit.Harness.run_benchmark ~iters e ~entry ~label:(label ^ "/" ^ config)
            with
            | exception Runtime.Values.Trap msg -> fail ("runtime trap: " ^ msg)
            | _run -> (
                let name m = (Ir.Program.meth prog m).m_name in
                let rows = Runtime.Attribution.rows attrib in
                let total_self =
                  List.fold_left
                    (fun acc (r : Runtime.Attribution.row) -> acc + r.r_self)
                    0 rows
                in
                let pct part =
                  if total_self = 0 then 0.0
                  else 100.0 *. float_of_int part /. float_of_int total_self
                in
                Printf.printf "# %s  entry=%s config=%s iters=%d\n" label entry
                  config iters;
                Printf.printf "# %d cycles attributed over %d methods\n\n" total_self
                  (List.length rows);
                Printf.printf "%-24s %12s %6s %12s %9s %7s %7s %7s %7s\n" "method"
                  "self" "self%" "total" "invocs" "interp%" "jit%" "deopts" "evicts";
                List.iteri
                  (fun i (r : Runtime.Attribution.row) ->
                    if i < top then begin
                      let si, sj = r.r_self_by_tier in
                      let share part =
                        if r.r_self = 0 then 0.0
                        else 100.0 *. float_of_int part /. float_of_int r.r_self
                      in
                      Printf.printf
                        "%-24s %12d %6.1f %12d %9d %7.1f %7.1f %7d %7d\n"
                        (name r.r_meth) r.r_self (pct r.r_self) r.r_total
                        r.r_invocations (share si) (share sj) r.r_deopts r.r_evicts
                    end)
                  rows;
                if List.length rows > top then
                  Printf.printf "... (%d more methods)\n" (List.length rows - top);
                match folded with
                | None -> ()
                | Some path -> (
                    let stacks = Runtime.Attribution.folded attrib ~name in
                    match
                      Support.Io.write_atomic path
                        (String.concat "\n" stacks ^ if stacks = [] then "" else "\n")
                    with
                    | () -> Printf.eprintf "-- folded stacks written to %s\n" path
                    | exception Sys_error msg ->
                        fail ("cannot write --folded: " ^ msg)))))
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Run a workload with per-method cycle attribution and print the \
          hot-method table (self/total cycles, tier residency, invocation and \
          deopt counts); optionally emit flamegraph-ready folded stacks. \
          Deterministic: identical runs print identical reports.")
    Term.(
      const report $ file_arg $ workload_arg $ config_arg $ hotness_arg $ entry_arg
      $ iters_arg $ top_arg $ folded_arg)

(* ---- serve ---- *)

let serve_cmd =
  let tenants_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "tenants" ] ~docv:"SPEC"
          ~doc:
            "Comma-separated tenant workloads, each NAME or NAME*COUNT, e.g. \
             \"long-loop*3,gauss-mix\". Replicas get ids NAME#0, NAME#1, ...")
  in
  let solo_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "solo" ] ~docv:"ID"
          ~doc:
            "Serve only the tenant with this id (e.g. long-loop#1) while \
             keeping its fleet identity: seeds derive from the id, so the \
             tenant's output, steps and cycles are byte-identical to the full \
             fleet run — the isolation invariant the soak gate asserts.")
  in
  let iters_arg =
    Arg.(
      value & opt int 0
      & info [ "iters" ] ~docv:"N"
          ~doc:"Benchmark iterations per tenant (0: each workload's default).")
  in
  let queue_arg =
    Arg.(
      value & opt int 4
      & info [ "queue-capacity" ] ~docv:"N"
          ~doc:
            "Per-tenant compile-queue bound: hot methods enqueue prioritized \
             requests (hotness × queue age) serviced by one simulated \
             background compiler, and admission control sheds the \
             lowest-priority request past the bound. Negative: no queue — \
             compile inline at the hotness trigger.")
  in
  let cache_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-capacity" ] ~docv:"NODES"
          ~doc:
            "Per-tenant code-cache budget in IR nodes; installs past it evict \
             the lowest-retention resident code, which falls back to the \
             interpreted tier and may recompile under backoff (default: \
             unbounded).")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "compile-deadline" ] ~docv:"N"
          ~doc:
            "Per-compile deadline in fuel checkpoints; a missed deadline is a \
             contained bailout (exponential backoff, eventually blacklist).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the fleet report (per-tenant output digest, steps, cycles, \
             churn counters, queue-wait and time-to-peak percentiles) to FILE \
             as JSON; byte-identical across same-seed runs.")
  in
  let serve tenants_spec solo iters config hotness queue_cap cache_cap deadline
      trace metrics json chaos_seed chaos_rate stats timeline timeline_interval =
    if (not (Float.is_finite chaos_rate)) || chaos_rate < 0.0 || chaos_rate > 1.0
    then fail "--chaos-rate must be in [0, 1]";
    if iters < 0 then fail "--iters must be at least 0 (0: each workload's default)";
    check_at_least "hotness" 1 hotness;
    check_nonneg "cache-capacity" cache_cap;
    check_nonneg "compile-deadline" deadline;
    (* validate the configuration up front, not inside a tenant thunk *)
    (match compiler_of_config config with Error e -> fail e | Ok _ -> ());
    match Jit.Serve.parse_tenants tenants_spec with
    | Error e -> fail ("bad --tenants: " ^ e)
    | Ok pairs -> (
        let specs =
          List.map
            (fun (name, count) ->
              match Workloads.Registry.find name with
              | Some w -> (w, count)
              | None ->
                  fail
                    (Printf.sprintf "unknown workload %s (try: selvm workloads)"
                       name))
            pairs
        in
        let tenants =
          List.concat_map
            (fun ((w : Workloads.Defs.t), count) ->
              List.init count (fun k ->
                  {
                    Jit.Serve.tn_id = Printf.sprintf "%s#%d" w.name k;
                    tn_make =
                      (fun () ->
                        (* fresh program and fresh compiler per tenant:
                           stateful compilers must never span tenants *)
                        let compiler =
                          match compiler_of_config config with
                          | Ok c -> c
                          | Error e -> fail e
                        in
                        ( Workloads.Registry.compile w,
                          {
                            Jit.Engine.name = config;
                            compiler;
                            hotness_threshold = hotness;
                            compile_cost_per_node = 50;
                            verify = false;
                          } ));
                    tn_iters = (if iters > 0 then iters else w.iters);
                  }))
            specs
        in
        let tenants =
          match solo with
          | None -> tenants
          | Some id -> (
              match
                List.filter (fun t -> t.Jit.Serve.tn_id = id) tenants
              with
              | [] -> fail (Printf.sprintf "no tenant %s in --tenants spec" id)
              | ts -> ts)
        in
        let limits =
          {
            Jit.Serve.queue_capacity =
              (if queue_cap < 0 then None else Some queue_cap);
            queue_age_unit = 1024;
            cache_capacity = cache_cap;
            compile_deadline = deadline;
            chaos_rate;
            chaos_seed;
          }
        in
        let outcome =
          with_optional_trace trace (fun () ->
              with_optional_metrics metrics (fun () ->
                  with_optional_timeline timeline ~interval:timeline_interval
                    (fun tl ->
                      match Jit.Serve.run ~limits ?timeline:tl tenants with
                      | exception Runtime.Values.Trap msg ->
                          Error ("runtime trap: " ^ msg)
                      | reports -> Ok reports)))
        in
        match outcome with
        | Error e -> fail e
        | Ok reports -> (
            Printf.printf
              "# serve tenants=%d config=%s queue=%s cache=%s deadline=%s \
               chaos=%.2f seed=%d\n"
              (List.length reports) config
              (if queue_cap < 0 then "-" else string_of_int queue_cap)
              (match cache_cap with Some c -> string_of_int c | None -> "-")
              (match deadline with Some d -> string_of_int d | None -> "-")
              chaos_rate chaos_seed;
            Printf.printf "%-20s %6s %12s %12s %12s %8s %6s %6s %9s %9s\n"
              "tenant" "iters" "checksum" "steps" "cycles" "installs" "evict"
              "shed" "qwait_p99" "ttp_p99";
            List.iter
              (fun (r : Jit.Serve.tenant_report) ->
                Printf.printf "%-20s %6d %12d %12d %12d %8d %6d %6d %9d %9d\n"
                  r.tr_id r.tr_iters r.tr_checksum r.tr_steps r.tr_cycles
                  r.tr_installs r.tr_evictions r.tr_sheds r.tr_queue_wait_p99
                  r.tr_ttp_p99)
              reports;
            if stats then begin
              let sum f = List.fold_left (fun a r -> a + f r) 0 reports in
              Printf.eprintf
                "-- fleet: %d installs, %d evictions, %d sheds, %d bailouts, %d \
                 blacklisted\n"
                (sum (fun (r : Jit.Serve.tenant_report) -> r.tr_installs))
                (sum (fun r -> r.tr_evictions))
                (sum (fun r -> r.tr_sheds))
                (sum (fun r -> r.tr_bailouts))
                (sum (fun r -> r.tr_blacklisted))
            end;
            match json with
            | None -> ()
            | Some path -> (
                match
                  Support.Io.write_atomic path
                    (Support.Json.to_string (Jit.Serve.report_json reports) ^ "\n")
                with
                | () -> Printf.eprintf "-- fleet report written to %s\n" path
                | exception Sys_error msg -> fail ("cannot write --json: " ^ msg))))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve N tenant workloads on per-tenant engines with bounded compile \
          queues, bounded code caches and optional deterministic fault \
          injection. Every tenant's output, steps and cycles are \
          byte-identical to its --solo run regardless of queue pressure, \
          evictions, sheds or injected faults.")
    Term.(
      const serve $ tenants_arg $ solo_arg $ iters_arg $ config_arg $ hotness_arg
      $ queue_arg $ cache_arg $ deadline_arg $ trace_arg $ metrics_arg $ json_arg
      $ chaos_seed_arg $ chaos_rate_arg $ stats_arg $ timeline_arg
      $ timeline_interval_arg)

(* ---- top ---- *)

let top_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TIMELINE"
          ~doc:"Timeline JSONL file written by --timeline.")
  in
  (* last 32 values of the series, each scaled against the series max *)
  let spark (xs : int list) : string =
    let n = List.length xs in
    let xs = if n > 32 then List.filteri (fun i _ -> i >= n - 32) xs else xs in
    let hi = max 1 (List.fold_left max 0 xs) in
    let glyphs = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83";
                    "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86";
                    "\xe2\x96\x87"; "\xe2\x96\x88" |] in
    String.concat "" (List.map (fun v -> glyphs.(max 0 v * 7 / hi)) xs)
  in
  let top file =
    match Obs.Timeline.rows_of_file file with
    | Error e -> fail e
    | exception Sys_error e -> fail e
    | Ok rows ->
        let samples, fleets =
          List.partition
            (fun (r : Obs.Timeline.row) -> r.r_kind = "timeline_sample")
            (List.filter
               (fun (r : Obs.Timeline.row) ->
                 r.r_kind = "timeline_sample" || r.r_kind = "timeline_fleet")
               rows)
        in
        if samples = [] then fail "no timeline_sample rows in file";
        let tenants =
          (* first-seen order *)
          List.rev
            (List.fold_left
               (fun acc (r : Obs.Timeline.row) ->
                 if List.mem r.r_source acc then acc else r.r_source :: acc)
               [] samples)
        in
        let get (r : Obs.Timeline.row) name =
          Option.value ~default:0 (Obs.Timeline.field r name)
        in
        let series s =
          List.filter (fun (r : Obs.Timeline.row) -> r.r_source = s) samples
        in
        Printf.printf "# fleet timeline: %d tenants, %d samples, %d fleet rows\n"
          (List.length tenants) (List.length samples) (List.length fleets);
        Printf.printf "%-20s %5s %12s %9s %3s %7s %6s %6s %6s  %s\n" "tenant"
          "rows" "cycles" "jit/bl" "q" "cache" "shed" "evict" "deopt"
          "cache history";
        List.iter
          (fun s ->
            let rs = series s in
            let l = List.nth rs (List.length rs - 1) in
            Printf.printf "%-20s %5d %12d %5d/%3d %3d %7d %6d %6d %6d  %s\n"
              s (List.length rs) l.Obs.Timeline.r_cycles (get l "compiled")
              (get l "blacklisted") (get l "queue_depth")
              (get l "cache_used") (get l "sheds") (get l "evictions")
              (get l "invalidations")
              (spark (List.map (fun r -> get r "cache_used") rs)))
          tenants;
        (match List.rev fleets with
        | [] -> ()
        | f :: _ ->
            Printf.printf
              "fleet @%d: queue_wait p50/p90/p99/max = %d/%d/%d/%d  ttp \
               p50/p90/p99/max = %d/%d/%d/%d\n"
              f.Obs.Timeline.r_cycles (get f "queue_wait_p50")
              (get f "queue_wait_p90") (get f "queue_wait_p99")
              (get f "queue_wait_max") (get f "ttp_p50") (get f "ttp_p90")
              (get f "ttp_p99") (get f "ttp_max"));
        let offenders label fieldname =
          let ranked =
            List.filter
              (fun (_, v) -> v > 0)
              (List.sort
                 (fun (ida, va) (idb, vb) ->
                   if va <> vb then compare vb va else compare ida idb)
                 (List.map
                    (fun s ->
                      let rs = series s in
                      (s, get (List.nth rs (List.length rs - 1)) fieldname))
                    tenants))
          in
          match ranked with
          | [] -> ()
          | ranked ->
              Printf.printf "  %-12s %s\n" (label ^ ":")
                (String.concat ", "
                   (List.filteri (fun i _ -> i < 3) ranked
                   |> List.map (fun (id, v) -> Printf.sprintf "%s (%d)" id v)))
        in
        print_string "worst offenders:\n";
        offenders "sheds" "sheds";
        offenders "evictions" "evictions";
        offenders "deopts" "invalidations"
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Fleet dashboard from a --timeline file: per-tenant tier mix, \
          queue/cache gauges, cache-occupancy sparklines, fleet latency \
          percentiles and worst offenders. Deterministic output.")
    Term.(const top $ file_arg)

(* ---- slo ---- *)

let slo_cmd =
  let check_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "check" ] ~docv:"TIMELINE"
          ~doc:
            "Check this timeline file and exit 1 if any monitor fired — the \
             CI gate form.")
  in
  let file_pos_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"TIMELINE"
          ~doc:"Timeline file to report on (without gating the exit status).")
  in
  let only_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "only" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated monitor subset: deopt-storm, queue-saturation, \
             cache-thrash (default: all three). A soak that deliberately \
             starves the code cache gates with --only \
             deopt-storm,queue-saturation.")
  in
  let slo check file only =
    let path, gate =
      match (check, file) with
      | Some p, None -> (p, true)
      | None, Some p -> (p, false)
      | Some _, Some _ ->
          fail "pass the timeline either positionally or via --check, not both"
      | None, None -> fail "pass a timeline file (selvm slo --check FILE)"
    in
    let specs =
      match only with
      | None -> Obs.Slo.default_specs
      | Some csv ->
          let names =
            List.filter
              (fun s -> s <> "")
              (List.map String.trim (String.split_on_char ',' csv))
          in
          if names = [] then fail "--only needs at least one monitor name";
          List.map
            (fun name ->
              match Obs.Slo.find_spec name with
              | Some s -> s
              | None ->
                  fail
                    (Printf.sprintf
                       "unknown monitor %s (have: deopt-storm, \
                        queue-saturation, cache-thrash)"
                       name))
            names
    in
    match Obs.Slo.check_file ~specs path with
    | Error e -> fail e
    | exception Sys_error e -> fail e
    | Ok [] ->
        Printf.printf "ok: no SLO violations (%d monitor%s)\n"
          (List.length specs)
          (if List.length specs = 1 then "" else "s")
    | Ok vs ->
        print_string (Obs.Slo.render vs);
        Printf.printf "%d violation%s\n" (List.length vs)
          (if List.length vs = 1 then "" else "s");
        if gate then exit 1
  in
  Cmd.v
    (Cmd.info "slo"
       ~doc:
         "Replay the SLO monitors (deopt-storm, queue-saturation, \
          cache-thrash) over a --timeline file; with --check, exit nonzero \
          on any violation.")
    Term.(const slo $ check_arg $ file_pos_arg $ only_arg)

(* ---- diff ---- *)

let diff_cmd =
  let pos_arg n docv =
    Arg.(
      required
      & pos n (some string) None
      & info [] ~docv
          ~doc:
            "Run artifact to compare: a directory holding metrics.json / \
             timeline.jsonl / trace.jsonl, or a single .json (metrics \
             export) or .jsonl (timeline or trace) file.")
  in
  let read_lines path =
    let text = read_file path in
    let lines = String.split_on_char '\n' text in
    match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
  in
  let diff a b =
    let drift = ref 0 in
    let emit n body =
      drift := !drift + n;
      if n > 0 then print_string body
    in
    let diff_metrics_files fa fb =
      match
        (Support.Json.of_string (read_file fa),
         Support.Json.of_string (read_file fb))
      with
      | Error e, _ -> fail (fa ^ ": " ^ e)
      | _, Error e -> fail (fb ^ ": " ^ e)
      | Ok ja, Ok jb ->
          let ds = Obs.Diff.diff_json ja jb in
          emit (List.length ds) (Obs.Diff.render_deltas "metrics" ds)
    in
    let diff_timeline_files fa fb =
      let ds = Obs.Diff.diff_lines (read_lines fa) (read_lines fb) in
      emit (List.length ds) (Obs.Diff.render_deltas "timeline" ds)
    in
    let diff_trace_files fa fb =
      match (Obs.Explain.of_file fa, Obs.Explain.of_file fb) with
      | Error e, _ -> fail (fa ^ ": " ^ e)
      | _, Error e -> fail (fb ^ ": " ^ e)
      | Ok ca, Ok cb ->
          let ds = Obs.Diff.diff_decisions ca cb in
          emit (List.length ds) (Obs.Diff.render_drift ds)
    in
    (try
       if Sys.is_directory a && Sys.is_directory b then begin
         let matched = ref 0 in
         let each name f =
           let fa = Filename.concat a name and fb = Filename.concat b name in
           match (Sys.file_exists fa, Sys.file_exists fb) with
           | true, true ->
               incr matched;
               f fa fb
           | true, false | false, true ->
               Printf.eprintf "-- %s present on one side only, skipped\n" name
           | false, false -> ()
         in
         each "metrics.json" diff_metrics_files;
         each "timeline.jsonl" diff_timeline_files;
         each "trace.jsonl" diff_trace_files;
         if !matched = 0 then
           fail
             "no common artifacts (expected metrics.json, timeline.jsonl or \
              trace.jsonl in both directories)"
       end
       else if Sys.is_directory a || Sys.is_directory b then
         fail "compare two run directories or two files, not a mix"
       else if Filename.check_suffix a ".json" then diff_metrics_files a b
       else begin
         (* JSONL stream: byte-level line diff, plus decision drift when
            the stream carries inline-decision trace events *)
         diff_timeline_files a b;
         match (Obs.Explain.of_file a, Obs.Explain.of_file b) with
         | Ok [], Ok [] -> ()
         | _ -> diff_trace_files a b
       end
     with Sys_error e -> fail e);
    if !drift = 0 then print_string "no drift\n" else exit 1
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two runs' observability artifacts — metrics exports, \
          timelines, and the inline-decision trees rebuilt from traces — \
          and report value deltas and per-callsite decision drift. Exits 1 \
          on any drift.")
    Term.(const diff $ pos_arg 0 "RUN_A" $ pos_arg 1 "RUN_B")

(* ---- workloads ---- *)

let workloads_cmd =
  let list () =
    List.iter
      (fun (w : Workloads.Defs.t) ->
        Printf.printf "%-16s %-8s %s\n" w.name
          (Workloads.Defs.flavor_to_string w.flavor)
          w.description)
      Workloads.Registry.all
  in
  Cmd.v (Cmd.info "workloads" ~doc:"List the built-in benchmark workloads.")
    Term.(const list $ const ())

(* ---- synth ---- *)

let synth_cmd =
  let int_opt name v doc = Arg.(value & opt int v & info [ name ] ~docv:"N" ~doc) in
  let depth = int_opt "depth" 3 "Call-chain depth above the dispatch layer." in
  let fanout = int_opt "fanout" 2 "Callees per layer function." in
  let poly = int_opt "poly" 3 "Concrete Op implementations." in
  let seed = int_opt "seed" 1 "Generator seed." in
  let leaf = int_opt "leaf-work" 8 "Loop trips per Op implementation." in
  let hot =
    Arg.(
      value & opt float 0.5
      & info [ "hot" ] ~docv:"F" ~doc:"Fraction of callsites inside loops.")
  in
  let run_it =
    Arg.(
      value & flag
      & info [ "bench" ]
          ~doc:"Benchmark the generated program under the chosen config instead of \
                printing its source.")
  in
  let synth depth fanout poly_degree seed leaf_work hot_fraction bench config =
    check_at_least "depth" 1 depth;
    check_at_least "fanout" 1 fanout;
    check_at_least "poly" 1 poly_degree;
    check_at_least "leaf-work" 0 leaf_work;
    if not (hot_fraction >= 0.0 && hot_fraction <= 1.0) then
      fail "--hot must be in [0, 1]";
    let cfg =
      { Workloads.Synth.seed; depth; fanout; poly_degree; leaf_work; hot_fraction }
    in
    if not bench then print_string (Workloads.Synth.source_of cfg)
    else
      let w = Workloads.Synth.generate cfg in
      let prog = Workloads.Registry.compile w in
      match make_engine prog config 8 false with
      | Error e -> fail e
      | Ok engine -> (
          match
            Jit.Harness.run_benchmark ~iters:w.iters engine ~entry:"bench"
              ~label:(w.name ^ "/" ^ config)
          with
          | exception Runtime.Values.Trap msg -> fail ("runtime trap: " ^ msg)
          | run ->
              Printf.printf "%s under %s: peak %.1f cycles, %d IR nodes installed\n"
                w.name config run.peak_cycles
                (Jit.Engine.installed_code_size engine))
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:
         "Generate a synthetic call-graph benchmark (print its Sel source, or \
          --bench it).")
    Term.(const synth $ depth $ fanout $ poly $ seed $ leaf $ hot $ run_it $ config_arg)

let main_cmd =
  Cmd.group
    (Cmd.info "selvm" ~version:"1.0.0"
       ~doc:
         "A JIT-compiled VM for the Sel language with the CGO'19 \
          optimization-driven incremental inline-substitution algorithm.")
    [
      run_cmd; bench_cmd; compile_cmd; parse_ir_cmd; events_cmd; explain_cmd;
      report_cmd; serve_cmd; top_cmd; slo_cmd; diff_cmd; workloads_cmd;
      synth_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
