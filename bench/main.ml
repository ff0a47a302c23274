(* Benchmark harness entry point.

     dune exec bench/main.exe              # regenerate every figure/table
     dune exec bench/main.exe -- fig9      # a single experiment
     dune exec bench/main.exe -- smoke     # interpreter wall-clock smoke

   Output is plain text, designed to be tee'd into bench_output.txt and
   compared against the paper's Section V (see EXPERIMENTS.md). *)

open Cmdliner

let banner () =
  print_endline "SelVM incremental-inlining reproduction harness";
  Printf.printf "workloads: %s\n" (String.concat ", " (Workloads.Registry.names ()));
  Printf.printf
    "method: up to %d iterations per run, peak = mean of the last 40%% (max 20); \
     fresh engine per (workload, config); hotness threshold %d; simulated cycles\n"
    (List.fold_left (fun acc (w : Workloads.Defs.t) -> max acc w.iters) 0
       Workloads.Registry.all)
    Common.hotness_threshold

let experiments =
  [
    ("fig5", Experiments.fig5);
    ("fig6", Experiments.fig6);
    ("fig7", Experiments.fig7);
    ("fig8", Experiments.fig8);
    ("fig9", Experiments.fig9);
    ("fig10", fun () -> ignore (Experiments.fig10 ()));
    ("table1", fun () -> Experiments.table1 ());
    ("warmup", Experiments.warmup);
    ("opts-ablation", Experiments.opts_ablation);
    ("scaling", Experiments.scaling);
    ("smoke", Smoke.run);
    ("all", Experiments.all);
  ]

let experiment =
  let doc =
    Printf.sprintf "Experiment to run: %s."
      (Arg.doc_alts_enum experiments)
  in
  let names = List.map (fun (name, _) -> (name, name)) experiments in
  Arg.(value & pos 0 (enum names) "all" & info [] ~docv:"EXPERIMENT" ~doc)

let cmd =
  let doc = "regenerate the paper's evaluation figures and tables on SelVM" in
  Cmd.v
    (Cmd.info "bench" ~doc)
    Term.(
      const (fun name ->
          banner ();
          (List.assoc name experiments) ())
      $ experiment)

let () = exit (Cmd.eval cmd)
