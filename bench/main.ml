(* Benchmark harness entry point.

     dune exec bench/main.exe              # regenerate every figure/table
     dune exec bench/main.exe -- fig9      # a single experiment
     dune exec bench/main.exe -- smoke     # interpreter wall-clock smoke
     dune exec bench/main.exe -- layout --workload W   # A/B under a layout control

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

let experiment (name, run) =
  Cmd.v (Cmd.info name) Term.(const (fun () -> banner (); run ()) $ const ())

let layout =
  let doc =
    "compare two revisions on one jitbench workload, each built in 3 code layouts"
  in
  let parent =
    Arg.(value & opt string "HEAD" & info [ "parent" ] ~docv:"REV" ~doc:"The parent revision.")
  in
  let change =
    Arg.(
      value
      & opt (some string) None
      & info [ "change" ] ~docv:"REV"
          ~doc:"The changed revision; by default the working tree's tracked files.")
  in
  let workload =
    let names = [ "tiered"; "compile-replay"; "interp-only"; "fleet" ] in
    Arg.(required & opt (some (enum (List.map (fun n -> (n, n)) names))) None
         & info [ "workload" ] ~docv:"W" ~doc:"The jitbench workload.")
  in
  let rounds =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | _ -> Error (`Msg (Printf.sprintf "--rounds must be an integer of at least 1, not %S" s))
    in
    Arg.(value & opt (conv (parse, Format.pp_print_int)) 10 & info [ "rounds" ] ~docv:"N"
           ~doc:"Rounds over every binary; each round is one parent-change pair. \
                 Fewer than 10 give no verdict.")
  in
  Cmd.v (Cmd.info "layout" ~doc)
    Term.(
      const (fun parent change workload rounds -> Layout.run ~parent ~change ~workload ~rounds)
      $ parent $ change $ workload $ rounds)

let cmd =
  let doc = "regenerate the paper's evaluation figures and tables on SelVM" in
  Cmd.group
    ~default:Term.(const (fun () -> banner (); Experiments.all ()) $ const ())
    (Cmd.info "bench" ~doc)
    (layout :: List.map experiment experiments)

let () = exit (Cmd.eval cmd)
