(* A/B comparison of two revisions under a layout control.

     dune exec bench/main.exe -- layout --workload compile-replay \
       --parent HEAD~1 --change HEAD --rounds 10

   Code layout alone moves jitbench's wall time by several percent, so
   each side is exported with [git archive] and built in several layout
   variants: [pads] dead functions appended to lib/ir/program.ml, a
   module every workload links. The driver then runs [jitbench/main.exe]
   over all the binaries round-robin, reversing the order every round,
   and judges each timed metric with [Support.Stats.compare_layouts].
   Without [--change] the change is the working tree as [git stash
   create] records it: tracked files only, so [git add] new files
   first. *)

let pads = [ 0; 1; 40 ]

(* The timed seconds of each jitbench run: long enough for several
   passes of every workload, short enough that 10 rounds over the 6
   binaries take minutes rather than an hour. *)
let seconds = 8

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("layout: " ^ msg); exit 1) fmt

let shell fmt =
  Printf.ksprintf
    (fun cmd -> if Sys.command cmd <> 0 then fail "command failed: %s" cmd)
    fmt

(* The lines a command prints, or [] when it fails. *)
let lines_of (prog : string) (args : string list) : string list =
  let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> List.filter (( <> ) "") lines
  | _ -> []

let commit (rev : string) : string =
  match lines_of "git" [ "rev-parse"; "--verify"; "--quiet"; rev ^ "^{commit}" ] with
  | [ sha ] -> sha
  | _ -> fail "%s does not name a commit" rev

(* The working tree as a commit, or HEAD when nothing tracked changed. *)
let working_tree () : string =
  match lines_of "git" [ "stash"; "create" ] with
  | [ sha ] -> sha
  | _ -> commit "HEAD"

type variant = { side : string; pad : int; exe : string }

let padding (n : int) : string =
  String.concat ""
    (List.init n (fun i ->
         Printf.sprintf "\nlet _pad_%d (x : int) : int = (x * %d) lxor (x lsr %d)\n" i
           (i + 3) ((i mod 7) + 1)))

let build ~(root : string) ~(side : string) ~(sha : string) (pad : int) : variant =
  let dir = Filename.concat root (Printf.sprintf "%s-%d" side pad) in
  Sys.mkdir dir 0o755;
  shell "git archive --format=tar %s | tar -x -C %s" sha (Filename.quote dir);
  Out_channel.with_open_gen [ Open_append ] 0o644
    (Filename.concat dir "lib/ir/program.ml")
    (fun oc -> output_string oc (padding pad));
  Printf.eprintf "building %s with %d pads (%s)\n%!" side pad (String.sub sha 0 12);
  shell "cd %s && dune build --root . ./jitbench/main.exe > build.log 2>&1 || { cat build.log >&2; exit 1; }"
    (Filename.quote dir);
  { side; pad; exe = Filename.concat dir "_build/default/jitbench/main.exe" }

(* One jitbench run: every metric's value and unit, by name. *)
let run_once (v : variant) (args : string list) : (string * (float * string)) list =
  let open Support.Json in
  let result =
    match List.rev (lines_of v.exe args) with
    | last :: _ -> of_string last
    | [] -> Error "no output"
  in
  match result with
  | Error e -> fail "%s, %d pads: jitbench failed (%s)" v.side v.pad e
  | Ok j -> (
      if member "correct" j <> Some (Bool true) then
        fail "%s, %d pads: a check failed" v.side v.pad;
      match member "metrics" j with
      | Some (Obj metrics) ->
          List.filter_map
            (fun (name, m) ->
              match (member "value" m, Option.bind (member "unit" m) to_string_opt) with
              | Some (Float x), Some u -> Some (name, (x, u))
              | Some (Int n), Some u -> Some (name, (float_of_int n, u))
              | _ -> None)
            metrics
      | _ -> fail "%s, %d pads: no metrics in the result" v.side v.pad)

let report (name : string) ~(parent : float list list) ~(change : float list list) : unit =
  let s = Support.Stats.compare_layouts ~parent ~change in
  Printf.printf "\n%s, median over rounds per layout:\n" name;
  List.iteri
    (fun i pad ->
      Printf.printf "  %3d pads   parent %.4f   change %.4f\n" pad
        (List.nth s.parent_layouts i) (List.nth s.change_layouts i))
    pads;
  Printf.printf "  median over layouts   parent %.4f   change %.4f   (%+.1f%%)\n"
    s.parent_median s.change_median
    (100.0 *. ((s.change_median /. s.parent_median) -. 1.0));
  Printf.printf "  between-layout spread parent %.4f   change %.4f\n" s.parent_spread
    s.change_spread;
  Printf.printf "  pairs: change wins %d, loses %d, of %d\n" s.wins s.losses s.pairs;
  Printf.printf "  verdict: %s\n" (Support.Stats.verdict_to_string s.verdict)

let run ~parent ~change ~workload ~rounds : unit =
  let parent_sha = commit parent in
  let change_sha = match change with Some rev -> commit rev | None -> working_tree () in
  let root = Filename.temp_dir "selvm-layout" "" in
  at_exit (fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote root)));
  let side name sha = List.map (build ~root ~side:name ~sha) pads in
  let parents = side "parent" parent_sha in
  let changes = side "change" change_sha in
  let variants = List.concat (List.map2 (fun p c -> [ p; c ]) parents changes) in
  let args = [ "--workload"; workload; "--seconds"; string_of_int seconds; "--trace"; "0" ] in
  (* samples.(i) lists variant i's results, latest round first *)
  let samples = Array.make (List.length variants) [] in
  let indexed = List.mapi (fun i v -> (i, v)) variants in
  for r = 1 to rounds do
    List.iter
      (fun (i, v) ->
        let metrics = run_once v args in
        Printf.eprintf "round %d/%d: %s, %d pads: wall_s %.4f\n%!" r rounds v.side v.pad
          (fst (List.assoc "wall_s" metrics));
        samples.(i) <- metrics :: samples.(i))
      (if r mod 2 = 1 then indexed else List.rev indexed)
  done;
  let series name side =
    List.filter_map
      (fun (i, v) ->
        if v.side <> side then None
        else Some (List.rev_map (fun m -> fst (List.assoc name m)) samples.(i)))
      indexed
  in
  Printf.printf "workload %s, %d rounds of %d s, parent %s, change %s\n" workload rounds
    seconds (String.sub parent_sha 0 12) (String.sub change_sha 0 12);
  List.iter
    (fun (name, (_, unit_)) ->
      let parent = series name "parent" and change = series name "change" in
      if unit_ = "s" then report name ~parent ~change
      else
        let median side = Support.Stats.median (List.map Support.Stats.median side) in
        Printf.printf "\n%s (%s): median over layouts   parent %.6g   change %.6g\n" name
          unit_ (median parent) (median change))
    (List.hd samples.(0))
