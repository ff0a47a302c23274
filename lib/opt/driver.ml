(* Pass orchestration.

   [simplify] is the canonicalization fixpoint used everywhere: by the
   baseline preparation of freshly lowered methods (Graal's parse-time
   canonicalization), by deep inlining trials on specialized callee copies
   (where its event count is the paper's N_s), and on the root method
   between inlining rounds. [round_root_opts] additionally runs the
   [root_passes] list, which the paper applies to the root at the end of
   every round. *)

open Ir.Types

type stats = { mutable canon : int; mutable gvn : int; mutable dce : int }

(* The paper's "simple optimizations" count: canonicalization events plus
   value-numbering hits (Section IV lists global value numbering among
   them). Code-removal bookkeeping (DCE) is not itself an optimization
   event. *)
let simple_opt_count (s : stats) = s.canon + s.gvn

let max_simplify_rounds = 10

(* Canonicalize + GVN + DCE + CFG cleanup to a fixpoint (bounded). *)
let simplify (prog : program) (fn : fn) : stats =
  let stats = { canon = 0; gvn = 0; dce = 0 } in
  let rec go round =
    if round < max_simplify_rounds then begin
      (* watchdog checkpoint: a fixpoint round is the unit of work; the
         fn is always structurally consistent here *)
      Support.Fuel.spend 1;
      let c = Canonicalize.run_once prog fn in
      stats.canon <- stats.canon + c;
      let g = Gvn.run fn in
      stats.gvn <- stats.gvn + g;
      let d = Dce.run fn in
      stats.dce <- stats.dce + d;
      let cleaned = Simplify.cleanup fn in
      if c > 0 || g > 0 || d > 0 || cleaned then go (round + 1)
    end
  in
  go 0;
  stats

type pass = string * (program -> fn -> int)

(* The per-round root pipeline, in order: read-write elimination, scalar
   replacement of allocations whose constructors were just inlined, and
   loop-invariant hoisting. Each pass returns how many rewrites it made;
   its name is its key in the [opt_round] trace event. *)
let root_passes : pass list =
  [ ("rwelim", Rwelim.run); ("scalar", Scalarrepl.run); ("licm", fun _ fn -> Licm.run fn) ]

(* Root-method optimizations at the end of an inlining round: simplify,
   then each of [passes], then simplify again to exploit what they
   exposed. *)
let round_root_opts ?(passes = root_passes) (prog : program) (fn : fn) : stats =
  let stats = simplify prog fn in
  (* watchdog checkpoint between the simplify fixpoint and the heavier
     root passes; each pass is atomic *)
  Support.Fuel.spend 1;
  let counts = List.map (fun (name, run) -> (name, run prog fn)) passes in
  if List.exists (fun (_, n) -> n > 0) counts then begin
    let s2 = simplify prog fn in
    stats.canon <- stats.canon + s2.canon;
    stats.gvn <- stats.gvn + s2.gvn;
    stats.dce <- stats.dce + s2.dce
  end;
  Obs.Trace.emit "opt_round" (fun () ->
      Support.Json.(
        [ ("fn", String fn.fname); ("canon", Int stats.canon); ("gvn", Int stats.gvn);
          ("dce", Int stats.dce) ]
        @ List.map (fun (name, n) -> (name, Int n)) counts
        @ [ ("size", Int (Ir.Fn.size fn)) ]));
  stats

(* Baseline preparation of every method body right after lowering, before
   any profiling: equivalent to parse-time canonicalization. Profiles are
   then collected against the prepared IR, so block ids referenced by
   profiles match the IR every later consumer sees. *)
let prepare_program (prog : program) : unit =
  Ir.Program.iter_meths
    (fun (m : meth) ->
      match m.body with
      | Some fn ->
          ignore (simplify prog fn);
          (* hoist loop invariants once at parse time too, so interpreted
             code and every later IR copy profit; block ids referenced by
             profiles are the post-prepare ones, so this must happen before
             any interpretation *)
          if Licm.run fn > 0 then ignore (simplify prog fn)
      | None -> ())
    prog
