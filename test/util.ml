(* Shared helpers for the test suites. *)

let compile (src : string) : Ir.Types.program =
  match Frontend.Pipeline.compile src with
  | Ok prog -> prog
  | Error e -> Alcotest.failf "program does not compile: %s" (Frontend.Pipeline.error_to_string e)

let compile_err (src : string) : string =
  match Frontend.Pipeline.compile src with
  | Ok _ -> Alcotest.fail "expected a compile error"
  | Error e -> Frontend.Pipeline.error_to_string e

(* Runs [main] in a fresh interpreter; returns (output, result). *)
let run_main ?(prepare = false) (src : string) : string * Runtime.Values.value =
  let prog = compile src in
  if prepare then Opt.Driver.prepare_program prog;
  let vm = Runtime.Interp.create prog in
  let v = Runtime.Interp.run_main vm in
  (Runtime.Interp.output vm, v)

let output_of ?prepare src = fst (run_main ?prepare src)

(* Runs [fn] on [vm] as method 0's compiled code: installs it, then calls
   method 0 by name, so the body is lowered into method 0's code slot like
   any installed body. *)
let exec_compiled (vm : Runtime.Interp.vm) (fn : Ir.Types.fn)
    (args : Runtime.Values.value list) : Runtime.Values.value =
  Runtime.Interp.set_installed vm 0 (Some fn);
  Runtime.Interp.run_meth vm (Ir.Program.meth vm.prog 0).m_name args

(* Runs a named 0-arg function and returns its Int result. *)
let run_int ?(prepare = false) (src : string) (name : string) : int =
  let prog = compile src in
  if prepare then Opt.Driver.prepare_program prog;
  let vm = Runtime.Interp.create prog in
  match Runtime.Interp.run_meth vm name [ Runtime.Values.Vunit ] with
  | Runtime.Values.Vint n -> n
  | v -> Alcotest.failf "%s returned %s, not an Int" name (Runtime.Values.to_string v)

let body_of (prog : Ir.Types.program) (name : string) : Ir.Types.fn =
  match Ir.Program.find_meth prog name with
  | Some m -> (
      match (Ir.Program.meth prog m).body with
      | Some fn -> fn
      | None -> Alcotest.failf "method %s has no body" name)
  | None -> Alcotest.failf "no method named %s" name

let check_verifies (fn : Ir.Types.fn) =
  match Ir.Verify.check fn with
  | () -> ()
  | exception Ir.Verify.Ill_formed msg -> Alcotest.failf "IR ill-formed: %s" msg

(* Counts instructions matching a predicate. *)
let count_instrs (fn : Ir.Types.fn) (p : Ir.Types.instr_kind -> bool) : int =
  let n = ref 0 in
  Ir.Fn.iter_instrs (fun i -> if p i.kind then incr n) fn;
  !n

let count_calls fn = count_instrs fn Ir.Instr.is_call

let count_virtual_calls fn =
  count_instrs fn (function
    | Ir.Types.Call { callee = Ir.Types.Virtual _; _ } -> true
    | _ -> false)

let test name f = Alcotest.test_case name `Quick f

let md5 (s : string) : string = Digest.to_hex (Digest.string s)

(* Compares [actual] with golden/[name] line for line. On drift it writes
   [name].actual to the test's working directory (_build/default/test)
   and fails at the first differing line. *)
let check_golden ?(hint = "") (name : string) (actual : string list) : unit =
  let path = "golden/" ^ name in
  let golden =
    match In_channel.with_open_text path In_channel.input_all with
    | s -> String.split_on_char '\n' s |> List.filter (( <> ) "")
    | exception Sys_error _ -> []
  in
  if actual <> golden then begin
    Out_channel.with_open_text (name ^ ".actual") (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) actual);
    let rec first_diff i = function
      | g :: gs, a :: as_ when g = a -> first_diff (i + 1) (gs, as_)
      | g :: _, a :: _ -> Printf.sprintf "line %d: expected %S, got %S" i g a
      | [], a :: _ -> Printf.sprintf "line %d: unexpected %S" i a
      | g :: _, [] -> Printf.sprintf "line %d: missing %S" i g
      | [], [] -> "identical"
    in
    Alcotest.failf
      "%s drifted (%d lines expected, %d actual); %s.\nThe full actual file is \
       %s.actual in the test's working directory.%s"
      path (List.length golden) (List.length actual)
      (first_diff 1 (golden, actual))
      name hint
  end

let contains_substring ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  n = 0
  ||
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* A JIT engine over [src] with the given compiler. *)
let engine ?(hotness = 5) ?(verify = true) (src : string)
    (compiler : Jit.Engine.compiler option) (name : string) : Jit.Engine.t =
  let prog = compile src in
  Jit.Engine.create prog
    { name; compiler; hotness_threshold = hotness; compile_cost_per_node = 50; verify }

let incremental ?(params = Inliner.Params.default) () : Jit.Engine.compiler =
 fun prog profiles m -> (Inliner.Algorithm.compile prog profiles params m).body

let greedy : Jit.Engine.compiler = fun p pr m -> Baselines.Greedy.compile p pr m
let c2like : Jit.Engine.compiler = fun p pr m -> Baselines.C2like.compile p pr m

(* Every control-flow analysis [Ir.Fn] caches for [fn] equals one computed
   afresh on a copy, which starts with no cache: the reverse-postorder
   numbering (its order and every block id's position), reachability,
   predecessors, the dominator tree — [iter_children] visiting what
   [children] lists — and the loop forest — its loops, back edges and
   bodies in iteration order, which LICM's hoist order follows, and every
   block's depth. Afterwards each analysis is cached on [fn], so the next
   call catches a writer that left one stale. *)
let check_cfg_cache (what : string) (fn : Ir.Types.fn) : unit =
  let fresh = Ir.Fn.copy fn in
  let n = Support.Vec.length fn.blocks in
  let differs fmt =
    Fmt.kstr (fun s -> Alcotest.failf "%s: the cached %s differs from a fresh one" what s) fmt
  in
  let o = Ir.Fn.numbering fn and o' = Ir.Fn.numbering fresh in
  if o.order <> o'.order then differs "reverse postorder";
  if o.index <> o'.index then differs "reverse-postorder positions";
  let r = Ir.Fn.reachable fn and r' = Ir.Fn.reachable fresh in
  for b = -1 to n do
    if r b <> r' b then differs "reachability of b%d" b
  done;
  if Ir.Fn.preds fn <> Ir.Fn.preds fresh then differs "predecessor map";
  let d = Ir.Dominators.compute fn and d' = Ir.Dominators.compute fresh in
  for b = 0 to n - 1 do
    let visited = ref [] in
    Ir.Dominators.iter_children (fun c -> visited := c :: !visited) d b;
    if
      Ir.Dominators.idom d b <> Ir.Dominators.idom d' b
      || Ir.Dominators.children d b <> Ir.Dominators.children d' b
      || List.rev !visited <> Ir.Dominators.children d b
    then differs "dominator tree at b%d" b
  done;
  let shape (t : Ir.Loops.t) =
    List.map
      (fun (l : Ir.Loops.loop) ->
        (l.header, l.back_edges, Hashtbl.fold (fun b () acc -> b :: acc) l.body []))
      t.loops
  in
  let l = Ir.Loops.compute fn and l' = Ir.Loops.compute fresh in
  if shape l <> shape l' then differs "loop forest";
  for b = 0 to n - 1 do
    if Ir.Loops.depth l b <> Ir.Loops.depth l' b then differs "loop depth of b%d" b
  done
