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

(* A FIFO of ids with a membership bit per id, so an id is queued once.
   The ids wait in a ring buffer, oldest at [head], that doubles when
   full. It starts at the body's size but at most [ring_start_max]
   slots: an array over 256 words is allocated straight into the major
   heap, where it outlives the call, and most bodies never queue that
   many ids at once. *)
type queue = {
  mutable ring : int array;
  mutable head : int;
  mutable count : int;
  mutable member : Bytes.t;
}

let ring_start_max = 128

let queue ~(size : int) =
  {
    ring = Array.make (max 1 (min ring_start_max size)) 0;
    head = 0;
    count = 0;
    member = Bytes.make size '\000';
  }

let is_empty (w : queue) = w.count = 0

let push (w : queue) (x : int) =
  let len = Bytes.length w.member in
  if x >= len then begin
    let member = Bytes.make (max 64 (max (x + 1) (2 * len))) '\000' in
    Bytes.blit w.member 0 member 0 len;
    w.member <- member
  end;
  if Bytes.get w.member x = '\000' then begin
    Bytes.set w.member x '\001';
    let cap = Array.length w.ring in
    if w.count = cap then begin
      let ring = Array.make (2 * cap) 0 in
      Array.blit w.ring w.head ring 0 (cap - w.head);
      Array.blit w.ring 0 ring (cap - w.head) w.head;
      w.ring <- ring;
      w.head <- 0
    end;
    let tail = w.head + w.count in
    w.ring.(if tail >= Array.length w.ring then tail - Array.length w.ring else tail) <- x;
    w.count <- w.count + 1
  end

let pop (w : queue) : int =
  let x = w.ring.(w.head) in
  w.head <- (if w.head + 1 = Array.length w.ring then 0 else w.head + 1);
  w.count <- w.count - 1;
  Bytes.set w.member x '\000';
  x

(* Canonicalize + GVN + DCE + CFG cleanup to a fixpoint, driven by
   worklists in the manner of Graal's node-usage canonicalizer, so the
   work is proportional to what changes. Every instruction is visited
   once, in forward block order, then again only when something it reads
   changed: an operand was replaced, rewritten or re-typed. A block's
   branch is revisited when its condition changed. Types flow only
   through phis, so a rewrite re-types phi users only. GVN, DCE and CFG
   cleanup each re-run only after an edit that can enable them. *)
let simplify (prog : program) (fn : fn) : stats =
  let stats = { canon = 0; gvn = 0; dce = 0 } in
  let env = Tyinfer.infer prog fn in
  let instrs = queue ~size:(Support.Vec.length fn.instrs)
  and blocks = queue ~size:(Support.Vec.length fn.blocks) in
  let push_instr = push instrs and push_block = push blocks in
  Ir.Fn.iter_blocks
    (fun blk ->
      List.iter push_instr blk.instrs;
      push_block blk.b_id)
    fn;
  (* revisit what reads [v] *)
  let touch v =
    List.iter push_instr (Ir.Fn.users fn v);
    List.iter push_block (Ir.Fn.term_users fn v)
  in
  let retype seeds = List.iter touch (Tyinfer.retype prog fn env seeds) in
  (* a phase is dirty after an edit that may enable it *)
  let gvn_dirty = ref true and dce_dirty = ref true and cfg_dirty = ref true in
  let is_phi u = Ir.Instr.is_phi (Ir.Fn.kind fn u) in
  (* Reported just before [old_v]'s uses move to [new_v]. Its users will
     read [new_v]; the blocks whose terminator reads it are looked up
     once the edit is over, since CFG cleanup may move terminators. *)
  let moved = ref [] and reinfer = ref [] in
  let replaced ~old_v ~new_v =
    let us = Ir.Fn.users fn old_v in
    List.iter push_instr us;
    let phis = List.filter is_phi us in
    (* a phi reading [new_v] on every edge is trivial *)
    if phis <> [] then cfg_dirty := true;
    if not (Tyinfer.same_type env old_v new_v) then reinfer := phis @ !reinfer;
    moved := new_v :: !moved
  in
  let settle () =
    List.iter (fun v -> List.iter push_block (Ir.Fn.term_users fn v)) (List.rev !moved);
    moved := [];
    retype (List.rev !reinfer);
    reinfer := []
  in
  (* Rounds repeat until one edits nothing, so the watchdog's fuel charge
     per round keeps its meaning; once nothing is queued or dirty, that
     last round does no work. *)
  let edits = ref 1 in
  let edited () =
    incr edits;
    gvn_dirty := true;
    dce_dirty := true
  in
  let const_before v c =
    let k = Ir.Fn.insert_before fn ~before:v (Const c) in
    retype [ k ];
    k
  in
  let visit v =
    match Canonicalize.peephole prog env fn ~const:(const_before v) (Ir.Fn.instr fn v) with
    | None -> ()
    | Some rw ->
        stats.canon <- stats.canon + 1;
        edited ();
        (match rw with
        | Value w ->
            replaced ~old_v:v ~new_v:w;
            Ir.Fn.replace_uses fn ~old_v:v ~new_v:w;
            Ir.Fn.delete_instr fn v
        | Op k ->
            Ir.Fn.set_kind fn v k;
            push_instr v;
            touch v;
            reinfer := v :: !reinfer);
        settle ()
  in
  let prune b =
    match Canonicalize.prune_branch fn b with
    | None -> ()
    | Some phis ->
        stats.canon <- stats.canon + 1;
        edited ();
        cfg_dirty := true;
        retype phis
  in
  while !edits > 0 do
    (* watchdog checkpoint: the fn is structurally consistent here *)
    Support.Fuel.spend 1;
    edits := 0;
    while not (is_empty instrs && is_empty blocks) do
      while not (is_empty instrs) do
        let v = pop instrs in
        if Ir.Fn.block_of fn v >= 0 then visit v
      done;
      while is_empty instrs && not (is_empty blocks) do
        let b = pop blocks in
        if Ir.Fn.block_live fn b then prune b
      done
    done;
    if !gvn_dirty then begin
      gvn_dirty := false;
      let g = Gvn.run ~replaced fn in
      stats.gvn <- stats.gvn + g;
      if g > 0 then begin
        incr edits;
        dce_dirty := true
      end;
      settle ()
    end;
    if !dce_dirty then begin
      dce_dirty := false;
      let d = Dce.run fn in
      stats.dce <- stats.dce + d;
      edits := !edits + d
    end;
    if !cfg_dirty then begin
      if Simplify.cleanup ~pruned:(fun phi -> reinfer := phi :: !reinfer) ~replaced fn then
        edited ();
      settle ();
      (* one cleanup leaves nothing for another *)
      cfg_dirty := false
    end
  done;
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
   profiles match the IR every later consumer sees. A body is prepared
   once: preparing it again would change nothing, so a body still marked
   [prepared] (no [Fn] writer has touched it since) is skipped. *)
let prepare_program (prog : program) : unit =
  Ir.Program.iter_meths
    (fun (m : meth) ->
      match m.body with
      | Some fn when not fn.prepared ->
          ignore (simplify prog fn);
          (* hoist loop invariants once at parse time too, so interpreted
             code and every later IR copy profit; block ids referenced by
             profiles are the post-prepare ones, so this must happen before
             any interpretation *)
          if Licm.run fn > 0 then ignore (simplify prog fn);
          (* from here on the body is only read and copied *)
          Ir.Fn.drop_users fn;
          fn.prepared <- true
      | Some _ | None -> ())
    prog
