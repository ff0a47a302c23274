(* Inline-tree reconstruction for `selvm explain`.

   The inliner's expand_decision / inline_decision events carry node and
   parent ids, the target label and the benefit / cost / penalty /
   threshold terms of each decision (see docs/OBSERVABILITY.md). This
   module folds an event stream back into the paper's inline trees — one
   per compilation — so "why was this callsite (not) inlined?" is
   answerable without reading trace files by hand.

   Compilation spans: the engine is non-reentrant, so every event between
   a compile_start and the matching compile_done / compile_bailout belongs
   to that compilation. Decisions arriving outside any span (a standalone
   Algorithm.compile run, as the tests do) synthesize a span keyed by the
   decision's root method. Round numbers are inferred by counting the
   inline_round events inside the span: decisions before the k-th round
   marker belong to round k. *)

type phase = Expand | Inline

type decision = {
  d_round : int;
  d_phase : phase;
  d_verdict : string;      (* expand | decline | inline | skip *)
  d_benefit : float;
  d_cost : float;
  d_penalty : float option;  (* ψ; expansion decisions only *)
  d_threshold : float;
  d_priority : float;
  d_cluster : bool;        (* spliced as a cluster member, not gated *)
  d_context : int;         (* tree size (expand) / root size (inline) *)
  d_at_cycles : int;
}

type cnode = {
  x_nid : int;
  x_parent : int;          (* parent nid; -1 for root children *)
  x_target : string;
  x_site : int * int;      (* method id, site ordinal *)
  x_callsite : int;
  x_depth : int;
  mutable x_decisions : decision list;  (* chronological *)
  mutable x_children : cnode list;      (* ascending nid *)
}

type compilation = {
  c_meth : string;
  c_m : int;
  c_start_cycles : int;
  c_rounds : int;
  c_outcome : string;
  c_roots : cnode list;    (* ascending nid *)
}

(* ---------- event folding ---------- *)

let int_field j key =
  match Option.bind (Support.Json.member key j) Support.Json.to_int_opt with
  | Some n -> n
  | None -> 0

let str_field j key =
  match Option.bind (Support.Json.member key j) Support.Json.to_string_opt with
  | Some s -> s
  | None -> "?"

let num_field j key =
  match Support.Json.member key j with
  | Some (Support.Json.Int n) -> float_of_int n
  | Some (Support.Json.Float f) -> f
  | _ -> 0.0

let bool_field j key =
  match Support.Json.member key j with Some (Support.Json.Bool b) -> b | _ -> false

type builder = {
  b_meth : string;
  b_m : int;
  b_start : int;
  mutable b_rounds : int;
  b_nodes : (int, cnode) Hashtbl.t;
  mutable b_order : int list;  (* nids, reverse first-seen order *)
}

let finish (b : builder) ~(outcome : string) : compilation =
  let nodes =
    List.rev_map (fun nid -> Hashtbl.find b.b_nodes nid) b.b_order
  in
  List.iter (fun n -> n.x_decisions <- List.rev n.x_decisions) nodes;
  (* link children to creation-time parents; orphaned parents (never the
     subject of a decision) promote the child to a root *)
  let roots = ref [] in
  List.iter
    (fun n ->
      match Hashtbl.find_opt b.b_nodes n.x_parent with
      | Some p when n.x_parent <> n.x_nid -> p.x_children <- p.x_children @ [ n ]
      | _ -> roots := n :: !roots)
    (List.sort (fun a b -> compare a.x_nid b.x_nid) nodes);
  {
    c_meth = b.b_meth;
    c_m = b.b_m;
    c_start_cycles = b.b_start;
    c_rounds = b.b_rounds;
    c_outcome = outcome;
    c_roots = List.rev !roots;
  }

let of_events (events : Support.Json.t list) : compilation list =
  let done_ = ref [] in
  let open_ : builder option ref = ref None in
  let close outcome =
    match !open_ with
    | Some b ->
        done_ := finish b ~outcome :: !done_;
        open_ := None
    | None -> ()
  in
  let builder_for ?(name : string option) (root : int) (cycles : int) : builder =
    match !open_ with
    | Some b when b.b_m = root -> b
    | _ ->
        (* a decision outside any span, or for a different root than the
           open synthetic span: start a fresh synthetic span *)
        close "(no compile event)";
        let b =
          {
            b_meth = (match name with Some n -> n | None -> Printf.sprintf "m%d" root);
            b_m = root;
            b_start = cycles;
            b_rounds = 0;
            b_nodes = Hashtbl.create 16;
            b_order = [];
          }
        in
        open_ := Some b;
        b
  in
  let node_for (b : builder) j : cnode =
    let nid = int_field j "nid" in
    match Hashtbl.find_opt b.b_nodes nid with
    | Some n -> n
    | None ->
        let n =
          {
            x_nid = nid;
            x_parent = int_field j "parent";
            x_target = str_field j "target";
            x_site = (int_field j "site_m", int_field j "site_idx");
            x_callsite = int_field j "callsite";
            x_depth = int_field j "depth";
            x_decisions = [];
            x_children = [];
          }
        in
        Hashtbl.replace b.b_nodes nid n;
        b.b_order <- nid :: b.b_order;
        n
  in
  List.iter
    (fun j ->
      let cycles = int_field j "cycles" in
      match str_field j "ev" with
      | "compile_start" ->
          close "(no compile event)";
          open_ :=
            Some
              {
                b_meth = str_field j "meth";
                b_m = int_field j "m";
                b_start = cycles;
                b_rounds = 0;
                b_nodes = Hashtbl.create 16;
                b_order = [];
              }
      | "compile_done" ->
          close
            (Printf.sprintf "compiled, %d nodes (latency %d)" (int_field j "size")
               (int_field j "latency"))
      | "compile_bailout" -> close ("bailout: " ^ str_field j "reason")
      | "inline_round" when not (bool_field j "fuel_abort") ->
          let b = builder_for (int_field j "root") cycles in
          b.b_rounds <- max b.b_rounds (int_field j "round")
      | ("expand_decision" | "inline_decision") as kind ->
          let b = builder_for (int_field j "root") cycles in
          let n = node_for b j in
          let phase = if kind = "expand_decision" then Expand else Inline in
          n.x_decisions <-
            {
              d_round = b.b_rounds + 1;
              d_phase = phase;
              d_verdict = str_field j "verdict";
              d_benefit = num_field j "benefit";
              d_cost = num_field j "cost";
              d_penalty =
                (if phase = Expand then Some (num_field j "penalty") else None);
              d_threshold = num_field j "threshold";
              d_priority = num_field j "priority";
              d_cluster = bool_field j "cluster";
              d_context =
                int_field j (if phase = Expand then "tree_size" else "root_size");
              d_at_cycles = cycles;
            }
            :: n.x_decisions
      | _ -> ())
    events;
  close "(trace ended mid-compilation)";
  List.rev !done_

let of_lines (lines : string list) : (compilation list, string) result =
  match Summary.parse_lines lines with
  | _, (n, e) :: _ -> Error (Printf.sprintf "line %d: %s" n e)
  | events, [] -> Ok (of_events (List.map snd events))

let of_file (path : string) : (compilation list, string) result =
  of_lines (In_channel.with_open_text path In_channel.input_lines)

(* ---------- rendering ---------- *)

(* "declined r1, expanded r3": one entry per run of equal verdicts, tagged
   with the run's first round. *)
let phase_history (phase : phase) (ds : decision list) : string option =
  let past_tense d =
    match d.d_verdict with
    | "expand" -> "expanded"
    | "decline" -> "declined"
    | "inline" -> if d.d_cluster then "inlined(cluster)" else "inlined"
    | "skip" -> "skipped"
    | v -> v
  in
  let ds = List.filter (fun d -> d.d_phase = phase) ds in
  let runs =
    List.fold_left
      (fun acc d ->
        match acc with
        | (v, _) :: _ when v = past_tense d -> acc
        | _ -> (past_tense d, d.d_round) :: acc)
      [] ds
  in
  match runs with
  | [] -> None
  | _ ->
      Some
        (String.concat ", "
           (List.rev_map (fun (v, r) -> Printf.sprintf "%s r%d" v r) runs))

let last_of_phase (phase : phase) (ds : decision list) : decision option =
  List.fold_left
    (fun acc d -> if d.d_phase = phase then Some d else acc)
    None ds

let node_line (n : cnode) : string =
  let buf = Buffer.create 128 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "%s @%d:%d v%d" n.x_target (fst n.x_site) (snd n.x_site) n.x_callsite;
  let history =
    List.filter_map
      (fun p -> phase_history p n.x_decisions)
      [ Expand; Inline ]
  in
  if history <> [] then pf " [%s]" (String.concat "; " history);
  (match (last_of_phase Inline n.x_decisions, last_of_phase Expand n.x_decisions) with
  | Some d, _ ->
      pf " B=%.2f cost=%.2f prio=%.4f thr=%.4f" d.d_benefit d.d_cost d.d_priority
        d.d_threshold
  | None, Some d ->
      pf " B=%.2f cost=%.0f" d.d_benefit d.d_cost;
      (match d.d_penalty with Some p -> pf " psi=%.2f" p | None -> ());
      pf " prio=%.4f thr=%.4f" d.d_priority d.d_threshold
  | None, None -> ());
  Buffer.contents buf

let render_tree (buf : Buffer.t) (roots : cnode list) : unit =
  let rec go indent n =
    Buffer.add_string buf
      (Printf.sprintf "%s+- %s\n" (String.make (2 * indent) ' ') (node_line n));
    List.iter (go (indent + 1)) n.x_children
  in
  List.iter (go 1) roots

let header (c : compilation) : string =
  Printf.sprintf "compile %s (m%d) @%d: %d round%s, %s" c.c_meth c.c_m c.c_start_cycles
    c.c_rounds
    (if c.c_rounds = 1 then "" else "s")
    c.c_outcome

let render (cs : compilation list) : string =
  let buf = Buffer.create 1024 in
  if cs = [] then Buffer.add_string buf "no compilations in trace\n"
  else
    List.iter
      (fun c ->
        Buffer.add_string buf (header c);
        Buffer.add_char buf '\n';
        if c.c_roots = [] then Buffer.add_string buf "  (no inlining decisions)\n"
        else render_tree buf c.c_roots;
        Buffer.add_char buf '\n')
      cs;
  Buffer.contents buf

(* Full decision provenance for callsites matching [meth] (target label)
   and, when given, [site] (the site ordinal). *)
let render_why (cs : compilation list) ~(meth : string) ~(site : int option) :
    string =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let matches (n : cnode) =
    n.x_target = meth
    && match site with Some s -> snd n.x_site = s | None -> true
  in
  let found = ref 0 in
  List.iter
    (fun c ->
      let rec visit (n : cnode) =
        if matches n then begin
          incr found;
          pf "%s\n" (header c);
          pf "  %s @%d:%d v%d  nid=%d parent=%s depth=%d\n" n.x_target (fst n.x_site)
            (snd n.x_site) n.x_callsite n.x_nid
            (if n.x_parent < 0 then "root" else string_of_int n.x_parent)
            n.x_depth;
          List.iter
            (fun d ->
              match d.d_phase with
              | Expand ->
                  pf
                    "    r%-2d @%-8d expand  %-7s B=%.4f cost=%.0f psi=%.4f \
                     prio=%.4f thr=%.4f tree_size=%d\n"
                    d.d_round d.d_at_cycles d.d_verdict d.d_benefit d.d_cost
                    (match d.d_penalty with Some p -> p | None -> 0.0)
                    d.d_priority d.d_threshold d.d_context
              | Inline ->
                  pf
                    "    r%-2d @%-8d inline  %-7s B=%.4f cost=%.2f prio=%.4f \
                     thr=%.4f root_size=%d%s\n"
                    d.d_round d.d_at_cycles d.d_verdict d.d_benefit d.d_cost
                    d.d_priority d.d_threshold d.d_context
                    (if d.d_cluster then " (cluster member)" else ""))
            n.x_decisions;
          pf "\n"
        end;
        List.iter visit n.x_children
      in
      List.iter visit c.c_roots)
    cs;
  if !found = 0 then
    pf "no decisions recorded for %s%s\n" meth
      (match site with Some s -> Printf.sprintf ":%d" s | None -> "");
  Buffer.contents buf
