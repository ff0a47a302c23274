(* Cross-run drift diffing: metrics exports, timelines, and the inline
   decision trees Explain rebuilds — the reviewable diff the warm-start
   roadmap item wants between two versions (or two runs) of the JIT.

   All comparisons are structural and deterministic: JSON values diff by
   sorted key paths, timelines line-by-line, decision trees by matching
   nodes on their stable (target, profile-site) identity path. Two
   same-seed runs of the same build diff to nothing; a perturbed
   inlining threshold shows up as verdict flips and priority/threshold
   deltas, not as an opaque byte mismatch. *)

type delta = { dl_path : string; dl_a : string; dl_b : string }

let scalar_string (j : Support.Json.t) : string = Support.Json.to_string j

(* Structural diff of two JSON documents. Objects diff over the union of
   their keys in sorted order ("(absent)" for a missing side), lists by
   index, scalars by serialized value. *)
let diff_json (a : Support.Json.t) (b : Support.Json.t) : delta list =
  let out = ref [] in
  let emit path va vb = out := { dl_path = path; dl_a = va; dl_b = vb } :: !out in
  let join path k = if path = "" then k else path ^ "." ^ k in
  let rec go path (a : Support.Json.t) (b : Support.Json.t) =
    match (a, b) with
    | Support.Json.Obj fa, Support.Json.Obj fb ->
        let keys =
          List.sort_uniq compare (List.map fst fa @ List.map fst fb)
        in
        List.iter
          (fun k ->
            match (List.assoc_opt k fa, List.assoc_opt k fb) with
            | Some va, Some vb -> go (join path k) va vb
            | Some va, None -> emit (join path k) (scalar_string va) "(absent)"
            | None, Some vb -> emit (join path k) "(absent)" (scalar_string vb)
            | None, None -> ())
          keys
    | Support.Json.List la, Support.Json.List lb ->
        let na = List.length la and nb = List.length lb in
        if na <> nb then
          emit (join path "length") (string_of_int na) (string_of_int nb);
        List.iteri
          (fun i (va, vb) -> go (join path (string_of_int i)) va vb)
          (List.combine
             (List.filteri (fun i _ -> i < min na nb) la)
             (List.filteri (fun i _ -> i < min na nb) lb))
    | _ ->
        if a <> b then emit path (scalar_string a) (scalar_string b)
  in
  go "" a b;
  List.rev !out

(* Timelines are byte-identical across same-seed runs, so the diff is
   line-oriented: every differing line number, plus a length mismatch. *)
let diff_lines (a : string list) (b : string list) : delta list =
  let out = ref [] in
  let rec go n a b =
    match (a, b) with
    | [], [] -> ()
    | la :: ra, lb :: rb ->
        if la <> lb then
          out := { dl_path = Printf.sprintf "line %d" n; dl_a = la; dl_b = lb } :: !out;
        go (n + 1) ra rb
    | rest, [] ->
        out :=
          { dl_path = "length";
            dl_a = Printf.sprintf "%d more lines" (List.length rest);
            dl_b = "(end)" }
          :: !out
    | [], rest ->
        out :=
          { dl_path = "length";
            dl_a = "(end)";
            dl_b = Printf.sprintf "%d more lines" (List.length rest) }
          :: !out
  in
  go 1 a b;
  List.rev !out

(* ---------- inline-decision drift ---------- *)

type drift = {
  df_comp : string;   (* compilation identity: "meth#occurrence" *)
  df_node : string;   (* node identity path, "" for the compilation itself *)
  df_kind : string;   (* verdict | priority | threshold | benefit | cost | node | compilation *)
  df_a : string;
  df_b : string;
}

(* A node's identity inside its compilation: the chain of
   (target, declaring-site) keys from the root — stable across runs
   (node ids are emission-ordered and may shift; profile sites are
   keyed to the IR). *)
let node_key (n : Explain.cnode) : string =
  let sm, si = n.Explain.x_site in
  Printf.sprintf "%s@%d:%d" n.Explain.x_target sm si

(* The final decision of a phase, if any (decision lists are
   chronological). *)
let final_decision (n : Explain.cnode) (phase : Explain.phase) :
    Explain.decision option =
  List.fold_left
    (fun acc (d : Explain.decision) ->
      if d.Explain.d_phase = phase then Some d else acc)
    None n.Explain.x_decisions

let fnum (f : float) : string = Printf.sprintf "%.4f" f

(* Diff two matched nodes: verdict flips first (the headline), then
   priority/threshold/benefit/cost deltas of the final decision in each
   phase. *)
let diff_node ~(comp : string) ~(path : string) (a : Explain.cnode)
    (b : Explain.cnode) : drift list =
  let out = ref [] in
  let add kind va vb =
    out := { df_comp = comp; df_node = path; df_kind = kind; df_a = va; df_b = vb } :: !out
  in
  List.iter
    (fun phase ->
      let tag =
        match phase with Explain.Expand -> "expand" | Explain.Inline -> "inline"
      in
      match (final_decision a phase, final_decision b phase) with
      | None, None -> ()
      | Some d, None -> add (tag ^ "-verdict") d.Explain.d_verdict "(none)"
      | None, Some d -> add (tag ^ "-verdict") "(none)" d.Explain.d_verdict
      | Some da, Some db ->
          if da.Explain.d_verdict <> db.Explain.d_verdict then
            add (tag ^ "-verdict") da.Explain.d_verdict db.Explain.d_verdict;
          if da.Explain.d_priority <> db.Explain.d_priority then
            add (tag ^ "-priority") (fnum da.Explain.d_priority)
              (fnum db.Explain.d_priority);
          if da.Explain.d_threshold <> db.Explain.d_threshold then
            add (tag ^ "-threshold") (fnum da.Explain.d_threshold)
              (fnum db.Explain.d_threshold);
          if da.Explain.d_benefit <> db.Explain.d_benefit then
            add (tag ^ "-benefit") (fnum da.Explain.d_benefit)
              (fnum db.Explain.d_benefit);
          if da.Explain.d_cost <> db.Explain.d_cost then
            add (tag ^ "-cost") (fnum da.Explain.d_cost) (fnum db.Explain.d_cost))
    [ Explain.Expand; Explain.Inline ];
  List.rev !out

(* Pair children by identity key, duplicates by occurrence order. *)
let pair_children (xs : Explain.cnode list) (ys : Explain.cnode list) :
    (string * Explain.cnode option * Explain.cnode option) list =
  let keyed ns =
    let seen = Hashtbl.create 8 in
    List.map
      (fun n ->
        let k = node_key n in
        let occ = try Hashtbl.find seen k with Not_found -> 0 in
        Hashtbl.replace seen k (occ + 1);
        ((k, occ), n))
      ns
  in
  let ka = keyed xs and kb = keyed ys in
  let keys =
    List.sort_uniq compare (List.map fst ka @ List.map fst kb)
  in
  List.map
    (fun key ->
      let k, occ = key in
      let label = if occ = 0 then k else Printf.sprintf "%s#%d" k occ in
      (label, List.assoc_opt key ka, List.assoc_opt key kb))
    keys

let rec diff_forest ~(comp : string) ~(prefix : string)
    (xs : Explain.cnode list) (ys : Explain.cnode list) : drift list =
  List.concat_map
    (fun (label, a, b) ->
      let path = if prefix = "" then label else prefix ^ "/" ^ label in
      match (a, b) with
      | Some a, Some b ->
          diff_node ~comp ~path a b
          @ diff_forest ~comp ~prefix:path a.Explain.x_children
              b.Explain.x_children
      | Some _, None ->
          [ { df_comp = comp; df_node = path; df_kind = "node";
              df_a = "present"; df_b = "absent" } ]
      | None, Some _ ->
          [ { df_comp = comp; df_node = path; df_kind = "node";
              df_a = "absent"; df_b = "present" } ]
      | None, None -> [])
    (pair_children xs ys)

(* Compilations pair by (root method, occurrence): the k-th compilation
   of a method in run A against the k-th in run B. *)
let diff_decisions (a : Explain.compilation list)
    (b : Explain.compilation list) : drift list =
  let keyed comps =
    let seen = Hashtbl.create 8 in
    List.map
      (fun (c : Explain.compilation) ->
        let occ = try Hashtbl.find seen c.Explain.c_meth with Not_found -> 0 in
        Hashtbl.replace seen c.Explain.c_meth (occ + 1);
        ((c.Explain.c_meth, occ), c))
      comps
  in
  let ka = keyed a and kb = keyed b in
  let keys = List.sort_uniq compare (List.map fst ka @ List.map fst kb) in
  List.concat_map
    (fun key ->
      let meth, occ = key in
      let comp = if occ = 0 then meth else Printf.sprintf "%s#%d" meth occ in
      match (List.assoc_opt key ka, List.assoc_opt key kb) with
      | Some ca, Some cb ->
          let outcome =
            if ca.Explain.c_outcome <> cb.Explain.c_outcome then
              [ { df_comp = comp; df_node = ""; df_kind = "compilation";
                  df_a = ca.Explain.c_outcome; df_b = cb.Explain.c_outcome } ]
            else []
          in
          outcome
          @ diff_forest ~comp ~prefix:"" ca.Explain.c_roots cb.Explain.c_roots
      | Some _, None ->
          [ { df_comp = comp; df_node = ""; df_kind = "compilation";
              df_a = "present"; df_b = "absent" } ]
      | None, Some _ ->
          [ { df_comp = comp; df_node = ""; df_kind = "compilation";
              df_a = "absent"; df_b = "present" } ]
      | None, None -> [])
    keys

(* ---------- rendering ---------- *)

let truncate_line (s : string) : string =
  if String.length s <= 64 then s else String.sub s 0 61 ^ "..."

let render_deltas ?(limit = 20) (title : string) (ds : delta list) : string =
  let b = Buffer.create 256 in
  if ds = [] then Buffer.add_string b (Printf.sprintf "%s: no drift\n" title)
  else begin
    Buffer.add_string b
      (Printf.sprintf "%s: %d difference%s\n" title (List.length ds)
         (if List.length ds = 1 then "" else "s"));
    List.iteri
      (fun i d ->
        if i < limit then
          Buffer.add_string b
            (Printf.sprintf "  %-40s %s -> %s\n" d.dl_path
               (truncate_line d.dl_a) (truncate_line d.dl_b)))
      ds;
    if List.length ds > limit then
      Buffer.add_string b
        (Printf.sprintf "  ... and %d more\n" (List.length ds - limit))
  end;
  Buffer.contents b

let render_drift ?(limit = 40) (ds : drift list) : string =
  let b = Buffer.create 256 in
  if ds = [] then Buffer.add_string b "inline decisions: no drift\n"
  else begin
    Buffer.add_string b
      (Printf.sprintf "inline decisions: %d drift%s\n" (List.length ds)
         (if List.length ds = 1 then "" else "s"));
    List.iteri
      (fun i d ->
        if i < limit then
          Buffer.add_string b
            (Printf.sprintf "  %-24s %-44s %-18s %s -> %s\n" d.df_comp
               (if d.df_node = "" then "(compilation)" else d.df_node)
               d.df_kind d.df_a d.df_b))
      ds;
    if List.length ds > limit then
      Buffer.add_string b
        (Printf.sprintf "  ... and %d more\n" (List.length ds - limit))
  end;
  Buffer.contents b
