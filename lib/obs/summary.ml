(* Trace digestion for `selvm events`: folds a JSONL event stream into the
   aggregate view the paper's evaluation cares about — how many
   compilations, how much code got installed and when, what the inliner
   decided, what the optimizer triggered. *)

type compile_event = {
  meth : string;
  size : int;
  at_cycles : int;
}

type t = {
  mutable total : int;
  mutable kinds : (string * int) list;      (* per-kind counts, insertion order *)
  mutable installs : compile_event list;    (* chronological *)
  mutable invalidations : compile_event list;  (* size = misses at invalidation *)
  mutable bailouts : (string * string * int) list;  (* meth, reason, at_cycles *)
  mutable blacklisted : string list;  (* methods whose last bailout hit the cap *)
  mutable chaos_faults : (string * int) list;  (* injected faults by kind *)
  mutable inline_yes : int;
  mutable inline_no : int;
  mutable expand_yes : int;
  mutable expand_no : int;
  mutable canon_events : int;
  mutable nodes_deleted : int;
  mutable ic_sites : int;
  mutable ic_hits : int;
  mutable ic_misses : int;
  mutable ic_megamorphic : int;
  mutable evictions : compile_event list;  (* size = IR nodes retired *)
  mutable sheds : (string * int) list;     (* by reason, first-seen order *)
  mutable serve_tenants : int;
  mutable queue_waits : int list;          (* cycles, arrival order *)
  mutable last_cycles : int;
}

let empty () =
  {
    total = 0;
    kinds = [];
    installs = [];
    invalidations = [];
    bailouts = [];
    blacklisted = [];
    chaos_faults = [];
    inline_yes = 0;
    inline_no = 0;
    expand_yes = 0;
    expand_no = 0;
    canon_events = 0;
    nodes_deleted = 0;
    ic_sites = 0;
    ic_hits = 0;
    ic_misses = 0;
    ic_megamorphic = 0;
    evictions = [];
    sheds = [];
    serve_tenants = 0;
    queue_waits = [];
    last_cycles = 0;
  }

let bump_kind (s : t) (kind : string) : unit =
  s.kinds <-
    (if List.mem_assoc kind s.kinds then
       List.map (fun (k, n) -> if k = kind then (k, n + 1) else (k, n)) s.kinds
     else s.kinds @ [ (kind, 1) ])

let int_field j key =
  match Option.bind (Support.Json.member key j) Support.Json.to_int_opt with
  | Some n -> n
  | None -> 0

let str_field j key =
  match Option.bind (Support.Json.member key j) Support.Json.to_string_opt with
  | Some s -> s
  | None -> "?"

let add_event (s : t) (j : Support.Json.t) : unit =
  let kind = str_field j "ev" in
  s.total <- s.total + 1;
  bump_kind s kind;
  let cycles = int_field j "cycles" in
  if cycles > s.last_cycles then s.last_cycles <- cycles;
  match kind with
  | "install" ->
      s.installs <-
        s.installs @ [ { meth = str_field j "meth"; size = int_field j "size"; at_cycles = cycles } ]
  | "invalidate" ->
      s.invalidations <-
        s.invalidations
        @ [ { meth = str_field j "meth"; size = int_field j "misses"; at_cycles = cycles } ]
  | "compile_bailout" ->
      let meth = str_field j "meth" in
      s.bailouts <- s.bailouts @ [ (meth, str_field j "reason", cycles) ];
      if
        (match Support.Json.member "blacklisted" j with
        | Some (Support.Json.Bool b) -> b
        | _ -> false)
        && not (List.mem meth s.blacklisted)
      then s.blacklisted <- s.blacklisted @ [ meth ]
  | "chaos" ->
      let fault = str_field j "fault" in
      s.chaos_faults <-
        (if List.mem_assoc fault s.chaos_faults then
           List.map
             (fun (k, n) -> if k = fault then (k, n + 1) else (k, n))
             s.chaos_faults
         else s.chaos_faults @ [ (fault, 1) ])
  | "inline_decision" ->
      if str_field j "verdict" = "inline" then s.inline_yes <- s.inline_yes + 1
      else s.inline_no <- s.inline_no + 1
  | "expand_decision" ->
      if str_field j "verdict" = "expand" then s.expand_yes <- s.expand_yes + 1
      else s.expand_no <- s.expand_no + 1
  | "opt_round" ->
      s.canon_events <- s.canon_events + int_field j "canon";
      s.nodes_deleted <- s.nodes_deleted + int_field j "dce"
  | "ic_site" ->
      s.ic_sites <- s.ic_sites + 1;
      s.ic_hits <- s.ic_hits + int_field j "ic_hit";
      s.ic_misses <- s.ic_misses + int_field j "ic_miss";
      s.ic_megamorphic <- s.ic_megamorphic + int_field j "ic_megamorphic"
  | "evict" ->
      s.evictions <-
        s.evictions
        @ [ { meth = str_field j "meth"; size = int_field j "size"; at_cycles = cycles } ]
  | "shed" ->
      let reason = str_field j "reason" in
      s.sheds <-
        (if List.mem_assoc reason s.sheds then
           List.map
             (fun (k, n) -> if k = reason then (k, n + 1) else (k, n))
             s.sheds
         else s.sheds @ [ (reason, 1) ])
  | "serve_start" -> s.serve_tenants <- max s.serve_tenants (int_field j "tenants")
  | "serve_dequeue" -> s.queue_waits <- s.queue_waits @ [ int_field j "wait" ]
  | _ -> ()

(* Tolerant line scan: well-formed events with their 1-based line numbers,
   plus the malformed lines as (lineno, error). Blank lines are skipped.
   `selvm events` warns per error. *)
let parse_lines (lines : string list) :
    (int * Support.Json.t) list * (int * string) list =
  let rec go lineno events errors = function
    | [] -> (List.rev events, List.rev errors)
    | line :: rest ->
        if String.trim line = "" then go (lineno + 1) events errors rest
        else (
          match Support.Json.of_string line with
          | Ok j -> go (lineno + 1) ((lineno, j) :: events) errors rest
          | Error e -> go (lineno + 1) events ((lineno, e) :: errors) rest)
  in
  go 1 [] [] lines

let of_events (events : Support.Json.t list) : t =
  let s = empty () in
  List.iter (add_event s) events;
  s

(* One summary per harness run, keyed on the run_start markers the harness
   emits. Events before the first marker fold into a "(preamble)" segment;
   [] when the trace has no markers at all (single anonymous stream). *)
let split_runs (events : Support.Json.t list) : (string * t) list =
  let runs = ref [] in
  let current : (string * t) option ref = ref None in
  let close () = match !current with Some r -> runs := r :: !runs | None -> () in
  List.iter
    (fun j ->
      if str_field j "ev" = "run_start" then begin
        close ();
        current := Some (str_field j "label", empty ())
      end
      else begin
        (match !current with
        | None -> current := Some ("(preamble)", empty ())
        | Some _ -> ());
        match !current with
        | Some (_, s) -> add_event s j
        | None -> assert false
      end)
    events;
  close ();
  match List.rev !runs with
  | [ ("(preamble)", _) ] -> []  (* no markers: nothing to split *)
  | runs -> runs

let installed_code_size (s : t) : int =
  List.fold_left (fun acc (c : compile_event) -> acc + c.size) 0 s.installs

let render (s : t) : string =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "%d events over %d simulated cycles\n\n" s.total s.last_cycles;
  pf "events by kind:\n";
  List.iter (fun (k, n) -> pf "  %-18s %d\n" k n) s.kinds;
  if s.installs <> [] then begin
    pf "\ncompile timeline (%d installs, %d IR nodes):\n" (List.length s.installs)
      (installed_code_size s);
    List.iter
      (fun (c : compile_event) ->
        pf "  @%-10d install %-24s %d nodes\n" c.at_cycles c.meth c.size)
      s.installs
  end;
  if s.invalidations <> [] then begin
    pf "\ninvalidations:\n";
    List.iter
      (fun (c : compile_event) ->
        pf "  @%-10d invalidate %-21s %d spec misses\n" c.at_cycles c.meth c.size)
      s.invalidations
  end;
  if s.bailouts <> [] then begin
    pf "\ncompile bailouts:\n";
    List.iter
      (fun (meth, reason, at) -> pf "  @%-10d bailout %-24s %s\n" at meth reason)
      s.bailouts;
    if s.blacklisted <> [] then
      pf "  blacklisted (permanently interpreted): %s\n"
        (String.concat ", " s.blacklisted)
  end;
  if s.chaos_faults <> [] then begin
    pf "\nchaos faults injected:\n";
    List.iter (fun (k, n) -> pf "  %-18s %d\n" k n) s.chaos_faults
  end;
  if s.inline_yes + s.inline_no + s.expand_yes + s.expand_no > 0 then begin
    pf "\ninliner decisions:\n";
    pf "  expansions         %d accepted, %d declined\n" s.expand_yes s.expand_no;
    pf "  inlines            %d accepted, %d skipped\n" s.inline_yes s.inline_no
  end;
  if s.canon_events + s.nodes_deleted > 0 then begin
    pf "\noptimizer (root rounds):\n";
    pf "  canonicalizations  %d\n" s.canon_events;
    pf "  nodes deleted      %d\n" s.nodes_deleted
  end;
  if s.serve_tenants > 0 || s.evictions <> [] || s.sheds <> [] then begin
    pf "\nserving:\n";
    if s.serve_tenants > 0 then pf "  tenants            %d\n" s.serve_tenants;
    pf "  evictions          %d (%d IR nodes retired)\n"
      (List.length s.evictions)
      (List.fold_left (fun acc (c : compile_event) -> acc + c.size) 0 s.evictions);
    List.iter (fun (k, n) -> pf "  shed (%s)  %d\n" k n) s.sheds;
    if s.queue_waits <> [] then begin
      let n = List.length s.queue_waits in
      let sum = List.fold_left ( + ) 0 s.queue_waits in
      let mx = List.fold_left max 0 s.queue_waits in
      pf "  queue waits        %d serviced, mean %d cycles, max %d\n" n (sum / n) mx
    end
  end;
  if s.ic_sites > 0 then begin
    let d = s.ic_hits + s.ic_misses + s.ic_megamorphic in
    pf "\ninline caches (%d sites):\n" s.ic_sites;
    pf "  hits               %d (%.1f%% of %d dispatches)\n" s.ic_hits
      (100.0 *. float_of_int s.ic_hits /. float_of_int (max 1 d))
      d;
    pf "  misses             %d\n" s.ic_misses;
    pf "  megamorphic        %d\n" s.ic_megamorphic
  end;
  Buffer.contents buf
