(* Declarative SLO monitors over timeline samples.

   The checker reads the [timeline_sample] rows of a recorded timeline
   and fires structured violations when a windowed anomaly detector
   trips. Detection is per (spec, source):
   tenants never share detector state, mirroring the serving layer's
   isolation invariant, and every decision derives from the sample's
   cycle stamps — same-seed runs fire byte-identical violations.

   Violations are edge-triggered: one firing when a detector enters
   violation, re-armed only after the condition clears. A storm that
   persists across ten samples is one violation, not ten — a soak gate
   counts incidents, not samples. *)

type detector =
  | Window_rate of { field : string; window : int; limit : int }
      (* fires when a monotonic counter field grew by more than [limit]
         within the trailing [window] simulated cycles *)
  | Level of { field : string; limit : int }
      (* fires when a gauge field exceeds [limit] at a sample *)

type spec = { sp_name : string; sp_detector : detector }

(* The three fleet failure modes the serving layer exposes as sample
   gauges. Defaults are sized to stay quiet on the CI serve soak's
   configured capacities while still catching an order-of-magnitude
   regression; tests tighten them to force firings. *)

let deopt_storm ?(window = 100_000) ?(limit = 24) () : spec =
  {
    sp_name = "deopt-storm";
    sp_detector = Window_rate { field = "invalidations"; window; limit };
  }

let queue_saturation ?(window = 100_000) ?(limit = 200) () : spec =
  {
    sp_name = "queue-saturation";
    sp_detector = Window_rate { field = "sheds"; window; limit };
  }

let cache_thrash ?(limit = 12) () : spec =
  {
    sp_name = "cache-thrash";
    sp_detector = Level { field = "evict_max"; limit };
  }

let default_specs : spec list =
  [ deopt_storm (); queue_saturation (); cache_thrash () ]

let find_spec (name : string) : spec option =
  List.find_opt (fun s -> s.sp_name = name) default_specs

type violation = {
  v_slo : string;
  v_source : string;
  v_cycles : int;
  v_field : string;
  v_value : int;   (* the observed growth (window) or level *)
  v_limit : int;
  v_window : int;  (* 0 for level detectors *)
}

(* Per (spec, source) state: the sample history a window detector reads
   ((cycles, value), newest first) and the edge-trigger latch. *)
type cell = { mutable history : (int * int) list; mutable active : bool }

let field_of (fields : (string * Support.Json.t) list) (name : string) :
    int option =
  Option.bind (List.assoc_opt name fields) Support.Json.to_int_opt

(* One spec against one sample: evaluate the detector, update its state
   [c], and return the violation if this sample is a rising edge. *)
let step (c : cell) (spec : spec) ~(source : string) ~(cycles : int)
    (fields : (string * Support.Json.t) list) : violation option =
  let fire ~field ~value ~limit ~window =
    if c.active then None
    else begin
      c.active <- true;
      Some
        {
          v_slo = spec.sp_name;
          v_source = source;
          v_cycles = cycles;
          v_field = field;
          v_value = value;
          v_limit = limit;
          v_window = window;
        }
    end
  in
  match spec.sp_detector with
  | Level { field; limit } -> (
      match field_of fields field with
      | None -> None
      | Some v ->
          if v > limit then fire ~field ~value:v ~limit ~window:0
          else begin
            c.active <- false;
            None
          end)
  | Window_rate { field; window; limit } -> (
      match field_of fields field with
      | None -> None
      | Some v ->
          let horizon = cycles - window in
          (* keep the newest entry at or before the horizon as the
             baseline; everything older is unreachable *)
          let rec trim kept = function
            | [] -> List.rev kept
            | (tc, tv) :: rest ->
                if tc <= horizon then List.rev ((tc, tv) :: kept)
                else trim ((tc, tv) :: kept) rest
          in
          c.history <- trim [] ((cycles, v) :: c.history);
          let baseline =
            match List.rev c.history with (_, oldest) :: _ -> oldest | [] -> v
          in
          let grew = v - baseline in
          if grew > limit then fire ~field ~value:grew ~limit ~window
          else begin
            c.active <- false;
            None
          end)

let fields_of_row (r : Timeline.row) : (string * Support.Json.t) list =
  match r.Timeline.r_fields with Support.Json.Obj fs -> fs | _ -> []

let check_rows ?(specs = default_specs) (rows : Timeline.row list) :
    violation list =
  let cells = Hashtbl.create 16 in
  let cell (spec : spec) (source : string) : cell =
    let key = (spec.sp_name, source) in
    match Hashtbl.find_opt cells key with
    | Some c -> c
    | None ->
        let c = { history = []; active = false } in
        Hashtbl.replace cells key c;
        c
  in
  List.concat_map
    (fun (r : Timeline.row) ->
      if r.Timeline.r_kind <> "timeline_sample" then []
      else
        let source = r.Timeline.r_source and fields = fields_of_row r in
        List.filter_map
          (fun spec ->
            step (cell spec source) spec ~source ~cycles:r.Timeline.r_cycles
              fields)
          specs)
    rows

let check_lines ?specs (lines : string list) : (violation list, string) result =
  Result.map (check_rows ?specs) (Timeline.rows_of_lines lines)

let check_file ?specs (path : string) : (violation list, string) result =
  Result.map (check_rows ?specs) (Timeline.rows_of_file path)

let render (vs : violation list) : string =
  let b = Buffer.create 256 in
  List.iter
    (fun v ->
      Buffer.add_string b
        (if v.v_window > 0 then
           Printf.sprintf "%-16s %-16s @%d  %s +%d > %d in %d cycles\n"
             v.v_slo v.v_source v.v_cycles v.v_field v.v_value v.v_limit
             v.v_window
         else
           Printf.sprintf "%-16s %-16s @%d  %s %d > %d\n" v.v_slo v.v_source
             v.v_cycles v.v_field v.v_value v.v_limit))
    vs;
  Buffer.contents b
