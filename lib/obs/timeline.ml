(* Deterministic time-series telemetry: a sampler that streams gauge
   snapshots as JSONL rows on the simulated cycle clock.

   Rows share the trace event shape — one JSON object per line with
   ["ev"] and ["cycles"] — so the tolerant [Summary.parse_lines] scanner
   and the golden trace-schema machinery handle them unchanged, but a
   timeline is its own stream (its own file or memory sink), never mixed
   into a trace. Every row additionally carries ["seq"], the global
   emission ordinal: two rows with equal cycle stamps (two tenants
   sampled in the same round-robin turn) still have a total, reproducible
   order, which is what makes same-seed timelines byte-identical.

   Sampling cadence is the caller's: the engine checks its own [due]
   cycle mark at method entries, the fleet driver once per round-robin
   turn, both against {!interval}. Nothing here reads wall time. *)

type t = {
  tl_write : string -> unit;
  tl_interval : int;
  mutable tl_rows : int;
}

(* Default cadence in simulated cycles between samples of one source.
   Coarse enough that a soak's timeline stays a few hundred rows, fine
   enough that a deopt storm spans several samples. *)
let default_interval = 20_000

let make ?(interval = default_interval) (write : string -> unit) : t =
  { tl_write = write; tl_interval = max 1 interval; tl_rows = 0 }

let interval (tl : t) : int = tl.tl_interval
let rows (tl : t) : int = tl.tl_rows

let memory ?interval () : t * (unit -> string list) =
  let lines = ref [] in
  let tl = make ?interval (fun line -> lines := line :: !lines) in
  (tl, fun () -> List.rev !lines)

let with_file ?interval (path : string) (f : t -> 'a) : 'a =
  Support.Io.with_atomic_out path (fun oc ->
      f
        (make ?interval (fun line ->
             output_string oc line;
             output_char oc '\n')))

let record (tl : t) ~(kind : string) ~(cycles : int)
    (fields : (string * Support.Json.t) list) : unit =
  let j =
    Support.Json.Obj
      (("ev", Support.Json.String kind)
      :: ("cycles", Support.Json.Int cycles)
      :: ("seq", Support.Json.Int tl.tl_rows)
      :: fields)
  in
  tl.tl_write (Support.Json.to_string j);
  tl.tl_rows <- tl.tl_rows + 1

let sample (tl : t) ~(source : string) ~(cycles : int)
    (fields : (string * Support.Json.t) list) : unit =
  record tl ~kind:"timeline_sample" ~cycles (("tenant", Support.Json.String source) :: fields)

let fleet (tl : t) ~(cycles : int) (fields : (string * Support.Json.t) list) :
    unit =
  record tl ~kind:"timeline_fleet" ~cycles fields

(* ---------- reading a timeline back ---------- *)

type row = {
  r_kind : string;
  r_cycles : int;
  r_seq : int;
  r_source : string;  (* "" on fleet rows *)
  r_fields : Support.Json.t;
}

let row_of_json (j : Support.Json.t) : row option =
  match
    ( Option.bind (Support.Json.member "ev" j) Support.Json.to_string_opt,
      Option.bind (Support.Json.member "cycles" j) Support.Json.to_int_opt )
  with
  | Some kind, Some cycles ->
      Some
        {
          r_kind = kind;
          r_cycles = cycles;
          r_seq =
            Option.value ~default:0
              (Option.bind (Support.Json.member "seq" j) Support.Json.to_int_opt);
          r_source =
            Option.value ~default:""
              (Option.bind (Support.Json.member "tenant" j)
                 Support.Json.to_string_opt);
          r_fields = j;
        }
  | _ -> None

let rows_of_lines (lines : string list) : (row list, string) result =
  let events, errors = Summary.parse_lines lines in
  match errors with
  | (n, e) :: _ -> Error (Printf.sprintf "line %d: %s" n e)
  | [] -> Ok (List.filter_map (fun (_, j) -> row_of_json j) events)

let rows_of_file (path : string) : (row list, string) result =
  match In_channel.with_open_text path In_channel.input_lines with
  | lines -> rows_of_lines lines
  | exception Sys_error e -> Error e

(* Field access on a row, for the SLO detectors and `selvm top`. *)
let field (r : row) (name : string) : int option =
  Option.bind (Support.Json.member name r.r_fields) Support.Json.to_int_opt
