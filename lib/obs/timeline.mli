(** Deterministic time-series telemetry: gauge snapshots streamed as
    JSONL on the simulated cycle clock.

    Rows share the {!Trace} event shape (one JSON object per line with
    ["ev"] and ["cycles"]) plus ["seq"], the global emission ordinal, so
    rows with equal cycle stamps still have a total, reproducible order —
    same-seed runs produce byte-identical timelines, chaos included.

    The sampler is passive: the engine and the fleet driver decide when a
    source is due (comparing its clock against {!interval}) and call
    {!sample} / {!fleet} with their gauges. With no timeline attached the
    engine's per-entry check is one [None] match — sampling is zero-cost
    when disabled. Schema: see docs/OBSERVABILITY.md. *)

type t

val default_interval : int
(** Simulated cycles between samples of one source (20k). *)

val interval : t -> int

val rows : t -> int
(** Rows emitted so far (the next row's ["seq"]). *)

val memory : ?interval:int -> unit -> t * (unit -> string list)
(** An in-memory timeline and a reader of the rows collected so far. *)

val with_file : ?interval:int -> string -> (t -> 'a) -> 'a
(** [with_file path f] runs [f] with a timeline writing JSONL to [path]
    (atomic: temp sibling + rename, like {!Trace.with_file}). *)

val sample : t -> source:string -> cycles:int -> (string * Support.Json.t) list -> unit
(** One [timeline_sample] row: ["tenant"] set to [source], then the
    source's gauge fields. The {!Metrics} registry is process-wide, so
    rows carry no snapshot of it; [--metrics] exports it once per run. *)

val fleet : t -> cycles:int -> (string * Support.Json.t) list -> unit
(** One [timeline_fleet] row — the fleet driver's cross-tenant snapshot
    (queue/cache totals and the p50/p90/p99/max latency percentiles). *)

(** {2 Reading a timeline back} *)

type row = {
  r_kind : string;     (** [timeline_sample] or [timeline_fleet] *)
  r_cycles : int;
  r_seq : int;
  r_source : string;   (** the ["tenant"] field; [""] on fleet rows *)
  r_fields : Support.Json.t;  (** the whole row *)
}

val rows_of_lines : string list -> (row list, string) result
(** Strict scan: the first malformed line is the error. Rows missing
    ["ev"]/["cycles"] are skipped. *)

val rows_of_file : string -> (row list, string) result

val field : row -> string -> int option
(** Top-level int field of the row ([None] when absent or non-int). *)
