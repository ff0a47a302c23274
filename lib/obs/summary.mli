(** Trace digestion for [selvm events]: folds a JSONL event stream (the
    format {!Trace} emits, documented in docs/OBSERVABILITY.md) into the
    aggregates the paper's evaluation reads off the compiler — compile
    timeline, installed code size, invalidations, inliner decisions,
    optimizer counters. *)

type compile_event = {
  meth : string;
  size : int;  (** IR nodes for installs; spec-miss count for invalidations *)
  at_cycles : int;
}

type t = {
  mutable total : int;
  mutable kinds : (string * int) list;  (** per-kind counts, first-seen order *)
  mutable installs : compile_event list;  (** chronological *)
  mutable invalidations : compile_event list;
  mutable bailouts : (string * string * int) list;
      (** contained compile failures as (method, reason, at_cycles) *)
  mutable blacklisted : string list;
      (** methods whose bailout hit the failure cap *)
  mutable chaos_faults : (string * int) list;
      (** injected chaos faults by kind, first-seen order *)
  mutable inline_yes : int;
  mutable inline_no : int;
  mutable expand_yes : int;
  mutable expand_no : int;
  mutable canon_events : int;
  mutable nodes_deleted : int;
  mutable ic_sites : int;  (** ic_site events seen (one per dispatched site) *)
  mutable ic_hits : int;
  mutable ic_misses : int;
  mutable ic_megamorphic : int;
  mutable evictions : compile_event list;
      (** code-cache retirements; [size] is the IR nodes released *)
  mutable sheds : (string * int) list;
      (** compile requests dropped by admission control, by reason *)
  mutable serve_tenants : int;
      (** fleet size of the largest [serve_start] seen (0 outside serving) *)
  mutable queue_waits : int list;
      (** per-serviced-request queue waits in cycles, arrival order *)
  mutable last_cycles : int;
}

val parse_lines : string list -> (int * Support.Json.t) list * (int * string) list
(** Tolerant scan: the well-formed events with their 1-based line numbers,
    plus the malformed lines as (line, error). Blank lines are skipped.
    [selvm events] warns per malformed line. *)

val of_events : Support.Json.t list -> t

val split_runs : Support.Json.t list -> (string * t) list
(** One summary per harness run, split on the [run_start] markers the
    benchmark harness emits and labelled by the marker's [label]. Events
    before the first marker fold into a ["(preamble)"] segment. Returns
    [[]] when the trace has no markers (single anonymous stream). *)

val installed_code_size : t -> int
(** Sum of installed sizes over the trace — the Table I metric as seen by
    the event stream. *)

val render : t -> string
(** Human-readable multi-line report. *)
