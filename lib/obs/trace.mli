(** Structured JIT telemetry: a zero-cost-when-disabled event sink.

    Emission sites in the engine, inliner, and optimizer driver call
    {!emit} with a field-building closure; with no sink installed the call
    is one [None] check, allocates nothing and the closure never runs
    (test_obs, "disabled hooks allocate nothing"). Events carry the
    simulated cycle clock (never wall time) so identical runs produce
    byte-identical JSONL traces.

    Event schema: see docs/OBSERVABILITY.md. Every event is one
    [Support.Json] object per line with at least ["ev"] (the kind) and
    ["cycles"] (the simulated clock at emission). *)

type sink = {
  mutable write : string -> unit;
      (** receives one serialized event, without the trailing newline *)
  mutable clock : unit -> int;  (** the simulated cycle clock *)
  mutable events : int;  (** events emitted into this sink so far *)
}

val enabled : unit -> bool
(** Is a sink installed? Emission sites may pre-check this to skip
    expensive derived metrics entirely. *)

val set_clock : (unit -> int) -> unit
(** Points the ambient sink's clock at a simulated cycle counter; no-op
    when tracing is disabled. *)

val emit : string -> (unit -> (string * Support.Json.t) list) -> unit
(** [emit kind fields] writes one event. [fields] is forced only when a
    sink is installed. *)

val scoped : sink -> (unit -> 'a) -> 'a
(** Installs the sink for the duration of the callback, then restores the
    previously ambient sink (exception-safe). *)

val memory_sink : unit -> sink * (unit -> string list)
(** An in-memory sink and a reader returning the lines collected so far
    in emission order. *)

val with_file : string -> (unit -> 'a) -> 'a
(** [with_file path f] runs [f] with a fresh file sink writing JSONL to
    [path], closing it on exit. *)
