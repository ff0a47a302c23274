(** A process-wide metrics registry: counters, gauges, and log2-bucketed
    histograms.

    Recording is zero-cost when disabled, like {!Trace}: sites hold a
    handle obtained once (typically at module initialization) and every
    record call is one boolean check, which allocates nothing (test_obs,
    "disabled hooks allocate nothing"). Registration is idempotent — the
    same name always returns the same handle — so libraries declare their
    instruments at top level and the exported name set is stable whether
    or not a run ever records.

    Export ({!to_json}) is deterministic: sections sort by name, values
    derive only from the simulated clocks. The JSON schema is documented
    in docs/OBSERVABILITY.md and written by `selvm run --metrics FILE`
    and `selvm serve --metrics FILE`. *)

type counter
type gauge

type histogram
(** Log2-bucketed: bucket [i] holds values [v] with
    [2^(i-1) <= v <= 2^i - 1] (bucket 0 holds 0), plus exact count, sum,
    min and max. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val scoped : (unit -> 'a) -> 'a
(** Enables recording for the duration of the callback, restoring the
    previous state afterwards (exception-safe). *)

val counter : string -> counter
(** Registers (or retrieves) the counter with this name.
    @raise Invalid_argument if the name is registered as another kind. *)

val gauge : string -> gauge
val histogram : string -> histogram

val incr : counter -> unit
(** No-op while disabled; likewise {!add}, {!set} and {!observe}. *)

val add : counter -> int -> unit
val set : gauge -> int -> unit

val observe : histogram -> int -> unit
(** Records [max 0 v]. *)

val percentile : histogram -> float -> int
(** Quantile estimate: the upper bound of the bucket where the cumulative
    count crosses [q * count], clamped by the exact observed maximum
    ([q = 1.0] is exactly the max). 0 on an empty histogram. *)

val reset : unit -> unit
(** Zeroes every registered metric, keeping the registrations (tests). *)

val to_json : unit -> Support.Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {...}}] with each
    section sorted by name. Histograms serialize count/sum/min/max,
    p50/p90, a ["bucketing": "log2"] marker, and their populated buckets
    as [{"ge", "le", "n"}] triples — both bounds are explicit (inclusive)
    so external tools need not hardcode the log2 bucketing. *)
