(** Declarative SLO monitors over {!Timeline} samples.

    A list of named detector specs runs offline over the
    [timeline_sample] rows of a recorded timeline ([selvm slo --check]).
    Detector state is per (spec, source): tenants never share windows,
    mirroring the serving layer's isolation invariant, and everything
    derives from the simulated cycle stamps, so same-seed runs fire
    byte-identical violations.

    Violations are {b edge-triggered}: one firing when a detector enters
    violation, re-armed only after the condition clears — a storm
    persisting across ten samples is one incident, not ten. *)

type detector =
  | Window_rate of { field : string; window : int; limit : int }
      (** fires when the monotonic counter [field] grew by more than
          [limit] within the trailing [window] simulated cycles *)
  | Level of { field : string; limit : int }
      (** fires when the gauge [field] exceeds [limit] at a sample *)

type spec = { sp_name : string; sp_detector : detector }

val deopt_storm : ?window:int -> ?limit:int -> unit -> spec
(** Deopt rate over a sliding window: [Window_rate] on the sample's
    ["invalidations"] counter (default: >24 in 100k cycles). *)

val queue_saturation : ?window:int -> ?limit:int -> unit -> spec
(** Sustained shed/reject rate: [Window_rate] on ["sheds"]
    (default: >200 in 100k cycles). *)

val cache_thrash : ?limit:int -> unit -> spec
(** Evict→recompile cycles of one method: [Level] on ["evict_max"], the
    highest per-method eviction count (every eviction past the first
    implies an intervening recompile of the same method;
    default: >12). *)

val default_specs : spec list
(** The three monitors above at their default thresholds. *)

val find_spec : string -> spec option
(** Default spec by name ([deopt-storm] / [queue-saturation] /
    [cache-thrash]). *)

type violation = {
  v_slo : string;
  v_source : string;  (** tenant id, [""] outside serving *)
  v_cycles : int;
  v_field : string;
  v_value : int;      (** observed window growth, or level *)
  v_limit : int;
  v_window : int;     (** 0 for level detectors *)
}

val check_lines : ?specs:spec list -> string list -> (violation list, string) result

val check_file : ?specs:spec list -> string -> (violation list, string) result
(** Offline check of a timeline file (defaults to {!default_specs}) —
    what [selvm slo --check] exits nonzero on. *)

val render : violation list -> string
(** One line per violation, deterministic. *)
