(** Statistics helpers for the benchmark harness. *)

val mean : float list -> float
(** @raise Invalid_argument on an empty list. *)

val stddev : float list -> float
(** Sample standard deviation; 0 for fewer than two samples. *)

val geomean : float list -> float
(** Geometric mean.
    @raise Invalid_argument on empty input or non-positive values. *)

val min_max : float list -> float * float
(** @raise Invalid_argument on an empty list. *)

val steady_state_window : float list -> float list
(** The last 40% of the samples capped at 20, mirroring the paper's
    peak-performance methodology ("average of the last 40%, but at most 20,
    repetitions").
    @raise Invalid_argument on an empty list. *)

val steady_state_mean : float list -> float

val percentile : int list -> float -> int
(** Exact rank percentile of an {b ascending} int list: the smallest
    element whose rank reaches [ceil (q * n)]; 0 when the list is empty.
    Shared by {!Jit.Serve} and the timeline's fleet snapshots. *)

val percentiles : int list -> int * int * int * int
(** [(p50, p90, p99, max)] of an ascending int list, all 0 when empty. *)

val median : float list -> float
(** The middle sample, or the mean of the two middle ones.
    @raise Invalid_argument on an empty list. *)

(** {1 Comparing two builds across code layouts}

    Code layout alone moves a program's wall time by several percent
    (Mytkowicz et al., "Producing Wrong Data Without Doing Anything
    Obviously Wrong!", ASPLOS 2009), so a parent and a change are each
    built in several layout variants and timed round-robin. *)

type layout_verdict =
  | Gain
      (** Over at least 10 pairs, the change wins at least 9 of every
          10, and its median over layouts is lower than the parent's by
          more than the larger between-layout spread. *)
  | Regression  (** The same, with the change slower. *)
  | Unattributed
      (** At least 9 of every 10 pairs agree on a direction, but the
          medians over layouts differ by no more than layout alone moves
          them. *)
  | Rejected  (** Fewer than 9 of every 10 pairs agree on a direction. *)
  | Too_few_pairs
      (** Fewer than 10 pairs: too few to credit a move to the change,
          or to blame one on it, whatever the medians say. *)

type layout_summary = {
  parent_layouts : float list;  (** each layout's median over rounds *)
  change_layouts : float list;
  parent_median : float;  (** median of [parent_layouts] *)
  change_median : float;
  parent_spread : float;  (** max − min of [parent_layouts] *)
  change_spread : float;
  pairs : int;  (** one per round *)
  wins : int;
      (** rounds whose median over the change's layouts is lower than the
          median over the parent's; a tie counts for neither side *)
  losses : int;
  verdict : layout_verdict;
}

val compare_layouts :
  parent:float list list -> change:float list list -> layout_summary
(** [compare_layouts ~parent ~change] takes, for each side, one list per
    layout variant holding that variant's sample of each round (lower is
    better).
    @raise Invalid_argument when a side has no layout, no round, or
    layouts with different numbers of rounds. *)

val verdict_to_string : layout_verdict -> string
