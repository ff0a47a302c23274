(** Runtime profiles — the moral equivalent of HotSpot's profiling data:
    invocation counters, per-block execution counts (subsuming branch and
    backedge counters) and per-callsite receiver histograms. Keys are
    stable across IR copying and inlining: methods by id, blocks by
    (method, block id), callsites by their {!Ir.Types.site}.

    Counters are slot-indexed — dense arrays by method/block/site ordinal
    instead of tuple-keyed hashtables — so recording allocates nothing.
    Recording is an increment through a counter cell. The cells have
    stable identity: the reference walker finds one per event, and the
    threaded tier binds them into the code it lowers and into its inline
    caches. *)

open Ir.Types

type t

type rsite
(** The receiver histogram of one call site. *)

type brec = { mutable taken : int; mutable not_taken : int }
(** The taken/not-taken counters of one branch site. *)

val create : unit -> t

(** {1 Recording (used by the interpreter)}

    Find-or-create accessors returning a counter cell; recording is an
    increment through it. A profile is never reset, so a cell stays the
    profile's for its whole life. *)

val invocation_cell : t -> meth_id -> int ref
(** The threaded tier binds it when it fills a method's code slot with
    interpreted code and counts each activation with one increment; the
    reference walker looks it up at every call. *)

val block_cell : t -> meth_id -> bid -> int ref
val branch_cell : t -> site -> brec

val brec_record : brec -> taken:bool -> unit
(** Counts one execution of the branch, taken or not. *)

val receiver_site : t -> site -> rsite
val rsite_cell : rsite -> class_id -> int ref

(** {1 Queries (used by the inliner and cost model)} *)

val invocation_count : t -> meth_id -> int
val block_count : t -> meth_id -> bid -> int

val max_block_count : t -> meth_id -> int
(** The hottest block count recorded for a method — the loop-hotness
    signal folded into the engine's compile trigger. 0 when nothing was
    recorded. *)

val receiver_count : t -> site -> int
(** Number of distinct receiver classes observed at a site, in O(1) —
    equal to [List.length (receiver_profile t site)] whenever the site has
    been executed. The interpreter uses this on every virtual call. *)

val receiver_profile : t -> site -> (class_id * float) list
(** Receiver histogram as (class, probability), most frequent first;
    probabilities sum to 1. Empty when the site was never executed. *)

val branch_prob : t -> site -> float option
(** Probability the branch was taken; [None] when never executed. *)

(** {1 Text serialization}

    Deterministic line-based format (see the implementation header). Ids
    are only meaningful against the same prepared program. *)

exception Bad_profile of string

val to_text : t -> string
(** Prints counts above zero only: a cell created but never counted,
    such as one the threaded tier bound when it lowered a block that
    never ran, prints nothing, so both backends print the same text. *)

val of_text : string -> t
(** Duplicate records accumulate, so the concatenation of several dumps
    loads as their merge (summed counts).
    @raise Bad_profile on malformed input or negative counts. *)
