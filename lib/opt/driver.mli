(** Pass orchestration. *)

open Ir.Types

type stats = { mutable canon : int; mutable gvn : int; mutable dce : int }
(** Canonicalization rewrites, value-numbering hits and deleted
    instructions. *)

val simple_opt_count : stats -> int
(** The paper's "simple optimizations triggered" metric N_s:
    canonicalization events plus value-numbering hits. *)

val simplify : program -> fn -> stats
(** Canonicalize + GVN + DCE + CFG cleanup to a fixpoint, from worklists:
    every instruction is visited once in forward block order, then again
    only when an operand was replaced, rewritten or re-typed, and each of
    GVN, DCE and cleanup re-runs only after an edit that can enable it.
    The result is a fixpoint: simplifying it again changes nothing. Used
    to prepare freshly lowered bodies, inside deep inlining trials, and on
    the root between rounds. *)

type pass = string * (program -> fn -> int)
(** A named root pass returning how many rewrites it made. *)

val root_passes : pass list
(** The per-round root pipeline, in order: read-write elimination (per the
    paper), scalar replacement of non-escaping allocations (per the Graal
    EE context the paper's inliner ships in) and loop-invariant hoisting.
    The one place that lists these passes. *)

val round_root_opts : ?passes:pass list -> program -> fn -> stats
(** The per-round root treatment: [simplify], then each of [passes]
    (default {!root_passes}), then [simplify] again when any pass changed
    something. Emits one [opt_round] trace event whose per-pass keys are
    the pass names. *)

val prepare_program : program -> unit
(** Baseline (parse-time-style) canonicalization of every method body.
    Must run before profiling so profile block ids match the IR every
    later consumer sees. It marks each body it prepares ([prepared]) and
    skips marked bodies, which is sound because preparation is
    idempotent: a body added to the program, or edited through [Ir.Fn],
    since the last call is prepared again. *)
