(** Relative block-frequency estimation: the basis for the inliner's
    callsite frequency f(n). Profile-driven when execution counts exist,
    otherwise a static estimate (branch probability 0.5, ×8 per
    loop-nesting level). *)

open Types

val static : fn -> (bid, float) Hashtbl.t
(** Entry-relative frequency per reachable block, structural estimate. *)

val profiled : fn -> counts:(bid -> float) -> (bid, float) Hashtbl.t
(** [counts b / counts entry] per block; falls back to {!static} when the
    entry was never observed. *)

val of_instr : fn -> (bid, float) Hashtbl.t -> vid -> float
(** Frequency of the block containing the instruction (0 if unplaced). *)
