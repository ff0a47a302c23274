(** Shared machinery for the baseline inliners: a working root copy,
    candidate scanning, inlining-depth tracking across splices, and
    monomorphic speculation. *)

open Ir.Types

type state = {
  prog : program;
  profiles : Runtime.Profile.t;
  body : fn;
  depth : (vid, int) Hashtbl.t;
  mutable next_syn_site : int;
  root_meth : meth_id;
}

val create : program -> Runtime.Profile.t -> meth_id -> state
val depth_of : state -> vid -> int

val inline_at : state -> call_vid:vid -> callee:meth_id -> unit
(** Splices the callee's prepared body and records the new calls' depth. *)

val speculate_mono : state -> min_prob:float -> instr -> vid option
(** Turns a profile-monomorphic virtual call into a single-test typeswitch;
    returns the direct call's vid. Synthetic sites are never re-speculated. *)

val callee_size : state -> meth_id -> int
val freqs : state -> (bid, float) Hashtbl.t
val call_freq : state -> (bid, float) Hashtbl.t -> vid -> float
