(** First-iteration loop peeling (paper, Section IV "Other
    optimizations"): peel when a header phi's entry-edge type is strictly
    more precise than its merged type, so canonicalization can
    devirtualize the first iteration. Restricted to loops with a single
    exit block whose predecessors are all inside the loop — the shape of
    every structured Sel [while]. *)

open Ir.Types

type loop_info = {
  header : bid;
  body : (bid, unit) Hashtbl.t;
  exit_block : bid;
  exit_preds : bid list;
}

val eligible_loops : fn -> loop_info list
val worth_peeling : program -> Tyinfer.env -> fn -> loop_info -> bool
(** Some header phi's entry-edge type is strictly more precise than its
    merged type, by the type facts [env] of the function as it stands. *)

val peel : fn -> loop_info -> unit

val run : program -> fn -> int
(** Peels every profitable eligible loop once; returns how many. *)
