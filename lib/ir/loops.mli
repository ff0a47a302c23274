(** Natural-loop discovery from dominator-identified back edges. *)

open Types

type loop = {
  header : bid;
  body : (bid, unit) Hashtbl.t;  (** includes the header *)
  back_edges : bid list;         (** sources of back edges into [header] *)
}

type t = {
  loops : loop list;
  depth : int array;  (** nesting depth by block id; 0 outside any loop *)
}

val compute : fn -> t
(** The loop forest of [fn]'s current graph; cached (see {!Fn.cached}).
    Its cost is the sum of the loop bodies' sizes. *)

val depth : t -> bid -> int
(** 0 for a block outside every loop, or added since [compute]. *)

val is_header : t -> bid -> bool
