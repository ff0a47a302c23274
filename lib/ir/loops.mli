(** Natural-loop discovery from dominator-identified back edges. *)

open Types

type loop = {
  header : bid;
  body : (bid, unit) Hashtbl.t;  (** includes the header *)
  back_edges : bid list;         (** sources of back edges into [header] *)
}

type t = {
  loops : loop list;
  depth : (bid, int) Hashtbl.t;  (** nesting depth; 0 outside any loop *)
}

val compute : fn -> t
val depth : t -> bid -> int
val is_header : t -> bid -> bool
