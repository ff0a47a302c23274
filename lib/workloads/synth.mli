(** Synthetic call-graph generator for controlled inliner studies:
    deterministic Sel programs with tunable call-chain depth, fanout,
    polymorphism degree, leaf work and hotness skew. *)

type config = {
  seed : int;
  depth : int;          (** layers of functions above the Op dispatch (>= 1) *)
  fanout : int;         (** callees per layer function (>= 1) *)
  poly_degree : int;    (** concrete Op implementations (>= 1) *)
  leaf_work : int;      (** loop trips inside each Op implementation *)
  hot_fraction : float; (** fraction of layer callsites inside a loop *)
}

val default : config

val source_of : config -> string
(** The generated Sel program (same config, same text). *)

val generate : config -> Defs.t
(** A full workload descriptor; the pinned expected output is computed by
    interpreting the program once.
    @raise Invalid_argument if the generated program fails to compile (a
    generator bug). *)
