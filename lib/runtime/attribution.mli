(** Per-method cycle attribution and a calling-context tree.

    When installed on the VM ({!Interp.enable_attribution}), every method
    invocation is bracketed by {!enter}/{!leave} stamped with the
    simulated cycle clock, accruing per method: self cycles and
    invocation counts split by tier, total cycles (counted once per
    method while it is anywhere on the stack, so recursion does not
    double-count), and deoptimization counts. A calling-context tree
    interns one node per (parent, method) pair and accrues per-node self
    cycles — the shape flamegraph folded-stack lines want.

    Driven entirely by the simulated clock and a deterministic stack
    discipline: reports are byte-identical across same-seed runs.
    Methods are plain ids; the caller supplies names at render time. *)

type tier = Interp | Jit
(** [Jit]: installed compiled code. [Interp]: the interpreted tier, under
    either backend. *)

type t

val create : unit -> t

val enter : t -> meth:int -> tier:tier -> now:int -> unit
val leave : t -> now:int -> unit
(** Bracket one activation. [leave] pops the innermost frame; cycles of
    the frame minus cycles of its callees accrue as self time to both
    the method and its context-tree node. *)

val record_deopt : t -> int -> unit
(** The engine invalidated this method's compiled code. *)

val record_evict : t -> int -> unit
(** The bounded code cache evicted this method's compiled code (capacity
    pressure, not a correctness event — split from deopts so reports can
    tell churn from speculation failure). *)

type row = {
  r_meth : int;
  r_self : int;                  (** self cycles across tiers *)
  r_total : int;                 (** cycles with the method on the stack *)
  r_invocations : int;
  r_self_by_tier : int * int;          (** interp, jit *)
  r_invocations_by_tier : int * int;   (** interp, jit *)
  r_deopts : int;
  r_evicts : int;
}

val rows : t -> row list
(** Per-method totals, hottest (self cycles) first, ties by method id. *)

val folded : t -> name:(int -> string) -> string list
(** Flamegraph-ready folded stacks: one ["root;...;leaf cycles"] line per
    context-tree node with nonzero self time, sorted lexicographically. *)
