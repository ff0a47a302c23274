(** Per-call-site polymorphic inline caches (PICs) for virtual dispatch in
    the prepared execution engine: the monomorphic → polymorphic →
    megamorphic progression of classic Smalltalk/Self/HotSpot call sites.
    A repeat receiver class resolves its target in a short linear scan
    (one comparison when monomorphic) instead of a class-table walk.

    ICs cache {e resolution only} — the target still goes through the
    interpreter's [invoke], so tier dispatch and hotness detection
    behave identically to the uncached path. Entries
    carry the profile's receiver-histogram cell for their (site, class),
    making a cached profiled dispatch's receiver record a single
    increment. Coherence: {!Interp} drops a method's ICs (retiring their
    counters) whenever its code is installed, replaced or invalidated. *)

open Ir.Types

type entry = {
  e_cls : class_id;
  e_target : meth_id;
  e_count : int ref;
      (** the profile's receiver cell for (site, class); a dummy cell in
          non-profiling tiers *)
}

type t = {
  ic_site : site;
  selector : string;
  mutable entries : entry array;  (** observed classes, oldest first *)
  mutable megamorphic : bool;     (** depth exhausted; entries still hit *)
  mutable hits : int;
  mutable misses : int;
  mutable mega : int;  (** slow-path dispatches while megamorphic *)
}

val create : site:site -> selector:string -> t

val miss : entry
(** The shared entry {!probe} returns when no cached entry matches. *)

val probe : t -> class_id -> entry
(** Linear scan of the cached entries: the one matching the class, or
    {!miss} (compare with [==]). Allocates nothing. *)

val note_miss : t -> unit
(** Records a failed probe (a miss, or a megamorphic dispatch once the
    depth is exhausted). Call before {!add}. *)

val add : t -> entry -> unit
(** Installs a freshly resolved entry; past 4 entries the site turns
    megamorphic and keeps its existing entries. *)

val dispatches : t -> int
(** [hits + misses + mega]. *)

val reset_stats : t -> unit
(** Zeroes the counters (after folding them into retired stats). *)
