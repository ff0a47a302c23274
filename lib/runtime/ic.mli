(** Per-call-site polymorphic inline caches (PICs) for virtual dispatch in
    the prepared execution engine: the monomorphic → polymorphic →
    megamorphic progression of classic Smalltalk/Self/HotSpot call sites.
    A repeat receiver class resolves its target in a short linear scan
    (one comparison when monomorphic) instead of a class-table walk.

    ICs cache {e resolution only} — the target still goes through the
    interpreter's [invoke], so tier dispatch and hotness detection
    behave identically to the uncached path. A cache's entries and
    megamorphic state belong to the code object it was lowered in; its
    dispatch counters are the call site's {!stat}, which every cache
    lowered for the site shares (see {!Interp.ic_stats}). Entries of a
    profiling cache carry the profile's receiver-histogram cell for their
    (site, class), making a cached profiled dispatch's receiver record a
    single increment. *)

open Ir.Types

type stat = {
  st_site : site;
  st_selector : string;
  mutable st_hits : int;
  mutable st_misses : int;
  mutable st_mega : int;  (** slow-path dispatches while megamorphic *)
}
(** The dispatch counters of one call site. *)

type entry = {
  e_cls : class_id;
  e_target : meth_id;
  e_count : int ref;
      (** the profile's receiver cell for (site, class); one shared dummy
          cell in non-profiling tiers *)
}

type t = {
  stat : stat;  (** the site's counters, shared with its other caches *)
  mutable entries : entry array;  (** observed classes, oldest first *)
  mutable megamorphic : bool;     (** depth exhausted; entries still hit *)
}

val create : stat -> t
(** An empty cache counting into the site's [stat]. *)

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
