(** Bounded code cache: residency accounting and cost-benefit/LRU
    eviction for installed bodies.

    The VM's installed-code slots ({!Runtime.Interp.set_installed}) hold
    the bodies; this module decides *which* methods stay resident when
    installed code size is capped. Each resident entry carries its size (IR nodes — the same
    units as the Table I code-size metric), its last-use time and its
    use count; when an install pushes total residency past [capacity],
    entries are evicted lowest-retention-first until it fits.

    Retention is [last_used + 64·uses − size] in saturating arithmetic:
    recently and frequently entered code is worth keeping, big bodies
    cost more to keep — the cost-benefit shape of the paper's Figure 10
    budget discussion, with LRU as the dominant term so the policy stays
    predictable. The just-installed entry competes like any other; under
    a tiny capacity it can be evicted immediately after installing,
    which keeps the trace honest about churn instead of silently
    refusing the install.

    Like {!Scheduler}, all decisions are pure functions of this cache's
    own history — no ambient state — so per-tenant caches cannot couple
    tenants to each other.

    Entries are keyed by method id and indexed by it: {!touch} and {!mem}
    are one array read and allocate nothing ({!touch} runs at every entry
    of a resident method), and {!remove} finds its entry the same way.
    {!install} scans the resident entries for victims. *)

open Ir.Types

type t

val create : capacity:int -> t
(** [capacity] is the total resident size budget in IR nodes, clamped to
    [>= 0]. Capacity 0 admits nothing: every install evicts itself. *)

val used : t -> int
(** Total resident size. *)

val resident : t -> int
(** Resident entry count. *)

val mem : t -> meth_id -> bool

val retain_score : last_used:int -> uses:int -> size:int -> int
(** [last_used + 64·uses − size], saturating and clamped to [>= 0].
    Exposed for tests. *)

val install : t -> meth:meth_id -> size:int -> now:int -> meth_id list
(** Admits [meth] (replacing any previous entry for it), then evicts
    lowest-retention entries until residency fits [capacity]. Returns
    the victims in eviction order — possibly including [meth] itself.
    Retention ties evict the oldest install first. *)

val touch : t -> meth_id -> now:int -> unit
(** Records an entry of [meth]'s compiled code: refreshes last-use and
    bumps the use count. A no-op when not resident. *)

val remove : t -> meth_id -> unit
(** Drops [meth]'s residency without an eviction decision (the method
    was invalidated). A no-op when absent. *)
