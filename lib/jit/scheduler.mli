(** Bounded, prioritized background-compile queue with admission control.

    Models the one background compiler thread a serving engine gets: hot
    methods enqueue a compile request instead of compiling inline; the
    engine pumps the queue at method entries, servicing the highest-score
    request whenever the simulated compiler is idle, and the serviced
    compilation occupies the compiler for its simulated latency.

    Priority is [hotness × (1 + age/age_unit)] in saturating arithmetic
    ({!Support.Sat}): hot methods win now, and any admitted request's
    score grows without bound as it waits, so starvation is impossible —
    but a wrapped product would invert that guarantee, which is why raw
    [*]/[+] are banned here (the PR 7 overflow class).

    The queue is bounded: past [capacity] an incoming request is either
    rejected (it scores no higher than the cheapest waiting request) or
    displaces the lowest-score waiting request — in both cases somebody
    is shed, visibly, rather than the queue growing without bound.

    All decisions are pure functions of the arguments and prior calls on
    this queue — no ambient state, no wall clock — so a tenant driving
    its own queue behaves byte-identically solo or multiplexed. *)

type 'k t

val create : capacity:int -> age_unit:int -> 'k t
(** [capacity] is the maximum number of waiting requests (clamped to
    [>= 0]; capacity 0 sheds every request). [age_unit] is the wait (in
    the caller's clock units) that adds one [hotness] worth of priority
    (clamped to [>= 1]). *)

val length : 'k t -> int

val score : hotness:int -> age:int -> age_unit:int -> int
(** [hotness × (1 + age/age_unit)], saturating at [max_int]; negative
    operands clamp to 0. Exposed for tests. *)

type 'k admission =
  | Admitted            (** queued; there was room *)
  | Waiting             (** already queued; the request is left as it was
                            admitted *)
  | Displaced of 'k     (** queued; the lowest-score request was shed *)
  | Rejected            (** shed on arrival: queue full and the incoming
                            request scores no higher than the cheapest
                            waiting one *)

val enqueue : 'k t -> meth:'k -> hotness:int -> now:int -> 'k admission
(** Offers a compile request. This is the one place that decides whether
    [meth] is already waiting: a repeated offer returns [Waiting] and
    changes nothing, so a waiting request keeps the hotness it was
    admitted with and gains priority by age only. Ties on displacement
    keep the request that has waited longest (the incoming request loses
    a tie). *)

val occupy : 'k t -> until:int -> unit
(** Marks the compiler busy until [until] (monotone: never moves the
    horizon backward; initially 0). The engine calls this after
    servicing a request — including OSR compiles, which bypass the queue
    but still occupy the one compiler. *)

val pop : 'k t -> now:int -> ('k * int) option
(** The highest-score waiting request if the compiler is idle ([now] at
    or past the {!occupy} horizon) and the queue is nonempty; returns the
    method and its queue wait ([now - enqueued_at], clamped to [>= 0]).
    Ties pop the longest-waiting request. A request whose method was
    installed or blacklisted while it waited is still returned: the
    engine drops it without compiling. *)
