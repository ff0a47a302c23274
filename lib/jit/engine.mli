(** The tiered execution engine: interpret, detect hotness, compile,
    install — the paper's online compilation-request environment. Compiled
    bodies are produced by a pluggable {!compiler} (the incremental
    inliner, a baseline, or nothing) and installed in a code cache the
    interpreter consults at every method entry. Compilation is synchronous
    but its simulated cost is metered on a separate clock. *)

open Ir.Types

type compiler = program -> Runtime.Profile.t -> meth_id -> fn
(** Maps a hot method to the optimized body to install. Must not mutate
    the program's method bodies. *)

type config = {
  name : string;
  compiler : compiler option;   (** [None]: pure interpreter *)
  hotness_threshold : int;      (** invocations before compilation *)
  compile_cost_per_node : int;  (** simulated compile cycles per output IR node *)
  verify : bool;                (** verify every produced body (tests) *)
}

val interpreter_config : config

type compilation = { cm : meth_id; size : int; at_cycles : int }

type bailout = {
  bm : meth_id;
  reason : string;
  at_cycles : int;
  failures : int;     (** the method's failure count, including this one *)
  charged : int;      (** compile cycles the dead attempt burned *)
  blacklisted : bool; (** this failure hit the cap: permanently interpreted *)
}
(** One contained compilation failure: the compiler or verifier threw
    instead of producing an installable body; the method kept
    interpreting. *)

type bailout_stats = {
  failed_attempts : int;  (** bailouts recorded over the run *)
  failed_methods : int;   (** distinct methods with at least one failure *)
  blacklisted_methods : meth_id list;  (** ascending *)
}

val containable : exn -> bool
(** Which exceptions a compiler invocation may fail with and be contained
    (all but host-process conditions: [Out_of_memory], [Sys.Break]). *)

val backoff_cooldown : hotness:int -> failures:int -> int
(** Exponential-backoff retry distance after [failures] failed compile
    attempts: [hotness * 2^(failures-1)], saturating at a large positive
    value instead of overflowing to a negative one (which would un-gate
    recompilation of a method that should be backing off). *)

type osr_origin = { od_src : meth_id; od_bid : bid; od_depth : int }
(** Provenance of a synthetic OSR continuation: source method, the loop
    header it was extracted at, and its extraction generation (capped so
    invalidate/re-enter cycles cannot mint methods forever). *)

type t = {
  vm : Runtime.Interp.vm;
  config : config;
  code_cache : (meth_id, fn) Hashtbl.t;
  mutable compiling : bool;
  mutable compile_cycles : int;
  mutable compilations : compilation list;  (** most recent first *)
  async_compile : bool;
  pending : (meth_id, fn * int) Hashtbl.t;
  (** compiled but not yet installed (body, ready-at cycles) *)
  spec_miss_threshold : int;
  max_recompiles : int;
  miss_counts : (meth_id, int ref) Hashtbl.t;
  recompile_counts : (meth_id, int) Hashtbl.t;
  cooldown : (meth_id, int) Hashtbl.t;
  mutable invalidations : (meth_id * int) list;  (** method, at_cycles *)
  mutable bailouts : bailout list;
  (** contained compile failures, most recent first; see {!containable} *)
  max_compile_failures : int;
  failure_counts : (meth_id, int) Hashtbl.t;
  blacklist : (meth_id, unit) Hashtbl.t;
  (** methods permanently retired to the interpreter after
      [max_compile_failures] failed compilation attempts *)
  compile_fuel : int option;
  (** per-compilation watchdog budget in {!Support.Fuel} checkpoints *)
  mutable install_pending : meth_id -> fn -> unit;
  (** installs a pending body through the normal install path; wired by
      {!create} when a compiler is configured, used by {!flush_pending} *)
  osr : bool;
  (** loop-entry OSR armed (a compiler is configured and the kill switch
      was not thrown) *)
  osr_threshold : int;
  (** block (≈ backedge) count that makes a loop hot — triggers both the
      mid-invocation OSR transfer and the [on_entry] promotion of
      single-invocation hot-loop methods. Finite even with [osr] off. *)
  osr_sites : (meth_id * bid, Runtime.Interp.osr_transfer) Hashtbl.t;
  (** (source method, header) -> registered enter transfer *)
  osr_meta : (meth_id, osr_origin) Hashtbl.t;
  (** synthetic continuation -> provenance *)
  osr_no : (meth_id * bid, unit) Hashtbl.t;  (** memoized refusals *)
  osr_cooldown : (meth_id * bid, int) Hashtbl.t;
  (** block count gating the next enter/compile attempt at a site *)
  loop_cache : (meth_id, (fn * Ir.Loops.t) list) Hashtbl.t;
  (** loop forests per method, matched by physical body *)
  exit_conts : (meth_id * bid, (fn * Runtime.Interp.osr_transfer option) list) Hashtbl.t;
  (** exit continuations per (method, header), keyed by the physical
      stale body; [None] memoizes "not extractable, keep running" *)
  mutable osr_uid : int;
  mutable osr_enters : int;  (** OSR transfers taken (enter direction) *)
  mutable osr_exits : int;   (** OSR exits (invalidation transfers + trap unwinds) *)
  serve_queue : meth_id Scheduler.t option;
  (** bounded background-compile queue; [None] (default): hot methods
      compile inline at the trigger, exactly the pre-serve engine *)
  serve_cache : meth_id Codecache.t option;
  (** bounded code-cache residency; [None] (default): unbounded *)
  compile_deadline : int option;
  (** per-compile deadline in {!Support.Fuel} checkpoints; [min]s with
      [compile_fuel] at every attempt *)
  mutable evictions : (meth_id * int) list;
  (** cache evictions (method, at_cycles), most recent first *)
  evict_counts : (meth_id, int) Hashtbl.t;
  (** evictions per method — drives the re-hot backoff gate *)
  mutable sheds : int;
  (** compile requests shed by admission control *)
  mutable queue_waits : int list;
  (** queue waits of serviced requests, most recent first *)
  first_hot : (meth_id, int) Hashtbl.t;
  (** first hot-trigger time per method, at [vm.cycles] *)
  mutable ttp : (meth_id * int) list;
  (** time-to-peak per method: cycles from first hot-trigger to first
      install (includes queue wait and async compile latency) *)
  mutable timeline : timeline option;
  (** time-series sampling ({!attach_timeline}); [None] (default) costs
      one match per method entry *)
}

and timeline = {
  tl_sink : Obs.Timeline.t;
  tl_source : string;  (** tenant id, or a run label *)
  tl_monitor : Obs.Slo.monitor option;
  mutable tl_due : int;  (** next sample at [vm.cycles >= tl_due] *)
}

val create :
  ?cost:Runtime.Cost.t -> ?spec_miss_threshold:int -> ?max_recompiles:int ->
  ?async_compile:bool -> ?max_compile_failures:int -> ?compile_fuel:int ->
  ?osr:bool -> ?osr_threshold:int -> ?queue_capacity:int ->
  ?queue_age_unit:int -> ?cache_capacity:int -> ?compile_deadline:int ->
  program -> config -> t
(** Also runs {!Opt.Driver.prepare_program} so profiles are collected
    against prepared IR.

    Failure handling: an exception escaping the compiler or verifier (any
    {!containable} one) is a bailout — the method keeps interpreting, the
    compile cycles already spent are charged, and retries back off
    exponentially (the cooldown gate doubles per failure). After
    [max_compile_failures] (default 3) failures the method is blacklisted:
    permanently interpreted, never re-entering compilation. [compile_fuel]
    installs a {!Support.Fuel} watchdog budget around every compilation;
    exhaustion mid-compile returns the inliner's best completed round, or
    fails the attempt (feeding the same backoff path) when not even one
    round finished. When a {!Support.Chaos} plan is ambient, the engine
    additionally injects deterministic compiler crashes, verifier rejects,
    starved fuel budgets and invalidation storms at these same points.

    Speculation management (off unless [spec_miss_threshold] is given):
    when a compiled method's typeswitch fallback executes that many times —
    a receiver distribution the speculation never saw, e.g. after a phase
    shift — the method's code is invalidated, the interpreter re-profiles
    it for [hotness_threshold] further invocations, and it recompiles
    against the new profile, at most [max_recompiles] times per method.

    [async_compile] (default false) models a background compiler thread
    (the paper's Section II.2 "compilation impact"): produced code installs
    only once its simulated compile latency (size × [compile_cost_per_node])
    has elapsed on the execution clock; the method keeps interpreting — and
    profiling — in the meantime.

    On-stack replacement ([osr], default true; only meaningful with a
    compiler): when an interpreted frame's block counter crosses
    [osr_threshold] (default [hotness_threshold * 64]) at a loop header,
    the engine extracts the loop continuation ({!Ir.Osr}), compiles it
    through the normal pipeline and transfers the frame into it
    mid-invocation; invalidations bump a deopt epoch that makes running
    compiled frames OSR-exit into interpreted continuations at their next
    loop header. Program outputs are bit-identical with OSR on, off, and
    under the reference interpreter. [osr:false] is the kill switch: no
    checkpoints fire and no epoch moves, but the backedge-driven
    [on_entry] trigger (a bugfix, not a speculation) stays active.

    Serving ([queue_capacity] / [cache_capacity] / [compile_deadline],
    all off by default and only meaningful with a compiler): with
    [queue_capacity] set, hot methods enqueue a prioritized compile
    request ({!Scheduler}: hotness × queue-age score, saturating) instead
    of compiling inline; the one simulated background compiler services
    the highest-score request at method entries, and admission control
    sheds the lowest-score request when the queue is full. With
    [cache_capacity] set (IR nodes), installed code is bounded
    ({!Codecache}): installs evict lowest-retention residents, which fall
    back to the prepared tier through the same deopt-epoch path as
    invalidations — without consuming [max_recompiles]; instead an
    evicted method's recompilation backs off per eviction. A
    [compile_deadline] caps every attempt with a {!Support.Fuel} budget;
    misses are ordinary bailouts. All serving decisions are functions of
    this engine's own state, so a tenant behaves byte-identically solo or
    multiplexed by {!Serve}.

    Synthetic OSR/deopt continuations inherit their parent method's
    failure count and blacklist entry at extraction time — a method that
    exhausted its compile-failure budget cannot keep burning compile
    cycles through fresh continuations. *)

val run_main : t -> Runtime.Values.value
val run_meth : t -> string -> Runtime.Values.value list -> Runtime.Values.value
val output : t -> string

val installed_code_size : t -> int
(** Total size of installed bodies — the Figure 10 / Table I metric. *)

val installed_methods : t -> int

val ic_stats : t -> Runtime.Interp.ic_stat list
(** Per-site inline-cache statistics, live caches merged with counters
    retired by installs/invalidations (see {!Runtime.Interp.ic_stats}). *)

val superinst_stats : t -> Runtime.Interp.sstat list
(** The threaded tier's mined superinstruction table, sorted by pattern
    (see {!Runtime.Interp.superinst_stats}). Empty under the reference
    backend or before any method crossed the fusion threshold. *)

val dispatch_label : t -> string
(** How the interpreted tier dispatches: ["threaded"] or ["walker"]
    (reference). *)

val pending_methods : t -> int
(** Compilations produced but not yet installed (async mode). *)

val pending_code_size : t -> int
(** Total size of produced-but-pending bodies — code the compiler paid
    for that {!installed_code_size} cannot see yet. *)

val flush_pending : ?force:bool -> t -> int
(** Installs every pending compilation whose simulated latency has
    elapsed (all of them with [force]), in ascending method order, and
    returns how many installed. The benchmark harness calls this at end
    of run so the code-size metric includes async compilations whose
    method was never re-entered after the latency elapsed. *)

val compiled_body : t -> string -> fn option

val blacklisted : t -> meth_id -> bool

val snapshot_metrics : t -> unit
(** Publishes end-of-run state into {!Obs.Metrics} gauges (installed code
    size and method count, compile cycles, VM cycles/steps, aggregate IC
    counters, the mined superinstruction table as [superinst.*] gauges,
    the registered OSR continuation count as [osr.methods])
    and the per-site IC hit-rate histogram. Event-shaped
    counters (compiles, installs, invalidations, bailouts, osr
    enters/exits, …) accrue live; this snapshot covers the point-in-time
    values only. A no-op while metrics are disabled. *)

val bailout_stats : t -> bailout_stats
(** Aggregate failure picture of the run: how many compilation attempts
    bailed out, over how many methods, and which methods are permanently
    blacklisted to the interpreter. *)

type serve_stats = {
  sv_sheds : int;            (** requests shed by admission control *)
  sv_evictions : int;        (** cache evictions over the run *)
  sv_queue_depth : int;      (** requests still waiting at end of run *)
  sv_cache_used : int;       (** resident code size (installed size when unbounded) *)
  sv_cache_resident : int;   (** resident methods (installed count when unbounded) *)
  sv_queue_waits : int list; (** serviced requests' queue waits, ascending *)
  sv_ttp : int list;         (** per-method time-to-peak, ascending *)
}

val serve_stats : t -> serve_stats
(** End-of-run serving picture. The two latency lists are sorted
    ascending so exact percentile extraction is an index. Meaningful
    with serving off too (zero churn, empty waits, inline-trigger
    time-to-peak). *)

val timeline_fields : t -> (string * Support.Json.t) list
(** The flat gauge snapshot a timeline sample carries: tier residency
    ([compiled]/[pending]/[blacklisted], [code_size]), compile/deopt/OSR
    churn ([compiles], [invalidations], [bailouts], [osr_enters],
    [osr_exits]) and serving pressure ([queue_depth], [cache_used],
    [cache_resident], [sheds], [evictions], [evict_max] — the highest
    per-method eviction count, which the cache-thrash SLO keys on).
    Documented in docs/OBSERVABILITY.md. *)

val sample_timeline : ?force:bool -> t -> unit
(** Emits a sample if one is due on this engine's clock ([force]
    bypasses the cadence — callers use it for a final end-of-run row).
    Feeds the attached {!Obs.Slo} monitor, emitting each rising-edge
    firing as a structured [slo_violation] trace event. A single [None]
    match when no timeline is attached. *)

val attach_timeline :
  ?monitor:Obs.Slo.monitor -> t -> source:string -> Obs.Timeline.t -> unit
(** Arms sampling on this engine: a baseline row at the next method
    entry, then one every [Obs.Timeline.interval] simulated cycles.
    Sampling only reads engine state — arming it cannot change program
    behavior, clocks, or chaos streams. *)
