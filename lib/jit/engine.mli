(** The tiered execution engine: interpret, detect hotness, compile,
    install — the paper's online compilation-request environment. Compiled
    bodies are produced by a pluggable {!compiler} (the incremental
    inliner, a baseline, or nothing) and installed in the VM's per-method
    code slots ({!Runtime.Interp.set_installed}), which the interpreter
    reads at every method entry. Compilation is synchronous
    but its simulated cost is metered on a separate clock; a produced body
    installs at once. The one model of a background compiler's occupancy
    is the serve queue's busy window ({!Scheduler}). OSR state is one
    {!osr_site} per (method, loop header); retiring code signals nothing,
    since a running compiled frame sees at a loop header that its code is
    stale. *)

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

val containable : exn -> bool
(** Which exceptions a compiler invocation may fail with and be contained
    (all but host-process conditions: [Out_of_memory], [Sys.Break]). *)

val backoff_cooldown : hotness:int -> failures:int -> int
(** Exponential-backoff retry distance after [failures] failed compile
    attempts: [hotness * 2^(failures-1)], saturating at a large positive
    value instead of overflowing to a negative one (which would un-gate
    recompilation of a method that should be backing off). *)

val max_recompiles : int
(** Invalidations a method may take — speculation misses or chaos
    invalidation storms, not cache evictions — before its code stays
    installed for good: 2. *)

val max_compile_failures : int
(** Failed compile attempts before a method is blacklisted: 3. *)

type osr_origin = { od_src : meth_id; od_bid : bid; od_depth : int }
(** Provenance of a synthetic OSR continuation: source method, the loop
    header it was extracted at, and its extraction generation (capped so
    invalidate/re-enter cycles cannot mint methods forever). *)

type meth_state = {
  mutable blacklisted : bool;
  (** permanently retired to the interpreter after
      {!max_compile_failures} failed compilation attempts *)
  mutable failures : int;    (** failed compile attempts *)
  mutable recompiles : int;  (** invalidations taken (at most {!max_recompiles}) *)
  mutable cooldown : int;
  (** invocation count below which the method does not (re)compile *)
  mutable misses : int;
  (** speculation misses against the installed code; reset by every
      install and retirement *)
  mutable evicts : int;      (** code-cache evictions *)
  mutable first_hot : int;   (** [vm.cycles] at the first hot trigger; [-1]: never *)
  mutable time_to_peak : int;
  (** cycles from [first_hot] to the first install (includes queue
      wait); [-1]: none yet *)
  mutable origin : osr_origin option;  (** [Some] for a synthetic continuation *)
}
(** The engine's state for one method. Its installed code is not here:
    it lives in the VM's slot ({!Runtime.Interp.installed}). *)

type osr_site = {
  mutable enter : Runtime.Interp.osr_transfer option;  (** one per site, ever *)
  mutable refused : bool;  (** memoized refusal of the enter direction *)
  mutable gate : int;  (** block count gating the next enter/compile attempt *)
  mutable exits : (fn * Runtime.Interp.osr_transfer option) list;
  (** exit continuations keyed by the physical stale body; [None]
      memoizes "not extractable, keep running" *)
}
(** The engine's state for one OSR site, a loop header of a method, in
    both directions. *)

type t = {
  vm : Runtime.Interp.vm;
  config : config;
  mutable meths : meth_state array;
  (** per-method state indexed by [meth_id], grown on demand; read and
      write it through {!state} *)
  mutable compiling : bool;
  mutable compile_cycles : int;
  mutable compilations : compilation list;  (** most recent first *)
  spec_miss_threshold : int;
  mutable invalidations : (meth_id * int) list;  (** method, at_cycles *)
  mutable bailouts : bailout list;
  (** contained compile failures, most recent first; see {!containable} *)
  compile_fuel : int option;
  (** per-compilation watchdog budget in {!Support.Fuel} checkpoints *)
  osr_threshold : int;
  (** block (≈ backedge) count that makes a loop hot — triggers both the
      mid-invocation OSR transfer and the [on_entry] promotion of
      single-invocation hot-loop methods. Finite even with OSR off. *)
  osr_sites : (meth_id * bid, osr_site) Hashtbl.t;  (** by (method, header) *)
  loop_cache : (meth_id, (fn * Ir.Loops.t) list) Hashtbl.t;
  (** loop forests per method, matched by physical body *)
  mutable osr_uid : int;
  mutable osr_enters : int;  (** OSR transfers taken (enter direction) *)
  mutable osr_exits : int;   (** OSR exits (invalidation transfers + trap unwinds) *)
  serve_queue : meth_id Scheduler.t option;
  (** bounded background-compile queue; [None] (default): hot methods
      compile inline at the trigger, exactly the pre-serve engine *)
  serve_cache : Codecache.t option;
  (** bounded code-cache residency; [None] (default): unbounded *)
  mutable evictions : int;  (** cache evictions over the run *)
  mutable sheds : int;
  (** compile requests shed by admission control *)
  mutable queue_waits : int list;
  (** queue waits of serviced requests, most recent first *)
  mutable timeline : timeline option;
  (** time-series sampling ({!attach_timeline}); [None] (default) costs
      one match per method entry *)
}

and timeline = {
  tl_sink : Obs.Timeline.t;
  tl_source : string;  (** tenant id, or a run label *)
  mutable tl_due : int;  (** next sample at [vm.cycles >= tl_due] *)
}

val create :
  ?spec_miss_threshold:int -> ?compile_fuel:int -> ?osr:bool ->
  ?osr_threshold:int -> ?queue_capacity:int -> ?queue_age_unit:int ->
  ?cache_capacity:int -> program -> config -> t
(** Allocates the engine and wires the VM hooks; also runs
    {!Opt.Driver.prepare_program} so profiles are collected against
    prepared IR (a body prepared before is not prepared again). Programs run under {!Runtime.Cost.default}. The seven
    options, all off or at their default when absent:

    - [compile_fuel]: a {!Support.Fuel} watchdog budget around every
      compile attempt (`selvm run --compile-fuel`, or a serve deadline).
      Exhaustion mid-compile returns the inliner's best completed round,
      or fails the attempt when not even one round finished.
    - [spec_miss_threshold] (speculation management; tests and examples):
      when a compiled method's typeswitch fallback executes that many
      times — a receiver distribution the speculation never saw, e.g.
      after a phase shift — its code is invalidated, the interpreter
      re-profiles it for [hotness_threshold] further invocations, and it
      recompiles against the new profile, at most {!max_recompiles}
      times per method.
    - [osr] (default true; only meaningful with a compiler): when an
      interpreted frame's block counter crosses [osr_threshold] (default
      [hotness_threshold * 64]; tests set it) at a loop header, the
      engine extracts the loop continuation ({!Ir.Osr}), compiles it
      through the normal pipeline and transfers the frame into it
      mid-invocation; a running compiled frame whose code was retired
      (invalidated or evicted) OSR-exits into an interpreted continuation
      at its next loop header. Program outputs are bit-identical with OSR
      on, off, and under the reference interpreter. [osr:false] is the
      kill switch: no checkpoints fire, but the backedge-driven
      [on_entry] trigger (a bugfix, not a speculation) stays active.
    - [queue_capacity] / [queue_age_unit] (serving; default age unit
      1024 cycles): hot methods enqueue a prioritized compile request
      ({!Scheduler}: hotness × queue-age score, saturating) instead of
      compiling inline; the one simulated background compiler services
      the highest-score request at method entries, and admission control
      sheds the lowest-score request when the queue is full. A serviced
      compilation keeps that compiler busy for the compile cycles it
      charged, so later requests wait: this busy window is the engine's
      only model of compile latency. Without a queue a produced body
      installs at once.
    - [cache_capacity] (serving, IR nodes): installed code is bounded
      ({!Codecache}): installs evict lowest-retention residents, which
      fall back to the interpreted tier through the same retire path as
      invalidations, OSR exits of running frames included — without
      consuming {!max_recompiles}; instead an evicted method's
      recompilation backs off per eviction.

    Failure handling: an exception escaping the compiler or verifier (any
    {!containable} one) is a bailout — the method keeps interpreting, the
    compile cycles already spent are charged, and retries back off
    exponentially (the cooldown gate doubles per failure). After
    {!max_compile_failures} failures the method is blacklisted:
    permanently interpreted, never re-entering compilation. When a
    {!Support.Chaos} plan is ambient, the engine additionally injects
    deterministic compiler crashes, verifier rejects, starved fuel
    budgets and invalidation storms at these same points. Synthetic
    OSR/deopt continuations inherit their parent method's failure count
    and blacklist entry at extraction time.

    All decisions are functions of this engine's own state, so a tenant
    behaves byte-identically solo or multiplexed by {!Serve}. *)

val run_main : t -> Runtime.Values.value
val run_meth : t -> string -> Runtime.Values.value list -> Runtime.Values.value
val output : t -> string

val installed_code_size : t -> int
(** Total size of installed bodies — the Figure 10 / Table I metric. *)

val installed_methods : t -> int

val ic_stats : t -> Runtime.Interp.ic_stat list
(** Per-site inline-cache statistics (see {!Runtime.Interp.ic_stats}). *)

val superinst_stats : t -> Runtime.Interp.sstat list
(** The threaded tier's mined superinstruction table, sorted by pattern
    (see {!Runtime.Interp.superinst_stats}). Empty under the reference
    backend or when no lowered body had a fusable run of two ops. *)

val dispatch_label : t -> string
(** How the interpreted tier dispatches: ["threaded"] or ["walker"]
    (reference). *)

val flush_pending : ?force:bool -> t -> int
(** Installs nothing and returns 0: every produced body installs at once,
    so no compilation is ever left pending. Kept, with its type, for the
    benchmark in [jitbench/], which calls it at the end of a run. *)

val compiled_body : t -> string -> fn option

val blacklisted : t -> meth_id -> bool

val state : t -> meth_id -> meth_state
(** The method's record in [meths], growing the table when the method was
    added after {!create}. *)

type stats = {
  steps : int;                (** interpreter steps *)
  cycles : int;               (** execution clock *)
  compile_cycles : int;       (** compile clock *)
  installs : int;             (** bodies installed over the run *)
  compiled : int;             (** methods with installed code now *)
  code_size : int;            (** {!installed_code_size} *)
  invalidations : int;
  failed_attempts : int;      (** contained compile bailouts *)
  failed_methods : int;       (** distinct methods with at least one failure *)
  blacklisted_methods : meth_id list;  (** ascending *)
  osr_enters : int;
  osr_exits : int;            (** invalidation transfers + trap unwinds *)
  osr_methods : int;          (** registered OSR continuations *)
  sheds : int;                (** requests shed by admission control *)
  evictions : int;
  evict_max : int;            (** highest per-method eviction count *)
  queue_depth : int;          (** requests waiting (0 without a queue) *)
  cache_used : int;           (** resident code; installed code when unbounded *)
  cache_resident : int;       (** resident methods; installed ones when unbounded *)
  queue_waits : int list;     (** serviced requests' queue waits, ascending *)
  ttp : int list;             (** per-method time-to-peak, ascending *)
}
(** The one snapshot every engine report renders from: timeline samples,
    {!snapshot_metrics}, the serve tenant report and fleet rows, the
    harness run and `selvm --stats`. The latency lists are sorted so
    exact percentile extraction is an index. *)

val stats : t -> stats

val bailout_stats : t -> stats
(** {!stats}, under the name older callers use for the failure fields. *)

val snapshot_metrics : t -> unit
(** Publishes end-of-run state into {!Obs.Metrics} gauges (installed code
    size and method count, compile cycles, VM cycles/steps, aggregate IC
    counters, the mined superinstruction table as [superinst.*] gauges,
    the registered OSR continuation count as [osr.methods], and the
    [serve.*] queue and cache gauges when those are bounded) and the
    per-site IC hit-rate histogram. Event-shaped counters (compiles,
    installs, invalidations, bailouts, osr enters/exits, …) accrue live;
    this snapshot covers the point-in-time values only. A no-op while
    metrics are disabled. *)

val sample_timeline : ?force:bool -> t -> unit
(** Emits a sample if one is due on this engine's clock ([force]
    bypasses the cadence — callers use it for a final end-of-run row).
    The row carries {!stats} under the timeline schema of
    docs/OBSERVABILITY.md: tier residency ([compiled], [blacklisted],
    [code_size]), churn ([compiles], [invalidations],
    [bailouts], [osr_enters], [osr_exits]) and serving pressure
    ([queue_depth], [cache_used], [cache_resident], [sheds],
    [evictions], [evict_max]), which the {!Obs.Slo} detectors read
    offline. A single [None] match when no timeline is attached. *)

val attach_timeline : t -> source:string -> Obs.Timeline.t -> unit
(** Arms sampling on this engine: a baseline row at the next method
    entry, then one every [Obs.Timeline.interval] simulated cycles.
    Sampling only reads engine state — arming it cannot change program
    behavior, clocks, or chaos streams. *)
