(** The multi-tenant serving driver behind `selvm serve`.

    Multiplexes N tenant workloads, each on its own {!Engine} armed with
    per-tenant serving budgets (bounded compile queue, bounded code
    cache, per-compile deadline) and — optionally — its own
    deterministic {!Support.Chaos} fault plan, seeded from the tenant id.
    The driver round-robins one benchmark iteration per tenant per turn
    until every tenant has finished its iterations.

    The load-bearing invariant: every decision affecting a tenant is a
    function of that tenant's own state (its engine's clocks and tables,
    its own chaos plan, its id-derived seed). The driver only
    interleaves; it never routes one tenant's pressure into another's
    engine. Consequently a tenant's output, step count, cycle count and
    checksum are byte-identical whether it runs in a fleet of 8 or alone
    — {!run} on a filtered tenant list reproduces exactly the per-tenant
    numbers of the full fleet, which is what the chaos-under-load soak
    gate asserts. *)

type tenant = {
  tn_id : string;
  (** stable identity, e.g. ["long-loop#0"] — the chaos seed derives
      from this, so a tenant keeps its fault plan when the fleet around
      it changes *)
  tn_make : unit -> Ir.Types.program * Engine.config;
  (** fresh program and config per engine. The config must carry a fresh
      compiler instance: stateful compilers (the incremental inliner's
      trial cache) must never be shared across tenants. *)
  tn_iters : int;  (** benchmark iterations to serve *)
}

type limits = {
  queue_capacity : int option;   (** per-tenant compile-queue bound *)
  queue_age_unit : int;          (** cycles of waiting worth one hotness *)
  cache_capacity : int option;   (** per-tenant code-cache bound, IR nodes *)
  compile_deadline : int option; (** per-compile {!Support.Fuel} budget *)
  chaos_rate : float;            (** 0.0: no fault injection *)
  chaos_seed : int;              (** base seed; per-tenant seeds derive from it *)
}

val default_limits : limits
(** Everything off: unbounded queue-less engines, no chaos. *)

val seed_for : base:int -> string -> int
(** The tenant's chaos seed: a deterministic hash of the tenant id mixed
    with the base seed. Depends only on (base, id) — never on fleet
    composition — so solo reruns reproduce fleet fault plans. *)

val parse_tenants : string -> ((string * int) list, string) result
(** Parses a `--tenants` spec: comma-separated [name] or [name*count]
    entries, e.g. ["long-loop*3,gauss-mix"]. Returns the (name, count)
    pairs in spec order, or a one-line diagnostic. Workload-name
    validation is the caller's (the CLI resolves against its registry). *)

type tenant_report = {
  tr_id : string;
  tr_seed : int;               (** chaos seed (0 when chaos is off) *)
  tr_iters : int;
  tr_checksum : int;           (** fold of the per-iteration bench checksums *)
  tr_output : string;          (** full program output *)
  tr_digest : string;
      (** MD5 hex over every iteration's [bench] result, in order, and
          then {!tr_output}. The results are folded into a rolling digest
          as they arrive, so serving keeps no per-iteration history. *)
  tr_steps : int;
  tr_cycles : int;
  tr_compile_cycles : int;
  tr_installs : int;
  tr_invalidations : int;
  tr_evictions : int;
  tr_sheds : int;
  tr_bailouts : int;
  tr_blacklisted : int;
  tr_cache_used : int;
      (** resident code at end of run, IR nodes; total installed-and-live
          code when the cache is unbounded — the demand a cache bound is
          sized against *)
  tr_queue_depth : int;        (** requests still waiting at end of run *)
  tr_queue_wait_p50 : int;
  tr_queue_wait_p90 : int;
  tr_queue_wait_p99 : int;
  tr_queue_wait_max : int;
  tr_ttp_p50 : int;            (** time-to-peak percentiles, cycles *)
  tr_ttp_p90 : int;
  tr_ttp_p99 : int;
  tr_ttp_max : int;
}

val run :
  ?limits:limits -> ?timeline:Obs.Timeline.t -> tenant list ->
  tenant_report list
(** Serves the fleet to completion and reports per tenant, in input
    order. Emits [serve_start] / [serve_slice] / [serve_tenant_done]
    trace events (the per-engine [serve_*]/[evict]/[shed] events come
    from {!Engine}); each slice runs under the tenant's own chaos plan
    and trace clock.

    With [timeline], every tenant's engine samples its gauges on its own
    clock ({!Engine.attach_timeline}) and the driver adds one
    [timeline_fleet] row per round-robin turn when due — queue/cache
    totals plus p50/p90/p99/max latency percentiles across the fleet;
    {!Obs.Slo.check_file} reads those rows offline, with per-tenant
    detector state. Sampling only reads engine state, so arming it never
    perturbs tenant behavior — the fleet-vs-solo isolation invariant
    holds with the timeline on. *)

val report_json : tenant_report list -> Support.Json.t
(** Deterministic fleet report: each tenant's {!tenant_report.tr_digest}
    as [output_digest], latency percentiles and churn counters inline —
    byte-identical across same-seed runs, and per-tenant entries
    identical between a fleet run and the tenant's solo run. *)
