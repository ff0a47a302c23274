(* The tiered execution engine: interpret, detect hotness, compile, install.

   This is the "stream of compilation requests" environment from the
   paper's online-inlining problem statement (Section II): methods start
   interpreted (collecting profiles); when a method's invocation count
   crosses the threshold it is handed to the configured [compiler] — the
   paper's algorithm, a baseline, or nothing — and the returned optimized
   body is installed in the code cache, where the interpreter picks it up
   at the next invocation.

   Compilation is synchronous but its simulated cost is metered on a
   separate clock ([compile_cycles]), mirroring a background compiler
   thread that does not stall the mutator. *)

open Ir.Types

(* A compiler maps a hot method to an optimized body to install. *)
type compiler = program -> Runtime.Profile.t -> meth_id -> fn

type config = {
  name : string;
  compiler : compiler option;      (* None: pure interpreter *)
  hotness_threshold : int;         (* invocations before compilation *)
  compile_cost_per_node : int;     (* simulated compile cycles per output IR node *)
  verify : bool;                   (* check produced IR (tests; off in benches) *)
}

let interpreter_config = {
  name = "interpreter";
  compiler = None;
  hotness_threshold = max_int;
  compile_cost_per_node = 0;
  verify = false;
}

type compilation = { cm : meth_id; size : int; at_cycles : int }

(* One contained compilation failure: the compiler (or the verifier)
   threw instead of producing an installable body. The run survives —
   the method keeps interpreting. [failures] is the method's failure
   count including this one; [charged] the compile cycles the dead
   attempt burned; [blacklisted] whether this failure hit the cap and
   permanently retired the method to the interpreter. *)
type bailout = {
  bm : meth_id;
  reason : string;
  at_cycles : int;
  failures : int;
  charged : int;
  blacklisted : bool;
}

(* Aggregate failure picture of a run, for summaries and the CLI. *)
type bailout_stats = {
  failed_attempts : int;       (* bailouts recorded *)
  failed_methods : int;        (* distinct methods with >= 1 failure *)
  blacklisted_methods : meth_id list;  (* ascending *)
}

(* Exceptions the engine refuses to contain: conditions of the host
   process, not of one compilation. Everything else — compiler bugs,
   verifier rejects, even a runaway inliner blowing the stack — must
   degrade to the interpreter, never abort the run. *)
let containable = function
  | Out_of_memory | Sys.Break -> false
  | _ -> true

(* Exponential-backoff retry distance after [failures] failed compile
   attempts: hotness * 2^(failures-1), saturating. The naive shift
   overflows once failures exceeds the word size — a negative cooldown
   un-gates recompilation of a method that should be backing off — so
   both the shift and the product clamp to a huge-but-positive value. *)
let backoff_cooldown ~(hotness : int) ~(failures : int) : int =
  if hotness <= 0 then 0
  else
    let shift = min (max 0 (failures - 1)) 40 in
    let mult = 1 lsl shift in
    if hotness > max_int / mult then max_int / 2 else hotness * mult

(* Engine instruments (registered once; recording is a no-op while
   [Obs.Metrics] is disabled, keeping the hot path clean). *)
let m_compiles = Obs.Metrics.counter "jit.compiles"
let m_installs = Obs.Metrics.counter "jit.installs"
let m_invalidations = Obs.Metrics.counter "jit.invalidations"
let m_bailouts = Obs.Metrics.counter "jit.compile_bailouts"
let m_blacklisted = Obs.Metrics.counter "jit.blacklisted"
let m_pending_installs = Obs.Metrics.counter "jit.pending_installs"
let m_compile_latency = Obs.Metrics.histogram "jit.compile_latency_cycles"
let m_osr_enters = Obs.Metrics.counter "osr.enters"
let m_osr_exits = Obs.Metrics.counter "osr.exits"
let m_enqueues = Obs.Metrics.counter "serve.enqueues"
let m_sheds = Obs.Metrics.counter "serve.sheds"
let m_evictions = Obs.Metrics.counter "serve.evictions"
let m_queue_wait = Obs.Metrics.histogram "serve.queue_wait_cycles"
let m_ttp = Obs.Metrics.histogram "serve.time_to_peak_cycles"

(* Where a synthetic OSR continuation came from: the source method, the
   loop header it was extracted at, and its extraction generation (an
   exit continuation of an enter continuation is depth 2, and so on —
   capped so invalidation/re-enter cycles cannot mint methods forever). *)
type osr_origin = { od_src : meth_id; od_bid : bid; od_depth : int }

type t = {
  vm : Runtime.Interp.vm;
  config : config;
  code_cache : (meth_id, fn) Hashtbl.t;
  mutable compiling : bool;
  mutable compile_cycles : int;
  mutable compilations : compilation list;  (* most recent first *)
  (* asynchronous-compilation model (paper, Section II.2 "compilation
     impact"): a hot method's code is produced when it crosses the
     threshold but installs only after its simulated compile latency has
     elapsed on the execution clock, as a background compiler thread
     would; until then the method keeps interpreting (and profiling) *)
  async_compile : bool;
  pending : (meth_id, fn * int (* ready at [vm.cycles] *)) Hashtbl.t;
  (* speculation management (deopt-lite): typeswitch fallbacks executed in
     compiled code count as misses; past the threshold the method's code
     is thrown away and it re-profiles before recompiling *)
  spec_miss_threshold : int;
  max_recompiles : int;
  miss_counts : (meth_id, int ref) Hashtbl.t;
  recompile_counts : (meth_id, int) Hashtbl.t;
  cooldown : (meth_id, int) Hashtbl.t;      (* invocation count gating recompilation *)
  mutable invalidations : (meth_id * int) list;  (* method, at_cycles *)
  mutable bailouts : bailout list;          (* contained compile failures, most recent first *)
  (* graceful-degradation machinery: a failed compile backs off
     exponentially (cooldown doubling per failure); at the cap the method
     is blacklisted — permanently interpreted, never retried, so a
     deterministic compiler bug costs a bounded number of compile cycles *)
  max_compile_failures : int;
  failure_counts : (meth_id, int) Hashtbl.t;
  blacklist : (meth_id, unit) Hashtbl.t;
  (* optional per-compilation watchdog budget (Support.Fuel checkpoints);
     None: unlimited *)
  compile_fuel : int option;
  (* installs a produced-but-pending body through the normal install path
     (code cache + prepared-code invalidation + accounting + telemetry);
     set when a compiler is configured, used by [flush_pending] *)
  mutable install_pending : meth_id -> fn -> unit;
  (* --- on-stack replacement (the long-running-loop path) --- *)
  osr : bool;                      (* enter/exit machinery armed *)
  osr_threshold : int;
  (* block (≈ backedge) count that makes a loop hot: OSR-enters an
     interpreted frame mid-invocation and, folded into [on_entry]'s
     trigger, promotes a single-invocation hot-loop method at its next
     call. Finite even when [osr] is off (the trigger fix stands alone). *)
  osr_sites : (meth_id * bid, Runtime.Interp.osr_transfer) Hashtbl.t;
  (* (source, header) -> registered enter transfer; one per site, ever *)
  osr_meta : (meth_id, osr_origin) Hashtbl.t;      (* synthetic -> origin *)
  osr_no : (meth_id * bid, unit) Hashtbl.t;        (* memoized refusals *)
  osr_cooldown : (meth_id * bid, int) Hashtbl.t;
  (* block count gating the next enter/compile attempt at a site *)
  loop_cache : (meth_id, (fn * Ir.Loops.t) list) Hashtbl.t;
  (* loop forests per method, matched by physical body (a method has at
     most a handful of live bodies: interpreted, installed, stale) *)
  exit_conts : (meth_id * bid, (fn * Runtime.Interp.osr_transfer option) list) Hashtbl.t;
  (* per (method, header): exit continuations keyed by the physical stale
     body; [None] memoizes "not extractable — keep running stale code" *)
  mutable osr_uid : int;           (* synthetic-name uniquifier *)
  mutable osr_enters : int;
  mutable osr_exits : int;
  (* --- serving: bounded background-compile queue + bounded code cache.
     Both off by default (absent, the engine is exactly the unbounded
     synchronous-trigger engine above); `selvm serve` arms them with
     per-tenant budgets. Every decision here is a function of this
     engine's own clocks and tables — never of ambient or fleet state —
     which is what makes a tenant's run byte-identical solo or
     multiplexed. *)
  serve_queue : meth_id Scheduler.t option;
  serve_cache : meth_id Codecache.t option;
  compile_deadline : int option;
  (* per-compile deadline in Support.Fuel checkpoints; min()s with
     [compile_fuel] at every attempt *)
  mutable evictions : (meth_id * int) list;  (* method, at_cycles; most recent first *)
  evict_counts : (meth_id, int) Hashtbl.t;
  (* evictions per method: drives the re-hot backoff, so a cache-thrashing
     method converges to the prepared tier instead of churning *)
  mutable sheds : int;             (* compile requests shed by admission control *)
  mutable queue_waits : int list;  (* serviced requests' waits, most recent first *)
  first_hot : (meth_id, int) Hashtbl.t;  (* first hot-trigger, at [vm.cycles] *)
  mutable ttp : (meth_id * int) list;
  (* time-to-peak per method: cycles from first hot-trigger to first
     install (includes queue wait and async latency) *)
  mutable timeline : timeline option;
  (* time-series sampling; [None] (default) costs one match per entry *)
}

and timeline = {
  tl_sink : Obs.Timeline.t;
  tl_source : string;            (* tenant id, or a run label *)
  tl_monitor : Obs.Slo.monitor option;
  mutable tl_due : int;          (* next sample at [vm.cycles >= tl_due] *)
}

(* A loop is OSR-hot well before this many header visits in one
   invocation would have crossed the invocation-hotness bar; 64 iterations
   per crossing keeps ordinary short loops promoting through the normal
   per-call trigger. *)
let default_osr_threshold (config : config) : int =
  if config.hotness_threshold > max_int / 64 then max_int
  else max 1 (config.hotness_threshold * 64)

(* The flat gauge snapshot a timeline sample carries: tier residency,
   compile/deopt/OSR churn, and the serving layer's queue and cache
   pressure. Field names are a public schema (docs/OBSERVABILITY.md) —
   the SLO detectors key on "invalidations", "sheds" and "evict_max". *)
let timeline_fields (t : t) : (string * Support.Json.t) list =
  let code_size =
    Hashtbl.fold (fun _ fn acc -> acc + Ir.Fn.size fn) t.code_cache 0
  in
  Support.Json.
    [
      ("steps", Int t.vm.steps);
      ("compiled", Int (Hashtbl.length t.code_cache));
      ("pending", Int (Hashtbl.length t.pending));
      ("blacklisted", Int (Hashtbl.length t.blacklist));
      ("code_size", Int code_size);
      ("compiles", Int (List.length t.compilations));
      ("compile_cycles", Int t.compile_cycles);
      ("invalidations", Int (List.length t.invalidations));
      ("bailouts", Int (List.length t.bailouts));
      ("osr_enters", Int t.osr_enters);
      ("osr_exits", Int t.osr_exits);
      ("sheds", Int t.sheds);
      ("evictions", Int (List.length t.evictions));
      ( "evict_max",
        Int (Hashtbl.fold (fun _ n acc -> max n acc) t.evict_counts 0) );
      ( "queue_depth",
        Int (match t.serve_queue with Some q -> Scheduler.length q | None -> 0)
      );
      ( "cache_used",
        Int
          (match t.serve_cache with
          | Some c -> Codecache.used c
          | None -> code_size) );
      ( "cache_resident",
        Int
          (match t.serve_cache with
          | Some c -> Codecache.resident c
          | None -> Hashtbl.length t.code_cache) );
    ]

(* The per-entry sampling check: one [None] match while no timeline is
   attached. When a sample is due, snapshot the gauges, stream the row,
   and run the SLO monitor over it — each rising-edge firing becomes a
   structured [slo_violation] trace event on the tenant's own clock. *)
let sample_timeline ?(force = false) (t : t) : unit =
  match t.timeline with
  | None -> ()
  | Some tl ->
      if force || t.vm.cycles >= tl.tl_due then begin
        let cycles = t.vm.cycles in
        let fields = timeline_fields t in
        Obs.Timeline.sample tl.tl_sink ~source:tl.tl_source ~cycles fields;
        (match tl.tl_monitor with
        | None -> ()
        | Some mon ->
            List.iter
              (fun v ->
                Obs.Trace.emit "slo_violation" (fun () ->
                    Obs.Slo.violation_fields v))
              (Obs.Slo.feed mon ~source:tl.tl_source ~cycles fields));
        tl.tl_due <- cycles + Obs.Timeline.interval tl.tl_sink
      end

(* Arms sampling; the first sample lands at the next method entry (a
   baseline row), then every [Obs.Timeline.interval] cycles. *)
let attach_timeline ?monitor (t : t) ~(source : string)
    (sink : Obs.Timeline.t) : unit =
  t.timeline <-
    Some
      { tl_sink = sink; tl_source = source; tl_monitor = monitor;
        tl_due = t.vm.cycles }

let create ?(cost = Runtime.Cost.default) ?(spec_miss_threshold = max_int)
    ?(max_recompiles = 2) ?(async_compile = false) ?(max_compile_failures = 3)
    ?compile_fuel ?(osr = true) ?osr_threshold ?queue_capacity
    ?(queue_age_unit = 1024) ?cache_capacity ?compile_deadline (prog : program)
    (config : config) : t =
  (* parse-time canonicalization: prepared bodies are what gets profiled,
     specialized and inlined (idempotent; safe if already prepared) *)
  Opt.Driver.prepare_program prog;
  let vm = Runtime.Interp.create ~cost prog in
  let osr_threshold =
    match osr_threshold with
    | Some n -> max 1 n
    | None -> default_osr_threshold config
  in
  let t =
    { vm; config; code_cache = Hashtbl.create 32; compiling = false;
      compile_cycles = 0; compilations = [];
      async_compile; pending = Hashtbl.create 8;
      spec_miss_threshold; max_recompiles;
      miss_counts = Hashtbl.create 8; recompile_counts = Hashtbl.create 8;
      cooldown = Hashtbl.create 8; invalidations = []; bailouts = [];
      max_compile_failures; failure_counts = Hashtbl.create 8;
      blacklist = Hashtbl.create 8; compile_fuel;
      install_pending = (fun _ _ -> ());
      osr = osr && config.compiler <> None && osr_threshold < max_int;
      osr_threshold;
      osr_sites = Hashtbl.create 8; osr_meta = Hashtbl.create 8;
      osr_no = Hashtbl.create 8; osr_cooldown = Hashtbl.create 8;
      loop_cache = Hashtbl.create 8; exit_conts = Hashtbl.create 8;
      osr_uid = 0; osr_enters = 0; osr_exits = 0;
      serve_queue =
        (match queue_capacity with
        | Some cap when config.compiler <> None ->
            Some (Scheduler.create ~capacity:cap ~age_unit:queue_age_unit)
        | _ -> None);
      serve_cache =
        (match cache_capacity with
        | Some cap when config.compiler <> None ->
            Some (Codecache.create ~capacity:cap)
        | _ -> None);
      compile_deadline;
      evictions = []; evict_counts = Hashtbl.create 8; sheds = 0;
      queue_waits = []; first_hot = Hashtbl.create 8; ttp = [];
      timeline = None }
  in
  vm.code <- (fun m -> Hashtbl.find_opt t.code_cache m);
  (* stamp the ambient trace sink (if any) with this engine's simulated
     clock; a no-op with tracing disabled *)
  Obs.Trace.set_clock (fun () -> vm.cycles);
  (match config.compiler with
  | None -> ()
  | Some compiler ->
      let meth_name m = (Ir.Program.meth prog m).m_name in
      (* bounded-cache retirement: drop a victim's installed code and send
         it back to the prepared tier through the same deopt-epoch path an
         invalidation takes. Unlike [invalidate] below this is capacity
         pressure, not a speculation failure — it consumes no
         [max_recompiles] budget; instead the victim's recompilation gate
         backs off per eviction, so a method the cache cannot hold
         converges to the prepared tier instead of churning forever. *)
      let evict v =
        let vsize =
          match Hashtbl.find_opt t.code_cache v with
          | Some fn -> Ir.Fn.size fn
          | None -> 0
        in
        Hashtbl.remove t.code_cache v;
        Runtime.Interp.invalidate_code vm v;
        (match Hashtbl.find_opt t.miss_counts v with Some r -> r := 0 | None -> ());
        let evicted =
          (match Hashtbl.find_opt t.evict_counts v with Some n -> n | None -> 0) + 1
        in
        Hashtbl.replace t.evict_counts v evicted;
        Hashtbl.replace t.cooldown v
          (Support.Sat.add
             (Runtime.Profile.invocation_count vm.profiles v)
             (backoff_cooldown ~hotness:config.hotness_threshold ~failures:evicted));
        t.evictions <- (v, vm.cycles) :: t.evictions;
        Obs.Metrics.incr m_evictions;
        Runtime.Interp.record_evict vm v;
        (* wake running compiled frames of the victim exactly as an
           invalidation would: they OSR-exit at their next loop header *)
        if t.osr then begin
          vm.deopt_epoch <- vm.deopt_epoch + 1;
          match Hashtbl.find_opt t.osr_meta v with
          | Some o ->
              Hashtbl.replace t.osr_cooldown (o.od_src, o.od_bid)
                (Support.Sat.add
                   (Runtime.Profile.block_count vm.profiles o.od_src o.od_bid)
                   t.osr_threshold)
          | None -> ()
        end;
        Obs.Trace.emit "evict" (fun () ->
            Support.Json.
              [
                ("m", Int v);
                ("meth", String (meth_name v));
                ("size", Int vsize);
                ("evicts", Int evicted);
              ])
      in
      let install m body size =
        Hashtbl.replace t.code_cache m body;
        (* the tier for this method changed: drop its prepared code *)
        Runtime.Interp.invalidate_code vm m;
        (* a fresh body starts with a clean speculation slate: misses
           recorded against the previous code version must not count
           toward the new body's invalidation threshold *)
        Hashtbl.remove t.miss_counts m;
        t.compilations <- { cm = m; size; at_cycles = vm.cycles } :: t.compilations;
        (* ramp accounting: cycles from the method's first hot-trigger to
           its first install (covers queue wait and async latency) *)
        (match Hashtbl.find_opt t.first_hot m with
        | Some hot_at when not (List.mem_assoc m t.ttp) ->
            let d = Support.Sat.sub vm.cycles hot_at in
            t.ttp <- (m, d) :: t.ttp;
            Obs.Metrics.observe m_ttp d
        | _ -> ());
        Obs.Metrics.incr m_installs;
        Obs.Trace.emit "install" (fun () ->
            Support.Json.
              [ ("m", Int m); ("meth", String (meth_name m)); ("size", Int size) ]);
        (* bounded cache: admit the fresh body, then retire whatever no
           longer fits (under a tiny budget that can be the fresh body
           itself — the install/evict pair keeps the trace honest) *)
        match t.serve_cache with
        | None -> ()
        | Some cache ->
            List.iter evict (Codecache.install cache ~meth:m ~size ~now:vm.cycles)
      in
      t.install_pending <- (fun m body -> install m body (Ir.Fn.size body));
      (* drop a method's installed code and send it back to the
         interpreter to re-profile; shared by the spec-miss path and the
         chaos invalidation storm *)
      let invalidate m ~misses ~recompiled =
        Hashtbl.remove t.code_cache m;
        (match t.serve_cache with
        | Some cache -> Codecache.remove cache m
        | None -> ());
        Runtime.Interp.invalidate_code vm m;
        Hashtbl.replace t.recompile_counts m (recompiled + 1);
        (match Hashtbl.find_opt t.miss_counts m with Some r -> r := 0 | None -> ());
        Hashtbl.replace t.cooldown m
          (Support.Sat.add
             (Runtime.Profile.invocation_count vm.profiles m)
             config.hotness_threshold);
        t.invalidations <- (m, vm.cycles) :: t.invalidations;
        Obs.Metrics.incr m_invalidations;
        Runtime.Interp.record_deopt vm m;
        (* OSR: wake running compiled frames of this method at their next
           loop header (they re-validate against the moved epoch and take
           the OSR-exit path); a synthetic continuation additionally backs
           its enter site off so the loop does not thrash re-entering *)
        if t.osr then begin
          vm.deopt_epoch <- vm.deopt_epoch + 1;
          match Hashtbl.find_opt t.osr_meta m with
          | Some o ->
              Hashtbl.replace t.osr_cooldown (o.od_src, o.od_bid)
                (Support.Sat.add
                   (Runtime.Profile.block_count vm.profiles o.od_src o.od_bid)
                   t.osr_threshold)
          | None -> ()
        end;
        Obs.Trace.emit "invalidate" (fun () ->
            Support.Json.
              [
                ("m", Int m);
                ("meth", String (meth_name m));
                ("misses", Int misses);
                ("recompiles", Int (recompiled + 1));
              ])
      in
      (* the compile pipeline, shared by the invocation-hotness trigger
         below and the OSR machinery (which compiles the extracted loop
         continuations through exactly the same chaos / fuel / bailout /
         blacklist path) *)
      let compile_now (m : meth_id) : unit =
          begin
            t.compiling <- true;
            Fun.protect
              ~finally:(fun () -> t.compiling <- false)
              (fun () ->
                Obs.Trace.emit "compile_start" (fun () ->
                    Support.Json.
                      [
                        ("m", Int m);
                        ("meth", String (meth_name m));
                        ( "invocations",
                          Int (Runtime.Profile.invocation_count vm.profiles m) );
                      ]);
                (* chaos: decide this attempt's injected faults up front —
                   a starved watchdog budget, a compiler crash before any
                   work, or a verifier reject of the finished body. All
                   three surface as contained exceptions on the bailout
                   path below. *)
                let inject fault =
                  Obs.Trace.emit "chaos" (fun () ->
                      Support.Json.
                        [
                          ("fault", String (Support.Chaos.fault_to_string fault));
                          ("m", Int m);
                          ("meth", String (meth_name m));
                        ]);
                  raise (Support.Chaos.Injected fault)
                in
                let fuel =
                  if Support.Chaos.(roll Fuel_exhaustion) then
                    Some (Support.Chaos.starved_fuel ())
                  else
                    (* the serve deadline caps every attempt; an explicit
                       fuel budget can only tighten it further. A deadline
                       miss is a normal bailout: charged, backed off,
                       eventually blacklisted. *)
                    match (t.compile_fuel, t.compile_deadline) with
                    | None, d -> d
                    | f, None -> f
                    | Some f, Some d -> Some (min f d)
                in
                let attempt () =
                  if Support.Chaos.(roll Compiler_crash) then
                    inject Support.Chaos.Compiler_crash;
                  let body = compiler prog vm.profiles m in
                  if Support.Chaos.(roll Verifier_reject) then
                    inject Support.Chaos.Verifier_reject;
                  if config.verify then Ir.Verify.check body;
                  body
                in
                match
                  match fuel with
                  | None -> attempt ()
                  | Some n -> Support.Fuel.with_budget n attempt
                with
                | exception e when containable e ->
                    (* the compilation died; the method stays interpreted
                       (and keeps profiling). Charge the cycles the dead
                       attempt burned, back off exponentially, and at the
                       failure cap blacklist the method so a deterministic
                       compiler bug stops consuming compile cycles. *)
                    let reason =
                      match e with
                      | Ir.Verify.Ill_formed msg -> "verify: " ^ msg
                      | Support.Fuel.Exhausted -> "fuel exhausted"
                      | Support.Chaos.Injected f ->
                          "chaos: " ^ Support.Chaos.fault_to_string f
                      | Failure msg -> msg
                      | e -> Printexc.to_string e
                    in
                    let input_size =
                      match (Ir.Program.meth prog m).body with
                      | Some fn -> Ir.Fn.size fn
                      | None -> 0
                    in
                    let charged = input_size * config.compile_cost_per_node in
                    t.compile_cycles <- t.compile_cycles + charged;
                    let failures =
                      (match Hashtbl.find_opt t.failure_counts m with
                      | Some n -> n
                      | None -> 0)
                      + 1
                    in
                    Hashtbl.replace t.failure_counts m failures;
                    let blacklisted = failures >= t.max_compile_failures in
                    if blacklisted then Hashtbl.replace t.blacklist m ()
                    else
                      (* exponential backoff: the retry gate doubles with
                         every failure, measured in invocations past the
                         current count (saturating — see
                         [backoff_cooldown]) *)
                      Hashtbl.replace t.cooldown m
                        (Support.Sat.add
                           (Runtime.Profile.invocation_count vm.profiles m)
                           (backoff_cooldown ~hotness:config.hotness_threshold
                              ~failures));
                    t.bailouts <-
                      { bm = m; reason; at_cycles = vm.cycles; failures; charged;
                        blacklisted }
                      :: t.bailouts;
                    Obs.Metrics.incr m_bailouts;
                    if blacklisted then Obs.Metrics.incr m_blacklisted;
                    Obs.Trace.emit "compile_bailout" (fun () ->
                        Support.Json.
                          [
                            ("m", Int m);
                            ("meth", String (meth_name m));
                            ("reason", String reason);
                            ("failures", Int failures);
                            ("charged", Int charged);
                            ("blacklisted", Bool blacklisted);
                          ])
                | body ->
                let size = Ir.Fn.size body in
                let latency = size * config.compile_cost_per_node in
                t.compile_cycles <- t.compile_cycles + latency;
                Obs.Metrics.incr m_compiles;
                Obs.Metrics.observe m_compile_latency latency;
                Obs.Trace.emit "compile_done" (fun () ->
                    Support.Json.
                      [
                        ("m", Int m);
                        ("meth", String (meth_name m));
                        ("size", Int size);
                        ("latency", Int latency);
                        ("async", Bool t.async_compile);
                      ]);
                if t.async_compile then begin
                  let ready_at = Support.Sat.add vm.cycles latency in
                  Hashtbl.replace t.pending m (body, ready_at);
                  Obs.Metrics.incr m_pending_installs;
                  Obs.Trace.emit "pending_install" (fun () ->
                      Support.Json.
                        [
                          ("m", Int m);
                          ("meth", String (meth_name m));
                          ("size", Int size);
                          ("ready_at", Int ready_at);
                        ])
                end
                else install m body size)
          end
      in
      (* every serviced compilation occupies the one background compiler
         for the compile cycles it charged — OSR continuation compiles
         below bypass queue admission (the transfer decision is
         synchronous) but still occupy that compiler, so a loop promotion
         delays queued work exactly as it would on a real thread *)
      let compile_occupying m =
        let before = t.compile_cycles in
        compile_now m;
        match t.serve_queue with
        | Some q ->
            Scheduler.occupy q
              ~until:(Support.Sat.add vm.cycles (t.compile_cycles - before))
        | None -> ()
      in
      (* ---------- on-stack replacement ---------- *)
      let open Runtime.Interp in
      let max_osr_depth = 3 in
      (* loop forests per (method, physical body): a method has at most a
         handful of live bodies (interpreted, installed, stale) *)
      let loops_for (m : meth_id) (body : fn) : Ir.Loops.t =
        let cached = try Hashtbl.find t.loop_cache m with Not_found -> [] in
        match List.find_opt (fun (f, _) -> f == body) cached with
        | Some (_, li) -> li
        | None ->
            let li = Ir.Loops.compute body in
            Hashtbl.replace t.loop_cache m
              ((body, li) :: List.filteri (fun i _ -> i < 3) cached);
            li
      in
      (* registers an extracted continuation as a first-class method of
         the program — compiled, profiled, invalidated and blacklisted by
         the very same machinery as source methods — and seeds its block
         profile from the source's, so the inliner sees the loop as hot
         as it really is *)
      let register_extraction ~(src_m : meth_id) ~(header : bid)
          ~(depth : int) ~(kind : string) (x : Ir.Osr.extraction) :
          meth_id * osr_transfer =
        t.osr_uid <- t.osr_uid + 1;
        let name =
          Printf.sprintf "%s@%s%d.b%d" (meth_name src_m) kind t.osr_uid header
        in
        let om =
          Ir.Program.add_meth prog ~name ~selector:name ~owner:None
            ~param_tys:x.Ir.Osr.x_fn.param_tys ~rty:x.Ir.Osr.x_fn.rty
        in
        Ir.Program.set_body prog om x.Ir.Osr.x_fn;
        Ir.Fn.iter_blocks
          (fun b ->
            let n = Runtime.Profile.block_count vm.profiles src_m b.b_id in
            if n > 0 then begin
              let c = Runtime.Profile.block_cell vm.profiles om b.b_id in
              c := !c + n
            end)
          x.Ir.Osr.x_fn;
        Hashtbl.replace t.osr_meta om
          { od_src = src_m; od_bid = header; od_depth = depth };
        (* the continuation inherits its parent's failure budget: a method
           that is backing off or blacklisted must not get a fresh budget
           by way of extraction — before this, a blacklisted method could
           keep burning compile fuel through its synthetic continuations *)
        (match Hashtbl.find_opt t.failure_counts src_m with
        | Some n -> Hashtbl.replace t.failure_counts om n
        | None -> ());
        if Hashtbl.mem t.blacklist src_m then Hashtbl.replace t.blacklist om ();
        ( om,
          { osr_target = om;
            osr_live_ins = x.Ir.Osr.x_live_ins;
            osr_phis = x.Ir.Osr.x_phis } )
      in
      let refuse key =
        Hashtbl.replace t.osr_no key ();
        Osr_no
      in
      let below_cooldown key m b =
        match Hashtbl.find_opt t.osr_cooldown key with
        | Some gate -> Runtime.Profile.block_count vm.profiles m b < gate
        | None -> false
      in
      (* a failed continuation compile backs the site off in block counts,
         doubling with the continuation's failure count *)
      let arm_cooldown key m b om =
        let failures =
          match Hashtbl.find_opt t.failure_counts om with Some n -> n | None -> 1
        in
        Hashtbl.replace t.osr_cooldown key
          (Support.Sat.add
             (Runtime.Profile.block_count vm.profiles m b)
             (backoff_cooldown ~hotness:t.osr_threshold ~failures))
      in
      let enter (m, b) (tr : osr_transfer) =
        let om = tr.osr_target in
        t.osr_enters <- t.osr_enters + 1;
        Obs.Metrics.incr m_osr_enters;
        Obs.Trace.emit "osr_enter" (fun () ->
            Support.Json.
              [
                ("m", Int m);
                ("meth", String (meth_name m));
                ("header", Int b);
                ("count", Int (Runtime.Profile.block_count vm.profiles m b));
                ("osr_m", Int om);
                ("osr_meth", String (meth_name om));
              ]);
        Osr_enter tr
      in
      (* an interpreted frame crossed [osr_threshold] at block [b] of
         method [m]: extract-and-compile the loop continuation (once per
         site), then hand the transfer back. Every refusal is memoized —
         backend checkpoints stop consulting us — and every failure
         degrades to Osr_wait/Osr_no: the frame simply keeps
         interpreting. *)
      let on_osr (m : meth_id) (b : bid) : osr_verdict =
        let key = (m, b) in
        if t.compiling then Osr_wait
        else if Hashtbl.mem t.osr_no key then Osr_no
        else
          match (Ir.Program.meth prog m).body with
          | None -> refuse key
          | Some body ->
              if not (Ir.Loops.is_header (loops_for m body) b) then refuse key
              else (
                match Hashtbl.find_opt t.osr_sites key with
                | Some tr ->
                    let om = tr.osr_target in
                    (* async: a continuation produced earlier installs
                       once its simulated latency elapsed *)
                    (match Hashtbl.find_opt t.pending om with
                    | Some (obody, ready_at) when vm.cycles >= ready_at ->
                        Hashtbl.remove t.pending om;
                        install om obody (Ir.Fn.size obody)
                    | _ -> ());
                    if Hashtbl.mem t.code_cache om then enter key tr
                    else if Hashtbl.mem t.pending om then Osr_wait
                    else if Hashtbl.mem t.blacklist om then refuse key
                    else if
                      (match Hashtbl.find_opt t.recompile_counts om with
                      | Some n -> n
                      | None -> 0)
                      >= t.max_recompiles
                    then refuse key
                    else if below_cooldown key m b then Osr_wait
                    else begin
                      compile_occupying om;
                      if Hashtbl.mem t.code_cache om then enter key tr
                      else begin
                        arm_cooldown key m b om;
                        Osr_wait
                      end
                    end
                | None ->
                    let depth =
                      match Hashtbl.find_opt t.osr_meta m with
                      | Some o -> o.od_depth
                      | None -> 0
                    in
                    if depth >= max_osr_depth then refuse key
                    else if below_cooldown key m b then Osr_wait
                    else (
                      match
                        let x = Ir.Osr.extract_loop body ~header:b in
                        Ir.Verify.check x.Ir.Osr.x_fn;
                        x
                      with
                      | exception e when containable e -> refuse key
                      | x ->
                          let om, tr =
                            register_extraction ~src_m:m ~header:b
                              ~depth:(depth + 1) ~kind:"osr" x
                          in
                          Hashtbl.replace t.osr_sites key tr;
                          (* the inherited budget can already be spent:
                             a blacklisted parent's continuation never
                             compiles at all *)
                          if Hashtbl.mem t.blacklist om then refuse key
                          else begin
                            compile_occupying om;
                            if Hashtbl.mem t.code_cache om then enter key tr
                            else begin
                              arm_cooldown key m b om;
                              Osr_wait
                            end
                          end))
      in
      let exit_to m b (tr : osr_transfer) =
        t.osr_exits <- t.osr_exits + 1;
        Obs.Metrics.incr m_osr_exits;
        Obs.Trace.emit "osr_exit" (fun () ->
            Support.Json.
              [
                ("m", Int m);
                ("meth", String (meth_name m));
                ("header", Int b);
                ("reason", String "invalidate");
                ("osr_m", Int tr.osr_target);
              ]);
        Exit_to tr
      in
      (* a compiled frame saw the deopt epoch move at block [b]: if its
         code object is still the installed one, re-snapshot and keep
         going; if it is stale, transfer out into a freshly extracted
         *interpreted* continuation at the next loop header. Extraction
         failures memoize to Exit_stay — stale code is still correct
         code, it just stops being preferred. *)
      let on_osr_exit (m : meth_id) (src : fn) (b : bid) : osr_exit_verdict =
        match Hashtbl.find_opt t.code_cache m with
        | Some cur when cur == src -> Exit_stay
        | _ ->
            if not (Ir.Loops.is_header (loops_for m src) b) then Exit_watch
            else
              let key = (m, b) in
              let conts = try Hashtbl.find t.exit_conts key with Not_found -> [] in
              (match List.find_opt (fun (f, _) -> f == src) conts with
              | Some (_, Some tr) -> exit_to m b tr
              | Some (_, None) -> Exit_stay
              | None ->
                  let depth =
                    match Hashtbl.find_opt t.osr_meta m with
                    | Some o -> o.od_depth
                    | None -> 0
                  in
                  let cont =
                    if depth >= max_osr_depth then None
                    else
                      match
                        let x = Ir.Osr.extract_loop src ~header:b in
                        Ir.Verify.check x.Ir.Osr.x_fn;
                        x
                      with
                      | exception e when containable e -> None
                      | x ->
                          let _om, tr =
                            register_extraction ~src_m:m ~header:b
                              ~depth:(depth + 1) ~kind:"deopt" x
                          in
                          Some tr
                  in
                  Hashtbl.replace t.exit_conts key ((src, cont) :: conts);
                  (match cont with
                  | Some tr -> exit_to m b tr
                  | None -> Exit_stay))
      in
      (* a trap is unwinding out of an entered continuation: record the
         OSR-exit (the trap itself propagates unchanged — output parity
         with the no-OSR run is the exactness invariant) *)
      let on_osr_abort (om : meth_id) : unit =
        let src, b =
          match Hashtbl.find_opt t.osr_meta om with
          | Some o -> (o.od_src, o.od_bid)
          | None -> (om, -1)
        in
        t.osr_exits <- t.osr_exits + 1;
        Obs.Metrics.incr m_osr_exits;
        Obs.Trace.emit "osr_exit" (fun () ->
            Support.Json.
              [
                ("m", Int src);
                ("meth", String (meth_name src));
                ("header", Int b);
                ("reason", String "trap");
                ("osr_m", Int om);
              ])
      in
      if t.osr then begin
        vm.osr_threshold <- t.osr_threshold;
        vm.osr_exit_armed <- true;
        vm.on_osr <- on_osr;
        vm.on_osr_exit <- on_osr_exit;
        vm.on_osr_abort <- on_osr_abort;
        vm.osr_headers <-
          (fun m body b -> Ir.Loops.is_header (loops_for m body) b)
      end;
      vm.on_entry <-
        (fun m ->
          (* time-series sampling: one [None] match while detached *)
          sample_timeline t;
          (* serve mode: pump the background compiler — when it is idle
             and a request is waiting, service the highest-priority one.
             Requests that went stale while queued (installed via OSR,
             blacklisted, already pending) drop without occupying it. *)
          (match t.serve_queue with
          | None -> ()
          | Some q ->
              if not t.compiling then begin
                let rec pump () =
                  match Scheduler.pop q ~now:vm.cycles with
                  | None -> ()
                  | Some (qm, wait) ->
                      if
                        Hashtbl.mem t.code_cache qm
                        || Hashtbl.mem t.pending qm
                        || Hashtbl.mem t.blacklist qm
                      then pump ()
                      else begin
                        t.queue_waits <- wait :: t.queue_waits;
                        Obs.Metrics.observe m_queue_wait wait;
                        Obs.Trace.emit "serve_dequeue" (fun () ->
                            Support.Json.
                              [
                                ("m", Int qm);
                                ("meth", String (meth_name qm));
                                ("wait", Int wait);
                                ("depth", Int (Scheduler.length q));
                              ]);
                        compile_occupying qm
                      end
                in
                pump ()
              end);
          (* background compilations whose latency has elapsed install at
             the next entry of their method *)
          (match Hashtbl.find_opt t.pending m with
          | Some (body, ready_at) when vm.cycles >= ready_at ->
              Hashtbl.remove t.pending m;
              install m body (Ir.Fn.size body)
          | _ -> ());
          (* bounded cache: every entry of a resident method refreshes
             its retention (the LRU term of the eviction score) *)
          (match t.serve_cache with
          | None -> ()
          | Some cache ->
              if Hashtbl.mem t.code_cache m then
                Codecache.touch cache m ~now:vm.cycles);
          (* chaos: an invalidation storm throws away installed code, as a
             burst of spec misses would. Bounded by [max_recompiles] like
             real invalidations, so the engine still converges under
             rate=1.0 — after the cap the code stays installed. *)
          (if
             Support.Chaos.enabled ()
             && (not t.compiling)
             && Hashtbl.mem t.code_cache m
           then
             let recompiled =
               match Hashtbl.find_opt t.recompile_counts m with Some n -> n | None -> 0
             in
             if
               recompiled < t.max_recompiles
               && Support.Chaos.(roll Invalidation_storm)
             then begin
               Obs.Trace.emit "chaos" (fun () ->
                   Support.Json.
                     [
                       ( "fault",
                         String Support.Chaos.(fault_to_string Invalidation_storm) );
                       ("m", Int m);
                       ("meth", String (meth_name m));
                     ]);
               invalidate m ~misses:0 ~recompiled
             end);
          if
            (not t.compiling)
            && (not (Hashtbl.mem t.code_cache m))
            && (not (Hashtbl.mem t.pending m))
            && (not (Hashtbl.mem t.blacklist m))
            && (Ir.Program.meth prog m).body <> None
            &&
            let invocations = Runtime.Profile.invocation_count vm.profiles m in
            (invocations + 1 >= config.hotness_threshold
            (* backedge-driven hotness: a method whose loop crossed the
               OSR bar promotes at its next call even if its invocation
               count never will (the single-invocation blind spot) *)
            || (t.osr_threshold < max_int
               && Runtime.Profile.max_block_count vm.profiles m
                  >= t.osr_threshold))
            && invocations + 1
               >= (match Hashtbl.find_opt t.cooldown m with Some c -> c | None -> 0)
          then begin
            if not (Hashtbl.mem t.first_hot m) then
              Hashtbl.replace t.first_hot m vm.cycles;
            match t.serve_queue with
            | None -> compile_now m
            | Some q ->
                (* serve mode: hot methods request compilation instead of
                   compiling inline; admission control may shed the
                   request (or a cheaper waiting one), in which case the
                   method keeps interpreting and retries on later
                   entries with ever-growing hotness *)
                if not (Scheduler.mem q m) then begin
                  let hotness =
                    let inv = Runtime.Profile.invocation_count vm.profiles m + 1 in
                    let backedge =
                      if t.osr_threshold < max_int then
                        Runtime.Profile.max_block_count vm.profiles m / 64
                      else 0
                    in
                    max inv backedge
                  in
                  let shed v reason =
                    t.sheds <- t.sheds + 1;
                    Obs.Metrics.incr m_sheds;
                    Obs.Trace.emit "shed" (fun () ->
                        Support.Json.
                          [
                            ("m", Int v);
                            ("meth", String (meth_name v));
                            ("reason", String reason);
                            ("depth", Int (Scheduler.length q));
                          ])
                  in
                  let admitted () =
                    Obs.Metrics.incr m_enqueues;
                    Obs.Trace.emit "serve_enqueue" (fun () ->
                        Support.Json.
                          [
                            ("m", Int m);
                            ("meth", String (meth_name m));
                            ("hotness", Int hotness);
                            ("depth", Int (Scheduler.length q));
                          ])
                  in
                  match Scheduler.enqueue q ~meth:m ~hotness ~now:vm.cycles with
                  | Scheduler.Bumped -> ()
                  | Scheduler.Admitted -> admitted ()
                  | Scheduler.Displaced v ->
                      shed v "displaced";
                      admitted ()
                  | Scheduler.Rejected -> shed m "rejected"
                end
          end);
      vm.on_spec_miss <-
        (fun m _site ->
          if t.spec_miss_threshold < max_int && Hashtbl.mem t.code_cache m then begin
            let r =
              match Hashtbl.find_opt t.miss_counts m with
              | Some r -> r
              | None ->
                  let r = ref 0 in
                  Hashtbl.replace t.miss_counts m r;
                  r
            in
            incr r;
            let recompiled =
              match Hashtbl.find_opt t.recompile_counts m with Some n -> n | None -> 0
            in
            if !r >= t.spec_miss_threshold && recompiled < t.max_recompiles then
              (* drop the code, let the interpreter re-profile the shifted
                 receiver distribution, recompile later *)
              invalidate m ~misses:!r ~recompiled
          end))
  ;
  t

let run_main (t : t) : Runtime.Values.value = Runtime.Interp.run_main t.vm

let run_meth (t : t) (name : string) (args : Runtime.Values.value list) :
    Runtime.Values.value =
  Runtime.Interp.run_meth t.vm name args

let output (t : t) : string = Runtime.Interp.output t.vm

(* Total installed code size (the paper's Figure 10 / Table I metric). *)
let installed_code_size (t : t) : int =
  Hashtbl.fold (fun _ fn acc -> acc + Ir.Fn.size fn) t.code_cache 0

let installed_methods (t : t) : int = Hashtbl.length t.code_cache

(* Per-site inline-cache statistics (live + retired), for `selvm events`
   and the bench smoke's hit-rate reporting. *)
let ic_stats (t : t) : Runtime.Interp.ic_stat list = Runtime.Interp.ic_stats t.vm

let superinst_stats (t : t) : Runtime.Interp.sstat list =
  Runtime.Interp.superinst_stats t.vm

(* How the interpreted tier dispatches, for reports: the threaded tier's
   closure chains or the reference walker. *)
let dispatch_label (t : t) : string =
  match t.vm.backend with
  | Runtime.Interp.Threaded -> "threaded"
  | Runtime.Interp.Reference -> "walker"

(* Async-compilation accounting: a pending body whose method is never
   re-entered would otherwise stay invisible to [installed_code_size] and
   [compilations], under-reporting the Table I code-size metric. *)

let pending_methods (t : t) : int = Hashtbl.length t.pending

let pending_code_size (t : t) : int =
  Hashtbl.fold (fun _ (body, _) acc -> acc + Ir.Fn.size body) t.pending 0

(* Installs every pending compilation whose simulated latency has elapsed
   on the execution clock — a background compiler thread would have had
   them live; only the re-entry that normally triggers installation never
   happened. With [force], still-in-flight bodies install too. Returns the
   number installed. Call at end of run (the harness does) so code-size
   accounting matches what was actually compiled. *)
let flush_pending ?(force = false) (t : t) : int =
  let ready =
    Hashtbl.fold
      (fun m (body, ready_at) acc ->
        if force || t.vm.cycles >= ready_at then (m, body) :: acc else acc)
      t.pending []
    (* deterministic install order, so traces are run-to-run identical *)
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (m, body) ->
      Hashtbl.remove t.pending m;
      t.install_pending m body)
    ready;
  List.length ready

let compiled_body (t : t) (name : string) : fn option =
  match Ir.Program.find_meth t.vm.prog name with
  | Some m -> Hashtbl.find_opt t.code_cache m
  | None -> None

let blacklisted (t : t) (m : meth_id) : bool = Hashtbl.mem t.blacklist m

(* End-of-run gauges: point-in-time state the counters above cannot carry.
   Split from the counters so the caller decides when the snapshot is
   meaningful (the CLI takes it after the workload finishes). *)
let g_code_size = Obs.Metrics.gauge "jit.code_size"
let g_compiled_methods = Obs.Metrics.gauge "jit.compiled_methods"
let g_compile_cycles = Obs.Metrics.gauge "jit.compile_cycles"
let g_vm_cycles = Obs.Metrics.gauge "vm.cycles"
let g_vm_steps = Obs.Metrics.gauge "vm.steps"
let g_ic_sites = Obs.Metrics.gauge "ic.sites"
let g_ic_hits = Obs.Metrics.gauge "ic.hits"
let g_ic_misses = Obs.Metrics.gauge "ic.misses"
let g_ic_megamorphic = Obs.Metrics.gauge "ic.megamorphic"
let m_ic_hit_rate = Obs.Metrics.histogram "ic.site_hit_rate_pct"
let g_osr_methods = Obs.Metrics.gauge "osr.methods"
let g_superinst_patterns = Obs.Metrics.gauge "superinst.patterns"
let g_superinst_sites = Obs.Metrics.gauge "superinst.fused_sites"
let g_superinst_weight = Obs.Metrics.gauge "superinst.fused_weight"
let g_queue_depth = Obs.Metrics.gauge "serve.queue_depth"
let g_cache_used = Obs.Metrics.gauge "serve.cache_used"
let g_cache_resident = Obs.Metrics.gauge "serve.cache_resident"

let snapshot_metrics (t : t) : unit =
  Obs.Metrics.set g_code_size (installed_code_size t);
  Obs.Metrics.set g_compiled_methods (installed_methods t);
  Obs.Metrics.set g_compile_cycles t.compile_cycles;
  Obs.Metrics.set g_vm_cycles t.vm.cycles;
  Obs.Metrics.set g_vm_steps t.vm.steps;
  let stats = ic_stats t in
  Obs.Metrics.set g_ic_sites (List.length stats);
  let hits = ref 0 and misses = ref 0 and mega = ref 0 in
  List.iter
    (fun (s : Runtime.Interp.ic_stat) ->
      hits := !hits + s.st_hits;
      misses := !misses + s.st_misses;
      mega := !mega + s.st_mega;
      let dispatches = s.st_hits + s.st_misses + s.st_mega in
      if dispatches > 0 then
        Obs.Metrics.observe m_ic_hit_rate (100 * s.st_hits / dispatches))
    stats;
  Obs.Metrics.set g_ic_hits !hits;
  Obs.Metrics.set g_ic_misses !misses;
  Obs.Metrics.set g_ic_megamorphic !mega;
  (* the mined superinstruction table: aggregate gauges plus one gauge
     per pattern (deterministic for a given program + workload, so the
     export byte-compares across identical runs) *)
  let sstats = superinst_stats t in
  Obs.Metrics.set g_superinst_patterns (List.length sstats);
  let sites = ref 0 and weight = ref 0 in
  List.iter
    (fun (s : Runtime.Interp.sstat) ->
      sites := !sites + s.ss_sites;
      weight := !weight + s.ss_weight;
      Obs.Metrics.set
        (Obs.Metrics.gauge ("superinst.pattern." ^ s.ss_pattern))
        s.ss_sites)
    sstats;
  Obs.Metrics.set g_superinst_sites !sites;
  Obs.Metrics.set g_superinst_weight !weight;
  Obs.Metrics.set g_osr_methods (Hashtbl.length t.osr_meta);
  (match t.serve_queue with
  | Some q -> Obs.Metrics.set g_queue_depth (Scheduler.length q)
  | None -> ());
  match t.serve_cache with
  | Some c ->
      Obs.Metrics.set g_cache_used (Codecache.used c);
      Obs.Metrics.set g_cache_resident (Codecache.resident c)
  | None -> ()

let bailout_stats (t : t) : bailout_stats =
  {
    failed_attempts = List.length t.bailouts;
    failed_methods = Hashtbl.length t.failure_counts;
    blacklisted_methods =
      Hashtbl.fold (fun m () acc -> m :: acc) t.blacklist [] |> List.sort compare;
  }

(* End-of-run serving picture: shed/evict churn plus the two latency
   populations (queue waits of serviced requests, per-method time to
   peak), sorted ascending so percentile extraction is exact. *)
type serve_stats = {
  sv_sheds : int;
  sv_evictions : int;
  sv_queue_depth : int;        (* requests still waiting at end of run *)
  sv_cache_used : int;
  sv_cache_resident : int;
  sv_queue_waits : int list;   (* ascending *)
  sv_ttp : int list;           (* ascending *)
}

let serve_stats (t : t) : serve_stats =
  {
    sv_sheds = t.sheds;
    sv_evictions = List.length t.evictions;
    sv_queue_depth =
      (match t.serve_queue with Some q -> Scheduler.length q | None -> 0);
    sv_cache_used =
      (match t.serve_cache with
      | Some c -> Codecache.used c
      | None -> installed_code_size t);
    sv_cache_resident =
      (match t.serve_cache with
      | Some c -> Codecache.resident c
      | None -> installed_methods t);
    sv_queue_waits = List.sort compare t.queue_waits;
    sv_ttp = List.sort compare (List.map snd t.ttp);
  }
