(* The tiered execution engine: interpret, detect hotness, compile, install.

   This is the "stream of compilation requests" environment from the
   paper's online-inlining problem statement (Section II): methods start
   interpreted (collecting profiles); when a method's invocation count
   crosses the threshold it is handed to the configured [compiler] — the
   paper's algorithm, a baseline, or nothing — and the returned optimized
   body is written into the VM's installed-code slot for the method, where
   the interpreter picks it up at the next invocation.

   Compilation is synchronous but its simulated cost is metered on a
   separate clock ([compile_cycles]), mirroring a background compiler
   thread that does not stall the mutator. The one model of that thread's
   occupancy is the serve queue's busy window ([Scheduler]); without a
   queue a produced body installs at once.

   The engine is plain functions over the explicit state record [t]:
   [create] allocates it and wires the VM hooks ([on_entry],
   [on_spec_miss], [on_osr], [on_osr_exit], [on_osr_abort],
   [osr_headers]) to the functions below, and every report renders from
   one [stats] snapshot. Per-method state is one record per method in a
   dense array ([meths]), so the entry hook — which runs at every
   invocation — reads fields instead of probing hash tables. *)

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

(* Invalidations (speculation misses or chaos storms) a method may take;
   after that its code stays installed for good. *)
let max_recompiles = 2

(* Failed compile attempts before a method is blacklisted: permanently
   interpreted, so a deterministic compiler bug costs a bounded number
   of compile cycles. *)
let max_compile_failures = 3

(* Extraction generations of OSR continuations (an exit continuation of
   an enter continuation is depth 2), so invalidate/re-enter cycles
   cannot mint methods forever. *)
let max_osr_depth = 3

(* Engine instruments (registered once; recording is a no-op while
   [Obs.Metrics] is disabled, keeping the hot path clean). *)
let m_compiles = Obs.Metrics.counter "jit.compiles"
let m_installs = Obs.Metrics.counter "jit.installs"
let m_invalidations = Obs.Metrics.counter "jit.invalidations"
let m_bailouts = Obs.Metrics.counter "jit.compile_bailouts"
let m_blacklisted = Obs.Metrics.counter "jit.blacklisted"
let m_compile_latency = Obs.Metrics.histogram "jit.compile_latency_cycles"
let m_osr_enters = Obs.Metrics.counter "osr.enters"
let m_osr_exits = Obs.Metrics.counter "osr.exits"
let m_enqueues = Obs.Metrics.counter "serve.enqueues"
let m_sheds = Obs.Metrics.counter "serve.sheds"
let m_evictions = Obs.Metrics.counter "serve.evictions"
let m_queue_wait = Obs.Metrics.histogram "serve.queue_wait_cycles"
let m_ttp = Obs.Metrics.histogram "serve.time_to_peak_cycles"

(* Where a synthetic OSR continuation came from: the source method, the
   loop header it was extracted at, and its extraction generation. *)
type osr_origin = { od_src : meth_id; od_bid : bid; od_depth : int }

(* What the engine knows about one method beyond its installed code (which
   lives in the VM's slot). Every count starts at 0. *)
type meth_state = {
  mutable blacklisted : bool;
  (* permanently interpreted: [max_compile_failures] failed attempts *)
  mutable failures : int;    (* failed compile attempts; backoff doubles per failure *)
  mutable recompiles : int;  (* invalidations taken, capped by [max_recompiles] *)
  mutable cooldown : int;    (* invocation count gating (re)compilation *)
  mutable misses : int;
  (* speculation misses (typeswitch fallbacks run in compiled code)
     against the current code; past the threshold the code is thrown away
     and the method re-profiles before recompiling *)
  mutable evicts : int;
  (* cache evictions: drives the re-hot backoff, so a cache-thrashing
     method converges to the interpreted tier instead of churning *)
  mutable first_hot : int;   (* first hot trigger at [vm.cycles]; -1: never *)
  mutable time_to_peak : int;
  (* cycles from [first_hot] to the first install (includes queue wait);
     -1: none yet *)
  mutable origin : osr_origin option;  (* [Some] for a synthetic continuation *)
}

(* One OSR site, a loop header of a method, as both directions see it. *)
type osr_site = {
  mutable enter : Runtime.Interp.osr_transfer option;
  (* the registered enter transfer; one per site, ever *)
  mutable refused : bool;  (* memoized refusal of the enter direction *)
  mutable gate : int;      (* block count gating the next enter/compile attempt *)
  mutable exits : (fn * Runtime.Interp.osr_transfer option) list;
  (* exit continuations keyed by the physical stale body; [None] memoizes
     "not extractable — keep running stale code" *)
}

type t = {
  vm : Runtime.Interp.vm;
  config : config;
  mutable meths : meth_state array;
  (* indexed by meth_id, grown on demand ([state]) *)
  mutable compiling : bool;
  mutable compile_cycles : int;
  mutable compilations : compilation list;  (* most recent first *)
  spec_miss_threshold : int;
  mutable invalidations : (meth_id * int) list;  (* method, at_cycles *)
  mutable bailouts : bailout list;          (* contained compile failures, most recent first *)
  (* optional per-compilation watchdog budget (Support.Fuel checkpoints);
     None: unlimited *)
  compile_fuel : int option;
  (* --- on-stack replacement (the long-running-loop path) --- *)
  osr_threshold : int;
  (* block (≈ backedge) count that makes a loop hot: OSR-enters an
     interpreted frame mid-invocation and, folded into [on_entry]'s
     trigger, promotes a single-invocation hot-loop method at its next
     call. Finite even when OSR is off (the trigger fix stands alone). *)
  osr_sites : (meth_id * bid, osr_site) Hashtbl.t;  (* by (method, header) *)
  loop_cache : (meth_id, (fn * Ir.Loops.t) list) Hashtbl.t;
  (* loop forests per method, matched by physical body (a method has at
     most a handful of live bodies: interpreted, installed, stale) *)
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
  serve_cache : Codecache.t option;
  mutable evictions : int;
  mutable sheds : int;             (* compile requests shed by admission control *)
  mutable queue_waits : int list;  (* serviced requests' waits, most recent first *)
  mutable timeline : timeline option;
  (* time-series sampling; [None] (default) costs one match per entry *)
}

and timeline = {
  tl_sink : Obs.Timeline.t;
  tl_source : string;            (* tenant id, or a run label *)
  mutable tl_due : int;          (* next sample at [vm.cycles >= tl_due] *)
}

(* A loop is OSR-hot well before this many header visits in one
   invocation would have crossed the invocation-hotness bar; 64 iterations
   per crossing keeps ordinary short loops promoting through the normal
   per-call trigger. *)
let default_osr_threshold (config : config) : int =
  if config.hotness_threshold > max_int / 64 then max_int
  else max 1 (config.hotness_threshold * 64)

let fresh_state () : meth_state =
  { blacklisted = false; failures = 0; recompiles = 0; cooldown = 0; misses = 0;
    evicts = 0; first_hot = -1; time_to_peak = -1; origin = None }

(* [m]'s record. Methods can be added after the engine was created (OSR
   continuations, tests), so the table grows on demand. *)
let state (t : t) (m : meth_id) : meth_state =
  let n = Array.length t.meths in
  if m < n then t.meths.(m)
  else begin
    let grow i = if i < n then t.meths.(i) else fresh_state () in
    let meths = Array.init (max (m + 1) (2 * n)) grow in
    t.meths <- meths;
    meths.(m)
  end

let installed (t : t) (m : meth_id) : bool =
  Option.is_some (Runtime.Interp.installed t.vm m)

(* ---------- the one stats view ---------- *)

(* Total installed code size (the paper's Figure 10 / Table I metric). *)
let installed_code_size (t : t) : int =
  Array.fold_left
    (fun acc code -> match code with Some fn -> acc + Ir.Fn.size fn | None -> acc)
    0 t.vm.installed

let installed_methods (t : t) : int =
  Array.fold_left (fun acc code -> if Option.is_some code then acc + 1 else acc)
    0 t.vm.installed

type stats = {
  steps : int;
  cycles : int;
  compile_cycles : int;
  installs : int;
  compiled : int;
  code_size : int;
  invalidations : int;
  failed_attempts : int;
  failed_methods : int;
  blacklisted_methods : meth_id list;  (* ascending *)
  osr_enters : int;
  osr_exits : int;
  osr_methods : int;
  sheds : int;
  evictions : int;
  evict_max : int;
  queue_depth : int;
  cache_used : int;
  cache_resident : int;
  queue_waits : int list;  (* ascending *)
  ttp : int list;          (* ascending *)
}

(* Every engine report — timeline rows, metrics gauges, the serve report
   and fleet rows, the harness run, `selvm --stats` — renders from this
   snapshot. With the cache unbounded, cache residency is the installed
   code itself. *)
let stats (t : t) : stats =
  let code_size = installed_code_size t and compiled = installed_methods t in
  {
    steps = t.vm.steps;
    cycles = t.vm.cycles;
    compile_cycles = t.compile_cycles;
    installs = List.length t.compilations;
    compiled;
    code_size;
    invalidations = List.length t.invalidations;
    failed_attempts = List.length t.bailouts;
    failed_methods =
      Array.fold_left (fun acc st -> if st.failures > 0 then acc + 1 else acc) 0 t.meths;
    blacklisted_methods =
      List.filter (fun m -> t.meths.(m).blacklisted) (List.init (Array.length t.meths) Fun.id);
    osr_enters = t.osr_enters;
    osr_exits = t.osr_exits;
    osr_methods =
      Array.fold_left (fun acc st -> if Option.is_some st.origin then acc + 1 else acc)
        0 t.meths;
    sheds = t.sheds;
    evictions = t.evictions;
    evict_max = Array.fold_left (fun acc st -> max acc st.evicts) 0 t.meths;
    queue_depth = (match t.serve_queue with Some q -> Scheduler.length q | None -> 0);
    cache_used = (match t.serve_cache with Some c -> Codecache.used c | None -> code_size);
    cache_resident =
      (match t.serve_cache with Some c -> Codecache.resident c | None -> compiled);
    queue_waits = List.sort compare t.queue_waits;
    ttp =
      List.sort compare
        (Array.fold_left
           (fun acc st -> if st.time_to_peak >= 0 then st.time_to_peak :: acc else acc)
           [] t.meths);
  }

let bailout_stats = stats

(* The flat gauge snapshot a timeline sample carries. Field names are a
   public schema (docs/OBSERVABILITY.md) — the SLO detectors key on
   "invalidations", "sheds" and "evict_max". *)
let timeline_fields (t : t) : (string * Support.Json.t) list =
  let s = stats t in
  Support.Json.
    [
      ("steps", Int s.steps);
      ("compiled", Int s.compiled);
      ("blacklisted", Int (List.length s.blacklisted_methods));
      ("code_size", Int s.code_size);
      ("compiles", Int s.installs);
      ("compile_cycles", Int s.compile_cycles);
      ("invalidations", Int s.invalidations);
      ("bailouts", Int s.failed_attempts);
      ("osr_enters", Int s.osr_enters);
      ("osr_exits", Int s.osr_exits);
      ("sheds", Int s.sheds);
      ("evictions", Int s.evictions);
      ("evict_max", Int s.evict_max);
      ("queue_depth", Int s.queue_depth);
      ("cache_used", Int s.cache_used);
      ("cache_resident", Int s.cache_resident);
    ]

(* The per-entry sampling check: one [None] match while no timeline is
   attached. When a sample is due, snapshot the gauges and stream the
   row; the SLO detectors read the rows offline ([Obs.Slo.check_file]). *)
let sample_timeline ?(force = false) (t : t) : unit =
  match t.timeline with
  | None -> ()
  | Some tl ->
      if force || t.vm.cycles >= tl.tl_due then begin
        let cycles = t.vm.cycles in
        Obs.Timeline.sample tl.tl_sink ~source:tl.tl_source ~cycles
          (timeline_fields t);
        tl.tl_due <- cycles + Obs.Timeline.interval tl.tl_sink
      end

(* Arms sampling; the first sample lands at the next method entry (a
   baseline row), then every [Obs.Timeline.interval] cycles. *)
let attach_timeline (t : t) ~(source : string) (sink : Obs.Timeline.t) : unit =
  t.timeline <- Some { tl_sink = sink; tl_source = source; tl_due = t.vm.cycles }

(* ---------- shared reads ---------- *)

let meth_name (t : t) (m : meth_id) : string = (Ir.Program.meth t.vm.prog m).m_name

(* A trace event about method [m]: its id and name lead the fields. *)
let emit (t : t) (ev : string) (m : meth_id)
    (fields : unit -> (string * Support.Json.t) list) : unit =
  Obs.Trace.emit ev (fun () ->
      Support.Json.(("m", Int m) :: ("meth", String (meth_name t m)) :: fields ()))

(* An injected fault, traced before it takes effect. *)
let emit_chaos (t : t) (m : meth_id) (fault : Support.Chaos.fault) : unit =
  Obs.Trace.emit "chaos" (fun () ->
      Support.Json.
        [
          ("fault", String (Support.Chaos.fault_to_string fault));
          ("m", Int m);
          ("meth", String (meth_name t m));
        ])

let invocations (t : t) (m : meth_id) : int =
  Runtime.Profile.invocation_count t.vm.profiles m

let block_count (t : t) (m : meth_id) (b : bid) : int =
  Runtime.Profile.block_count t.vm.profiles m b

(* Whether [m] may still be invalidated: past [max_recompiles] its code
   stays installed, so speculation and chaos storms converge. *)
let can_recompile (t : t) (m : meth_id) : bool =
  (state t m).recompiles < max_recompiles

(* Installed or never to compile again: a hot trigger or a queued
   request for [m] has nothing left to do. *)
let settled (t : t) (m : meth_id) : bool = installed t m || (state t m).blacklisted

(* ---------- install and retire ---------- *)

(* The OSR site of [key], a (method, loop header), created on first use. *)
let site (t : t) (key : meth_id * bid) : osr_site =
  match Hashtbl.find_opt t.osr_sites key with
  | Some s -> s
  | None ->
      let s = { enter = None; refused = false; gate = 0; exits = [] } in
      Hashtbl.replace t.osr_sites key s;
      s

(* The one retire path, shared by cache eviction and invalidation: drop
   [m]'s installed code, send it back to the interpreted tier with a
   clean miss slate, and gate its recompilation [cooldown] invocations
   out. Running compiled frames of [m] now run stale code, which they
   see at their next loop header (and, with OSR armed, take the OSR-exit
   path); a synthetic continuation additionally backs its enter site off
   so the loop does not thrash re-entering. *)
let retire (t : t) (m : meth_id) ~(cooldown : int) : unit =
  Runtime.Interp.set_installed t.vm m None;
  let st = state t m in
  st.misses <- 0;
  st.cooldown <- Support.Sat.add (invocations t m) cooldown;
  match st.origin with
  | Some o ->
      (site t (o.od_src, o.od_bid)).gate <-
        Support.Sat.add (block_count t o.od_src o.od_bid) t.osr_threshold
  | None -> ()

(* Bounded-cache retirement. Capacity pressure, not a speculation
   failure: it consumes no [max_recompiles] budget; instead the victim's
   recompilation gate backs off per eviction, so a method the cache
   cannot hold converges to the interpreted tier instead of churning. *)
let evict (t : t) (v : meth_id) : unit =
  let size =
    match Runtime.Interp.installed t.vm v with Some fn -> Ir.Fn.size fn | None -> 0
  in
  let st = state t v in
  let evicted = st.evicts + 1 in
  st.evicts <- evicted;
  retire t v
    ~cooldown:(backoff_cooldown ~hotness:t.config.hotness_threshold ~failures:evicted);
  t.evictions <- t.evictions + 1;
  Obs.Metrics.incr m_evictions;
  Runtime.Interp.record_evict t.vm v;
  emit t "evict" v (fun () -> Support.Json.[ ("size", Int size); ("evicts", Int evicted) ])

(* A speculation failure (spec misses, or a chaos invalidation storm):
   the method re-profiles for [hotness_threshold] invocations, then
   recompiles against the new profile. *)
let invalidate (t : t) (m : meth_id) ~(misses : int) : unit =
  (match t.serve_cache with Some cache -> Codecache.remove cache m | None -> ());
  let st = state t m in
  let recompiles = st.recompiles + 1 in
  st.recompiles <- recompiles;
  retire t m ~cooldown:t.config.hotness_threshold;
  t.invalidations <- (m, t.vm.cycles) :: t.invalidations;
  Obs.Metrics.incr m_invalidations;
  Runtime.Interp.record_deopt t.vm m;
  emit t "invalidate" m (fun () ->
      Support.Json.[ ("misses", Int misses); ("recompiles", Int recompiles) ])

let install (t : t) (m : meth_id) (body : fn) : unit =
  let size = Ir.Fn.size body in
  (* the tier for this method changed: this also empties its code slot *)
  Runtime.Interp.set_installed t.vm m (Some body);
  let st = state t m in
  (* a fresh body starts with a clean speculation slate: misses recorded
     against the previous code version must not count toward the new
     body's invalidation threshold *)
  st.misses <- 0;
  t.compilations <- { cm = m; size; at_cycles = t.vm.cycles } :: t.compilations;
  (* ramp accounting: cycles from the method's first hot-trigger to its
     first install (covers queue wait) *)
  if st.first_hot >= 0 && st.time_to_peak < 0 then begin
    let d = Support.Sat.sub t.vm.cycles st.first_hot in
    st.time_to_peak <- d;
    Obs.Metrics.observe m_ttp d
  end;
  Obs.Metrics.incr m_installs;
  emit t "install" m (fun () -> Support.Json.[ ("size", Int size) ]);
  (* bounded cache: admit the fresh body, then retire whatever no longer
     fits (under a tiny budget that can be the fresh body itself — the
     install/evict pair keeps the trace honest) *)
  match t.serve_cache with
  | None -> ()
  | Some cache ->
      List.iter (evict t) (Codecache.install cache ~meth:m ~size ~now:t.vm.cycles)

(* ---------- the compile pipeline ---------- *)

(* Shared by the invocation-hotness trigger, the serve queue and the OSR
   machinery (which compiles extracted loop continuations through exactly
   the same chaos / fuel / bailout / blacklist path). *)

let inject (t : t) (m : meth_id) (fault : Support.Chaos.fault) : 'a =
  emit_chaos t m fault;
  raise (Support.Chaos.Injected fault)

(* One compile attempt under the ambient chaos plan: a compiler crash
   before any work, or a verifier reject of the finished body, surface
   as contained exceptions on the bailout path. *)
let attempt (t : t) (m : meth_id) () : fn =
  if Support.Chaos.(roll Compiler_crash) then inject t m Support.Chaos.Compiler_crash;
  let body =
    match t.config.compiler with
    | Some compile -> compile t.vm.prog t.vm.profiles m
    | None -> invalid_arg "Engine: no compiler configured"
  in
  if Support.Chaos.(roll Verifier_reject) then inject t m Support.Chaos.Verifier_reject;
  if t.config.verify then Ir.Verify.check body;
  body

let failure_reason : exn -> string = function
  | Ir.Verify.Ill_formed msg -> "verify: " ^ msg
  | Support.Fuel.Exhausted -> "fuel exhausted"
  | Support.Chaos.Injected f -> "chaos: " ^ Support.Chaos.fault_to_string f
  | Failure msg -> msg
  | e -> Printexc.to_string e

(* The compilation died; the method stays interpreted (and keeps
   profiling). Charge the cycles the dead attempt burned, back off
   exponentially, and at the failure cap blacklist the method so a
   deterministic compiler bug stops consuming compile cycles. *)
let bail_out (t : t) (m : meth_id) (reason : string) : unit =
  let input_size =
    match (Ir.Program.meth t.vm.prog m).body with Some fn -> Ir.Fn.size fn | None -> 0
  in
  let charged = input_size * t.config.compile_cost_per_node in
  t.compile_cycles <- t.compile_cycles + charged;
  let st = state t m in
  let failures = st.failures + 1 in
  st.failures <- failures;
  let blacklisted = failures >= max_compile_failures in
  if blacklisted then st.blacklisted <- true
  else
    (* exponential backoff: the retry gate doubles with every failure,
       measured in invocations past the current count (saturating — see
       [backoff_cooldown]) *)
    st.cooldown <-
      Support.Sat.add (invocations t m)
        (backoff_cooldown ~hotness:t.config.hotness_threshold ~failures);
  t.bailouts <-
    { bm = m; reason; at_cycles = t.vm.cycles; failures; charged; blacklisted }
    :: t.bailouts;
  Obs.Metrics.incr m_bailouts;
  if blacklisted then Obs.Metrics.incr m_blacklisted;
  emit t "compile_bailout" m (fun () ->
      Support.Json.
        [
          ("reason", String reason);
          ("failures", Int failures);
          ("charged", Int charged);
          ("blacklisted", Bool blacklisted);
        ])

(* A produced body: charge its latency and install it. *)
let produced (t : t) (m : meth_id) (body : fn) : unit =
  let size = Ir.Fn.size body in
  let latency = size * t.config.compile_cost_per_node in
  t.compile_cycles <- t.compile_cycles + latency;
  Obs.Metrics.incr m_compiles;
  Obs.Metrics.observe m_compile_latency latency;
  emit t "compile_done" m (fun () ->
      Support.Json.
        [ ("size", Int size); ("latency", Int latency) ]);
  install t m body

(* Every serviced compilation occupies the one background compiler for
   the compile cycles it charged — OSR continuation compiles bypass queue
   admission (the transfer decision is synchronous) but still occupy
   that compiler, so a loop promotion delays queued work exactly as it
   would on a real thread. *)
let compile (t : t) (m : meth_id) : unit =
  let before = t.compile_cycles in
  t.compiling <- true;
  Fun.protect
    ~finally:(fun () -> t.compiling <- false)
    (fun () ->
      emit t "compile_start" m (fun () ->
          Support.Json.[ ("invocations", Int (invocations t m)) ]);
      (* chaos decides a starved watchdog budget before the attempt; the
         per-attempt budget (a serve deadline is one) otherwise caps it.
         Exhaustion is a normal bailout: charged, backed off, eventually
         blacklisted. *)
      let fuel =
        if Support.Chaos.(roll Fuel_exhaustion) then Some (Support.Chaos.starved_fuel ())
        else t.compile_fuel
      in
      match
        match fuel with
        | None -> attempt t m ()
        | Some n -> Support.Fuel.with_budget n (attempt t m)
      with
      | exception e when containable e -> bail_out t m (failure_reason e)
      | body -> produced t m body);
  match t.serve_queue with
  | Some q ->
      Scheduler.occupy q ~until:(Support.Sat.add t.vm.cycles (t.compile_cycles - before))
  | None -> ()

(* ---------- on-stack replacement ---------- *)

(* Loop forests per (method, physical body). *)
let loops_for (t : t) (m : meth_id) (body : fn) : Ir.Loops.t =
  let cached = Option.value ~default:[] (Hashtbl.find_opt t.loop_cache m) in
  match List.find_opt (fun (f, _) -> f == body) cached with
  | Some (_, li) -> li
  | None ->
      let li = Ir.Loops.compute body in
      (* installed and prepared bodies keep no cached analyses *)
      Ir.Fn.drop_analyses body;
      Hashtbl.replace t.loop_cache m ((body, li) :: List.filteri (fun i _ -> i < 3) cached);
      li

(* VM hook: which blocks of [body] get OSR checkpoint guards. *)
let osr_headers (t : t) (m : meth_id) (body : fn) (b : bid) : bool =
  Ir.Loops.is_header (loops_for t m body) b

(* Registers an extracted continuation as a first-class method of the
   program — compiled, profiled, invalidated and blacklisted by the very
   same machinery as source methods — and seeds its block profile from
   the source's, so the inliner sees the loop as hot as it really is.
   The program outlives the engine, so a name an earlier engine's
   continuation took on it is skipped. *)
let register_extraction (t : t) ~(src_m : meth_id) ~(header : bid) ~(depth : int)
    ~(kind : string) (x : Ir.Osr.extraction) : Runtime.Interp.osr_transfer =
  let prog = t.vm.prog in
  let rec fresh_name () =
    t.osr_uid <- t.osr_uid + 1;
    let name = Printf.sprintf "%s@%s%d.b%d" (meth_name t src_m) kind t.osr_uid header in
    if Ir.Program.find_meth prog name = None then name else fresh_name ()
  in
  let name = fresh_name () in
  let om =
    Ir.Program.add_meth prog ~name ~selector:name ~owner:None
      ~param_tys:x.Ir.Osr.x_fn.param_tys ~rty:x.Ir.Osr.x_fn.rty
  in
  Ir.Program.set_body prog om x.Ir.Osr.x_fn;
  Ir.Fn.iter_blocks
    (fun b ->
      let n = block_count t src_m b.b_id in
      if n > 0 then begin
        let c = Runtime.Profile.block_cell t.vm.profiles om b.b_id in
        c := !c + n
      end)
    x.Ir.Osr.x_fn;
  (* the continuation inherits its parent's failure budget: a method that
     is backing off or blacklisted must not get a fresh budget by way of
     extraction — before this, a blacklisted method could keep burning
     compile fuel through its synthetic continuations *)
  let src = state t src_m and st = state t om in
  st.origin <- Some { od_src = src_m; od_bid = header; od_depth = depth };
  st.failures <- src.failures;
  st.blacklisted <- src.blacklisted;
  { osr_target = om; osr_live_ins = x.Ir.Osr.x_live_ins; osr_phis = x.Ir.Osr.x_phis }

(* The continuation of [body]'s loop at header [b], extracted, verified
   and registered; [None] past [max_osr_depth] or when extraction fails.
   Shared by the enter (kind "osr") and exit (kind "deopt") directions. *)
let continuation (t : t) ~(kind : string) (m : meth_id) (body : fn) (b : bid) :
    Runtime.Interp.osr_transfer option =
  let depth = match (state t m).origin with Some o -> o.od_depth | None -> 0 in
  if depth >= max_osr_depth then None
  else
    match
      let x = Ir.Osr.extract_loop body ~header:b in
      Ir.Verify.check x.Ir.Osr.x_fn;
      x
    with
    | exception e when containable e -> None
    | x -> Some (register_extraction t ~src_m:m ~header:b ~depth:(depth + 1) ~kind x)

let refuse (s : osr_site) : Runtime.Interp.osr_verdict =
  s.refused <- true;
  Osr_no

let below_gate (t : t) ((m, b) : meth_id * bid) (s : osr_site) : bool =
  block_count t m b < s.gate

let enter (t : t) ((m, b) : meth_id * bid) (tr : Runtime.Interp.osr_transfer) :
    Runtime.Interp.osr_verdict =
  let om = tr.osr_target in
  t.osr_enters <- t.osr_enters + 1;
  Obs.Metrics.incr m_osr_enters;
  emit t "osr_enter" m (fun () ->
      Support.Json.
        [
          ("header", Int b);
          ("count", Int (block_count t m b));
          ("osr_m", Int om);
          ("osr_meth", String (meth_name t om));
        ]);
  Osr_enter tr

(* Compile the continuation, then enter it, or — compile failed — back
   the site off in block counts, doubling with the continuation's failure
   count. *)
let compile_and_enter (t : t) ((m, b) as key : meth_id * bid) (s : osr_site)
    (tr : Runtime.Interp.osr_transfer) : Runtime.Interp.osr_verdict =
  let om = tr.osr_target in
  compile t om;
  if installed t om then enter t key tr
  else begin
    let failures = max 1 (state t om).failures in
    s.gate <-
      Support.Sat.add (block_count t m b)
        (backoff_cooldown ~hotness:t.osr_threshold ~failures);
    Osr_wait
  end

(* VM hook: an interpreted frame crossed [osr_threshold] at block [b] of
   method [m]: extract-and-compile the loop continuation (once per site),
   then hand the transfer back. Every refusal is memoized — backend
   checkpoints stop consulting us — and every failure degrades to
   Osr_wait/Osr_no: the frame simply keeps interpreting. *)
let on_osr (t : t) (m : meth_id) (b : bid) : Runtime.Interp.osr_verdict =
  let key = (m, b) in
  if t.compiling then Osr_wait
  else
    let s = site t key in
    match (Ir.Program.meth t.vm.prog m).body with
    | _ when s.refused -> Osr_no
    | Some body when osr_headers t m body b -> (
        match s.enter with
        | Some tr ->
            let om = tr.osr_target in
            if installed t om then enter t key tr
            else if (state t om).blacklisted || not (can_recompile t om) then refuse s
            else if below_gate t key s then Osr_wait
            else compile_and_enter t key s tr
        | None -> (
            (* a site only ever has a gate once a continuation was
               extracted at it, i.e. below the depth cap, so this check
               may precede [continuation]'s cap check *)
            if below_gate t key s then Osr_wait
            else
              match continuation t ~kind:"osr" m body b with
              | None -> refuse s
              | Some tr ->
                  s.enter <- Some tr;
                  (* the inherited budget can already be spent: a
                     blacklisted parent's continuation never compiles *)
                  if (state t tr.osr_target).blacklisted then refuse s
                  else compile_and_enter t key s tr))
    | _ -> refuse s

(* Every OSR exit — an invalidated frame transferring out, or a trap
   unwinding out of an entered continuation — is counted and traced
   here. *)
let osr_exit (t : t) ~(src : meth_id) ~(header : bid) ~(reason : string) (om : meth_id) :
    unit =
  t.osr_exits <- t.osr_exits + 1;
  Obs.Metrics.incr m_osr_exits;
  emit t "osr_exit" src (fun () ->
      Support.Json.[ ("header", Int header); ("reason", String reason); ("osr_m", Int om) ])

(* VM hook: a compiled frame of [m] running [src], which is no longer
   [m]'s installed code, reached block [b]. At a loop header, transfer it
   into an *interpreted* continuation of [src] extracted there (once per
   stale body and header). Elsewhere, and when extraction fails, [None]:
   stale code is still correct code, it just stops being preferred. *)
let on_osr_exit (t : t) (m : meth_id) (src : fn) (b : bid) :
    Runtime.Interp.osr_transfer option =
  if not (osr_headers t m src b) then None
  else
    let s = site t (m, b) in
    let cont =
      match List.find_opt (fun (f, _) -> f == src) s.exits with
      | Some (_, cont) -> cont
      | None ->
          let cont = continuation t ~kind:"deopt" m src b in
          s.exits <- (src, cont) :: s.exits;
          cont
    in
    Option.iter
      (fun (tr : Runtime.Interp.osr_transfer) ->
        osr_exit t ~src:m ~header:b ~reason:"invalidate" tr.osr_target)
      cont;
    cont

(* VM hook: a trap is unwinding out of an entered continuation. Record
   the OSR-exit; the trap itself propagates unchanged — output parity
   with the no-OSR run is the exactness invariant. *)
let on_osr_abort (t : t) (om : meth_id) : unit =
  let src, header =
    match (state t om).origin with Some o -> (o.od_src, o.od_bid) | None -> (om, -1)
  in
  osr_exit t ~src ~header ~reason:"trap" om

(* ---------- method entry ---------- *)

(* Serve mode: when the background compiler is idle and a request is
   waiting, service the highest-priority one. Requests that went stale
   while queued drop without occupying it. *)
let rec pump (t : t) (q : meth_id Scheduler.t) : unit =
  match Scheduler.pop q ~now:t.vm.cycles with
  | None -> ()
  | Some (qm, _) when settled t qm -> pump t q
  | Some (qm, wait) ->
      t.queue_waits <- wait :: t.queue_waits;
      Obs.Metrics.observe m_queue_wait wait;
      emit t "serve_dequeue" qm (fun () ->
          Support.Json.[ ("wait", Int wait); ("depth", Int (Scheduler.length q)) ]);
      compile t qm

let shed (t : t) (q : meth_id Scheduler.t) (v : meth_id) (reason : string) : unit =
  t.sheds <- t.sheds + 1;
  Obs.Metrics.incr m_sheds;
  emit t "shed" v (fun () ->
      Support.Json.[ ("reason", String reason); ("depth", Int (Scheduler.length q)) ])

let enqueued (t : t) (q : meth_id Scheduler.t) (m : meth_id) (hotness : int) : unit =
  Obs.Metrics.incr m_enqueues;
  emit t "serve_enqueue" m (fun () ->
      Support.Json.[ ("hotness", Int hotness); ("depth", Int (Scheduler.length q)) ])

(* Serve mode: a hot method requests compilation instead of compiling
   inline; admission control may shed the request (or a cheaper waiting
   one), in which case the method keeps interpreting and retries on
   later entries with ever-growing hotness. A request already waiting is
   left as it was admitted. *)
let request (t : t) (q : meth_id Scheduler.t) (m : meth_id) : unit =
  let hotness =
    let backedge =
      if t.osr_threshold < max_int then
        Runtime.Profile.max_block_count t.vm.profiles m / 64
      else 0
    in
    max (invocations t m + 1) backedge
  in
  match Scheduler.enqueue q ~meth:m ~hotness ~now:t.vm.cycles with
  | Scheduler.Waiting -> ()
  | Scheduler.Admitted -> enqueued t q m hotness
  | Scheduler.Displaced v ->
      shed t q v "displaced";
      enqueued t q m hotness
  | Scheduler.Rejected -> shed t q m "rejected"

(* The hotness trigger: invocation count crossing the threshold, or
   backedge-driven hotness — a method whose loop crossed the OSR bar
   promotes at its next call even if its invocation count never will
   (the single-invocation blind spot) — past any backoff cooldown. *)
let wants_compile (t : t) (m : meth_id) : bool =
  (not t.compiling)
  && (not (settled t m))
  && Option.is_some (Ir.Program.meth t.vm.prog m).body
  &&
  let invocations = invocations t m + 1 in
  (invocations >= t.config.hotness_threshold
  || (t.osr_threshold < max_int
     && Runtime.Profile.max_block_count t.vm.profiles m >= t.osr_threshold))
  && invocations >= (state t m).cooldown

(* VM hook, at every method entry. *)
let on_entry (t : t) (m : meth_id) : unit =
  (* time-series sampling: one [None] match while detached *)
  sample_timeline t;
  (match t.serve_queue with Some q when not t.compiling -> pump t q | _ -> ());
  (* bounded cache: every entry of a resident method refreshes its
     retention (the LRU term of the eviction score); with a bounded cache
     a method is resident exactly while it is installed *)
  (match t.serve_cache with
  | Some cache -> Codecache.touch cache m ~now:t.vm.cycles
  | None -> ());
  (* chaos: an invalidation storm throws away installed code, as a burst
     of spec misses would. Bounded by [max_recompiles] like real
     invalidations, so the engine still converges under rate=1.0 — after
     the cap the code stays installed. *)
  if
    Support.Chaos.enabled ()
    && (not t.compiling)
    && installed t m
    && can_recompile t m
    && Support.Chaos.(roll Invalidation_storm)
  then begin
    emit_chaos t m Support.Chaos.Invalidation_storm;
    invalidate t m ~misses:0
  end;
  if wants_compile t m then begin
    let st = state t m in
    if st.first_hot < 0 then st.first_hot <- t.vm.cycles;
    match t.serve_queue with None -> compile t m | Some q -> request t q m
  end

(* VM hook: compiled code ran a typeswitch fallback. Past the threshold,
   drop the code and let the interpreter re-profile the shifted receiver
   distribution; the method recompiles later. *)
let on_spec_miss (t : t) (m : meth_id) (_ : site) : unit =
  if t.spec_miss_threshold < max_int && installed t m then begin
    let st = state t m in
    let misses = st.misses + 1 in
    st.misses <- misses;
    if misses >= t.spec_miss_threshold && can_recompile t m then invalidate t m ~misses
  end

(* The simulated clock that stamps the ambient trace sink's events. *)
let trace_clock (vm : Runtime.Interp.vm) () : int = vm.cycles

let create ?(spec_miss_threshold = max_int) ?compile_fuel ?(osr = true) ?osr_threshold
    ?queue_capacity ?(queue_age_unit = 1024) ?cache_capacity (prog : program)
    (config : config) : t =
  (* parse-time canonicalization: prepared bodies are what gets profiled,
     specialized and inlined; bodies already prepared are skipped *)
  Opt.Driver.prepare_program prog;
  let vm = Runtime.Interp.create prog in
  let osr_threshold =
    match osr_threshold with
    | Some n -> max 1 n
    | None -> default_osr_threshold config
  in
  let compiles = config.compiler <> None in
  let t =
    { vm; config;
      meths = Array.init (Ir.Program.num_meths prog) (fun _ -> fresh_state ());
      compiling = false; compile_cycles = 0; compilations = [];
      spec_miss_threshold; invalidations = []; bailouts = []; compile_fuel;
      osr_threshold; osr_sites = Hashtbl.create 8; loop_cache = Hashtbl.create 8;
      osr_uid = 0; osr_enters = 0; osr_exits = 0;
      serve_queue =
        (match queue_capacity with
        | Some cap when compiles ->
            Some (Scheduler.create ~capacity:cap ~age_unit:queue_age_unit)
        | _ -> None);
      serve_cache =
        (match cache_capacity with
        | Some cap when compiles -> Some (Codecache.create ~capacity:cap)
        | _ -> None);
      evictions = 0; sheds = 0; queue_waits = []; timeline = None }
  in
  Obs.Trace.set_clock (trace_clock vm);
  if compiles then begin
    if osr && osr_threshold < max_int then begin
      vm.osr_threshold <- t.osr_threshold;
      vm.on_osr <- on_osr t;
      vm.on_osr_exit <- on_osr_exit t;
      vm.on_osr_abort <- on_osr_abort t;
      vm.osr_headers <- osr_headers t
    end;
    (* a closure that calls [on_entry] directly: the partial application
       [on_entry t] would go through a currying stub at every entry *)
    vm.on_entry <- (fun m -> on_entry t m);
    vm.on_spec_miss <- on_spec_miss t
  end;
  t

let run_main (t : t) : Runtime.Values.value = Runtime.Interp.run_main t.vm

let run_meth (t : t) (name : string) (args : Runtime.Values.value list) :
    Runtime.Values.value =
  Runtime.Interp.run_meth t.vm name args

let output (t : t) : string = Runtime.Interp.output t.vm

(* Per-site inline-cache statistics, for `selvm events` and the bench
   smoke's hit-rate reporting. *)
let ic_stats (t : t) : Runtime.Interp.ic_stat list = Runtime.Interp.ic_stats t.vm

let superinst_stats (t : t) : Runtime.Interp.sstat list =
  Runtime.Interp.superinst_stats t.vm

(* How the interpreted tier dispatches, for reports: the threaded tier's
   closure chains or the reference walker. *)
let dispatch_label (t : t) : string =
  match t.vm.backend with
  | Runtime.Interp.Threaded -> "threaded"
  | Runtime.Interp.Reference -> "walker"

(* Kept with its type for callers outside the library: every produced
   body installs at once, so nothing is ever left to flush. *)
let flush_pending ?force:_ (_ : t) : int = 0

let compiled_body (t : t) (name : string) : fn option =
  match Ir.Program.find_meth t.vm.prog name with
  | Some m -> Runtime.Interp.installed t.vm m
  | None -> None

let blacklisted (t : t) (m : meth_id) : bool = (state t m).blacklisted

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
let g_queue_depth = Obs.Metrics.gauge "serve.queue_depth"
let g_cache_used = Obs.Metrics.gauge "serve.cache_used"
let g_cache_resident = Obs.Metrics.gauge "serve.cache_resident"

let snapshot_metrics (t : t) : unit =
  let s = stats t in
  Obs.Metrics.set g_code_size s.code_size;
  Obs.Metrics.set g_compiled_methods s.compiled;
  Obs.Metrics.set g_compile_cycles s.compile_cycles;
  Obs.Metrics.set g_vm_cycles s.cycles;
  Obs.Metrics.set g_vm_steps s.steps;
  let ics = ic_stats t in
  Obs.Metrics.set g_ic_sites (List.length ics);
  let hits = ref 0 and misses = ref 0 and mega = ref 0 in
  List.iter
    (fun (s : Runtime.Interp.ic_stat) ->
      hits := !hits + s.st_hits;
      misses := !misses + s.st_misses;
      mega := !mega + s.st_mega;
      let dispatches = s.st_hits + s.st_misses + s.st_mega in
      if dispatches > 0 then
        Obs.Metrics.observe m_ic_hit_rate (100 * s.st_hits / dispatches))
    ics;
  Obs.Metrics.set g_ic_hits !hits;
  Obs.Metrics.set g_ic_misses !misses;
  Obs.Metrics.set g_ic_megamorphic !mega;
  (* the mined superinstruction table: aggregate gauges plus one gauge
     per pattern (deterministic for a given program + workload, so the
     export byte-compares across identical runs) *)
  let sstats = superinst_stats t in
  Obs.Metrics.set g_superinst_patterns (List.length sstats);
  let sites = ref 0 in
  List.iter
    (fun (s : Runtime.Interp.sstat) ->
      sites := !sites + s.ss_sites;
      Obs.Metrics.set
        (Obs.Metrics.gauge ("superinst.pattern." ^ s.ss_pattern))
        s.ss_sites)
    sstats;
  Obs.Metrics.set g_superinst_sites !sites;
  Obs.Metrics.set g_osr_methods s.osr_methods;
  (* the serve gauges describe a bounded queue and cache; an unarmed
     engine leaves them unset *)
  if t.serve_queue <> None then Obs.Metrics.set g_queue_depth s.queue_depth;
  if t.serve_cache <> None then begin
    Obs.Metrics.set g_cache_used s.cache_used;
    Obs.Metrics.set g_cache_resident s.cache_resident
  end
