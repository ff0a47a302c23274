(** The paper's benchmarking methodology (Section V): repeat an entry
    method, record per-iteration simulated cycles, report peak performance
    as the mean of the last 40% (at most 20) iterations plus installed
    code size. *)

type iteration = {
  index : int;
  cycles : int;
  compiled_methods : int;  (** code-cache population after the iteration *)
}

type run = {
  name : string;
  iterations : iteration list;
  peak_cycles : float;
  peak_stddev : float;
  code_size : int;
  compile_cycles : int;
  timeline : (string * int * int) list;
      (** each install as (method, size, at_cycles), chronological *)
  invalidated : (string * int) list;
      (** each invalidation as (method, at_cycles), chronological *)
  bailed_out : (string * string * int) list;
      (** each contained compile failure as (method, reason, at_cycles) *)
  blacklisted : string list;
      (** methods permanently retired to the interpreter *)
  output : string;
  ic_sites : int;  (** call sites dispatched through an inline cache *)
  ic_hits : int;
  ic_misses : int;
  ic_megamorphic : int;
      (** dispatches taken by a megamorphic cache's fallback path *)
  dispatch : string;
      (** the interpreted tier's dispatch strategy for this run:
          ["threaded"] or ["walker"] *)
  superinst : Runtime.Interp.sstat list;
      (** the mined superinstruction table at end of run *)
}

val ic_hit_rate : run -> float
(** Hits over total inline-cached dispatches; [0.0] when none ran. *)

val ic_hit_rate_opt : run -> float option
(** [None] when the run had no inline-cached dispatches at all — reports
    should show null there, not a 0% hit rate. *)

val run_benchmark :
  ?setup:string -> iters:int -> Engine.t -> entry:string -> label:string -> run
(** Runs [entry] (a 0-argument function) [iters] times; [setup] runs once
    beforehand when given. *)

val superinst_json : run -> Support.Json.t
(** The run's mined superinstruction table: pattern/site rows plus the
    pattern count and the fused-site total. *)

val run_json : run -> Support.Json.t
(** The complete run as JSON, as `selvm bench --json` writes it: name,
    iteration summary and series, dispatch strategy, inline-cache totals
    (hit rate null when the run had no virtual dispatches),
    {!superinst_json}, and the compile timeline (installs,
    invalidations, bailouts, blacklist, code size, compile cycles). *)
