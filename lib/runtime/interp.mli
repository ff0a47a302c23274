(** The SelVM execution engine: runs method bodies in either tier and
    doubles as the compiled-code executor. Interpreted frames pay the
    interpreter dispatch penalty and collect profiles; compiled frames pay
    only operation costs and do not profile — the classic two-tier
    contract.

    Two execution backends implement identical observable semantics (see
    docs/ARCHITECTURE.md, "Prepared code & dispatch caching"):

    - [Threaded] (the default): a method's current body is translated
      once into a dense {!Prepared.code} object — flat register frames,
      Int and Bool values unboxed in their own, edge-resolved phis,
      pre-decoded instructions — and lowered once, into the method's code
      slot ([vm.code]), as direct-threaded handler closures specialized
      for those frames. A threaded call finds its code in the slot.
    - [Reference]: the original direct IR walker, kept as the executable
      specification that the differential suite checks the threaded engine
      against. It looks its body up at every call.

    A JIT engine drives the VM without a dependency cycle through one
    table and one hook: {!set_installed} writes a method's compiled code
    into the dense [installed] slots and empties its code slot, and
    [on_entry] fires at every method entry (hotness detection).

    Nothing re-checks a filled code slot per call, because nothing
    changes what a method's calls run without emptying it:
    {!set_installed} is the one writer of installed code,
    {!Ir.Program.set_body} only fills an empty body, and [vm.profiles],
    whose counter cells an interpreted entry binds when it is lowered,
    is never replaced or cleared. *)

open Ir.Types
open Values

type backend = Threaded | Reference
(** [Threaded] (the default): subroutine-threaded closures over prepared
    code, with superinstruction fusion. [Reference]: the direct IR
    walker. Both implement identical observable semantics. *)

type osr_transfer = {
  osr_target : meth_id;
      (** the extracted continuation method ({!Ir.Osr}) *)
  osr_live_ins : vid array;
      (** frame mapping, first run: slots whose values become arguments
          [0 .. n-1] *)
  osr_phis : vid array;
      (** frame mapping, second run: the header's loop-carried phi slots,
          read after the phi moves of the transferring iteration *)
}
(** A one-way on-stack-replacement transfer: the backend reads exactly
    the mapped slots, in order, as the target's arguments; the target's
    result is the original activation's result. *)

type osr_verdict = Osr_no | Osr_wait | Osr_enter of osr_transfer
(** Engine's answer when an interpreted frame crosses [osr_threshold] at
    a block: never ask again / ask again later / transfer now. *)

type tstate
(** Threaded-tier activation state: the value frame and the int frame
    that holds the activation's Int and Bool values unboxed. It is the
    record of one call depth ([vm.frames]), which every threaded
    activation at that depth reuses: a call allocates neither the record
    nor its frames, which are replaced only by larger ones and never
    cleared between activations.
    A call hands the callee its caller's state and the slots of its
    arguments there; the callee copies each argument into its
    parameter's slot, with no argument array. *)

type thandler = tstate -> value
(** One handler closure: executes one pre-decoded instruction (or one
    fused superinstruction) and tail-calls the successor handler —
    direct threading, with OCaml's tail-call elimination standing in for
    computed goto. Every handler returns the activation's value: the
    method-return handler returns its operand, an OSR transfer the
    continuation's result. *)

type tcode = {
  t_handlers : thandler array;
  t_entry : int;
  t_nregs : int;
      (** value-frame size ({!Prepared.code.nregs}) *)
  t_nints : int;
      (** int-frame size ({!Prepared.code.nints}). An activation runs in
          its depth's record when the record's frames have at least
          [t_nregs] and [t_nints] slots, and replaces a smaller one. *)
  t_params : int array;
      (** {!Prepared.code.params} flattened: parameter index, then the
          slot the argument is copied into *)
  t_fname : string;
}
(** A method lowered for the threaded tier: a flat pc-indexed array of
    handler closures (block prologues, body segments, terminators), each
    specialized at lowering for the frames its operands live in. *)

type prepared_entry = {
  src : fn;
      (** the body the entry was lowered from: the method's installed
          code, or its program body when it has none *)
  inv : int ref;
      (** every threaded activation increments it: the method's
          {!Profile.invocation_cell} for an interpreted entry, a private
          cell nothing reads for a compiled one *)
  tcode : tcode;
}
(** The content of a method's code slot, prepared and lowered once, with
    fusion planned over every block; its baked counter cells — block,
    branch and invocation — point into [vm.profiles]. *)

type ic_stat = Ic.stat = {
  st_site : site;
  st_selector : string;
  mutable st_hits : int;
  mutable st_misses : int;
  mutable st_mega : int;
}
(** The inline-cache counters of one call site (see {!ic_stats}). *)

type sstat = {
  ss_pattern : string;
  mutable ss_sites : int;  (** fused sites emitted *)
}
(** Accumulated mining results of one superinstruction pattern (see
    {!superinst_stats}). *)

type vm = {
  prog : program;
  profiles : Profile.t;
  (** the VM's one profile: never replaced, so the counter cells code
      slots bind stay its cells *)
  cost : Cost.t;
  out : Buffer.t;                          (** captured program output *)
  mutable cycles : int;                    (** the simulated clock *)
  mutable installed : fn option array;
  (** installed compiled code per method, a dense array indexed by
      [meth_id] that grows on demand; read it with {!installed} and write
      it only with {!set_installed}. The threaded tier reads it when it
      fills a code slot, the reference walker at every invocation. *)
  mutable on_entry : meth_id -> unit;
  (** fired at every method entry, before the tier dispatch *)
  mutable on_spec_miss : meth_id -> site -> unit;
  (** fired when compiled code reaches a typeswitch's residual virtual
      call (a synthetic site): the speculation missed *)
  mutable osr_threshold : int;
  (** block count at which an interpreted frame consults [on_osr] at a
      loop header; [max_int] (the default) disables the checkpoints, and
      any other value also gives compiled code its OSR-exit guards *)
  mutable on_osr : meth_id -> bid -> osr_verdict;
  mutable osr_headers : meth_id -> fn -> bid -> bool;
  (** lowering-time filter: which blocks of the given body get OSR
      checkpoint guards in the threaded tier (loop headers only) *)
  mutable on_osr_exit : meth_id -> fn -> bid -> osr_transfer option;
  (** asked at a loop header by a compiled frame whose code [src] is
      stale, no longer its method's installed code (a physical
      comparison, no epoch): a transfer into an interpreted continuation
      of [src], or [None] to keep running it *)
  mutable on_osr_abort : meth_id -> unit;
  (** a trap is unwinding out of an entered OSR continuation *)
  mutable steps : int;
  mutable max_steps : int;
  mutable depth : int;
  max_depth : int;
  mutable frames : tstate array;
  (** the activation record of each call depth, grown on demand (index 0,
      depth 0, is no activation's): a threaded activation at depth [d]
      runs in [frames.(d)]. When an entry point returns or traps back to
      depth 0 it fills the value frames its run used with [Vunit], so no
      value of a finished run stays reachable from a record. *)
  mutable frames_used : int;
  (** records [1 .. frames_used] may hold values of the current run *)
  mutable backend : backend;
  mutable code : prepared_entry option array;
  (** the code slot of each method, a dense array indexed by [meth_id]
      that grows on demand: the threaded entry of the body a call of the
      method runs now, or [None] until the next threaded call lowers one.
      A threaded call reads it once; {!set_installed} empties it. *)
  ic_sites : (site, ic_stat) Hashtbl.t;
  (** the counters of each call site an inline cache was lowered for,
      which every cache of the site counts into: the cache of the
      interpreted body, of each compiled body the site was inlined into,
      and of code that already left its slot but still runs in a frame *)
  mutable attrib : Attribution.t option;
  (** per-method cycle attribution ({!enable_attribution}); [None] (the
      default) costs one option check per invocation *)
  superinst : (string, sstat) Hashtbl.t;
  (** mined pattern table, accumulated across threaded lowerings *)
}

val create : ?max_steps:int -> ?backend:backend -> program -> vm
(** [backend] defaults to [Threaded]; [cost] is {!Cost.default}. *)

val output : vm -> string

val enable_attribution : vm -> Attribution.t
(** Installs (or returns the already-installed) per-method cycle
    attribution: every invocation is then bracketed with enter/leave on
    the simulated clock, split by tier — [Jit] for installed compiled
    code and [Interp] for interpreted frames under either backend. *)

val record_deopt : vm -> meth_id -> unit
(** Counts a deoptimization against the method when attribution is
    enabled; a no-op otherwise. Called by the engine's invalidation
    path. *)

val record_evict : vm -> meth_id -> unit
(** Counts a code-cache eviction against the method when attribution is
    enabled; a no-op otherwise. Called by the engine's bounded-cache
    retirement path — kept separate from {!record_deopt} so reports can
    tell capacity churn from speculation failure. *)

val installed : vm -> meth_id -> fn option
(** The method's installed compiled code, or [None] when it has none and
    runs interpreted. Allocates nothing. *)

val set_installed : vm -> meth_id -> fn option -> unit
(** Writes the method's installed-code slot ([Some body] to install or
    replace, [None] to remove) and empties its code slot; the method's
    next call lowers the body of its new tier. The one writer of installed
    code: {!Jit.Engine} calls this whenever it installs, replaces or
    removes compiled code, and a test that runs a hand-built body
    installs it this way. *)

val ic_stats : vm -> ic_stat list
(** A copy of [vm.ic_sites], ordered by (method, site ordinal). Sites
    with zero dispatches are omitted. *)

val superinst_stats : vm -> sstat list
(** The mined superinstruction table, sorted by pattern — a
    deterministic function of the program and workload. Counts
    accumulate over every threaded lowering, including those of
    recompiled or invalidated methods. *)

(** {1 Entry points}

    Each restores [vm.depth] to its value at entry when an exception
    escapes, so a trapped call leaves no depth behind for later calls on
    the same VM, and back at depth 0, returned or trapped, releases the
    values its run left in [vm.frames]. *)

val run_main : vm -> value
(** @raise Trap if the program has no main or on runtime errors. *)

val run_meth : vm -> string -> value list -> value
(** Runs a method by qualified name. Under the [Threaded] backend the
    body must be verified, well-typed IR: any other body traps through
    {!Prepared.ill_formed} before it runs, while the [Reference] backend
    runs it up to the trap its ill-typed op raises. *)
