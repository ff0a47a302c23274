(** Deterministic fault injection: a seeded PRNG fault plan for proving
    graceful degradation.

    The tiered engine calls {!roll} at fixed injection points; each call
    draws from one seeded {!Rng}, so a (program, seed, rate) triple
    replays the exact same fault sequence every run — chaos traces stay
    byte-identical and any failure is bisectable by seed. Ambient and
    zero-cost when disabled (one [None] check per point, no allocation:
    test_obs, "disabled hooks allocate nothing"), mirroring {!Obs.Trace}.
    Enabled from the CLI with
    [selvm run|bench --chaos-seed N --chaos-rate R]. *)

type fault =
  | Compiler_crash      (** the compiler raises mid-compilation *)
  | Verifier_reject     (** the produced body fails verification *)
  | Fuel_exhaustion     (** the compile watchdog budget is starved *)
  | Invalidation_storm  (** installed code hit by a spec-miss burst *)

val fault_to_string : fault -> string

exception Injected of fault
(** Raised by the engine's injection points for [Compiler_crash] and
    [Verifier_reject]; contained by the bailout machinery like any other
    compile failure. *)

type plan = {
  seed : int;
  rate : float;  (** injection probability per opportunity *)
  rng : Rng.t;
  mutable rolls : int;  (** opportunities offered so far *)
  mutable injected : int;  (** faults fired so far *)
}

val enabled : unit -> bool
val plan : unit -> plan option

val make : seed:int -> rate:float -> plan
(** A fresh plan, not yet ambient — hold one per tenant and activate it
    around that tenant's execution slices with {!with_plan}.
    @raise Invalid_argument unless [0 <= rate <= 1]. *)

val install : seed:int -> rate:float -> unit
(** Makes a fresh plan ambient, replacing the previous one.
    @raise Invalid_argument unless [0 <= rate <= 1]. *)

val scoped : seed:int -> rate:float -> (unit -> 'a) -> 'a
(** Runs the callback under a fresh plan, restoring the previously
    ambient plan on exit (exception-safe). *)

val with_plan : plan option -> (unit -> 'a) -> 'a
(** Runs the callback with the given (possibly [None]) plan ambient,
    restoring the previous one on exit. Does not reset the plan's RNG
    stream — the serve driver uses this to resume each tenant's private
    fault plan across multiplexed execution slices, keeping every
    tenant's fault sequence independent of its neighbors. *)

val roll : fault -> bool
(** One injection opportunity: true with probability [rate], always
    false when disabled. The argument documents the site; all rolls
    draw from the plan's single deterministic stream. *)

val starved_fuel : unit -> int
(** A deterministic near-zero watchdog budget for an injected
    [Fuel_exhaustion]; [0] when disabled. *)
