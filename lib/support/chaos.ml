(* Deterministic fault injection: a seeded PRNG fault plan.

   The tiered engine asks this module, at fixed code points, whether to
   inject a failure — a compiler crash, a verifier reject, a starved fuel
   budget, or a spec-miss/invalidation storm against installed code.
   Every decision is a draw from one seeded [Rng], so a (program, seed,
   rate) triple replays the exact same fault sequence run after run:
   chaos traces are byte-identical and failures are bisectable.

   Like [Obs.Trace] and [Fuel], the plan is ambient and zero-cost when
   disabled: every injection point reduces to one [None] check. *)

type fault =
  | Compiler_crash      (* the compiler raises mid-compilation *)
  | Verifier_reject     (* the produced body fails verification *)
  | Fuel_exhaustion     (* the compile watchdog budget is starved *)
  | Invalidation_storm  (* installed code hit by a spec-miss burst *)

let fault_to_string = function
  | Compiler_crash -> "compiler_crash"
  | Verifier_reject -> "verifier_reject"
  | Fuel_exhaustion -> "fuel_exhaustion"
  | Invalidation_storm -> "invalidation_storm"

exception Injected of fault

let () =
  Printexc.register_printer (function
    | Injected f -> Some ("chaos: injected " ^ fault_to_string f)
    | _ -> None)

type plan = {
  seed : int;
  rate : float;            (* injection probability per opportunity *)
  rng : Rng.t;
  mutable rolls : int;     (* opportunities offered *)
  mutable injected : int;  (* faults fired *)
}

let current : plan option ref = ref None

let enabled () = !current <> None

let plan () = !current

let make ~(seed : int) ~(rate : float) : plan =
  if not (Float.is_finite rate) || rate < 0.0 || rate > 1.0 then
    invalid_arg "Chaos.make: rate must be in [0, 1]";
  { seed; rate; rng = Rng.create seed; rolls = 0; injected = 0 }

let install ~(seed : int) ~(rate : float) : unit = current := Some (make ~seed ~rate)

(* [scoped ~seed ~rate f] runs [f] under a fresh plan, restoring whatever
   plan (or none) was ambient before — exception-safe. *)
let scoped ~(seed : int) ~(rate : float) (f : unit -> 'a) : 'a =
  let saved = !current in
  install ~seed ~rate;
  Fun.protect ~finally:(fun () -> current := saved) f

(* [with_plan p f] makes an *existing* plan ambient (or none, for
   [None]), restoring the previous one afterwards. Unlike [scoped] this
   does not reset the plan's RNG stream: the multi-tenant serve driver
   re-installs each tenant's own plan around every execution slice, so a
   tenant's fault sequence is a pure function of its own seed and its
   own deterministic execution — byte-identical whether the tenant runs
   solo or multiplexed with others. *)
let with_plan (p : plan option) (f : unit -> 'a) : 'a =
  let saved = !current in
  current := p;
  Fun.protect ~finally:(fun () -> current := saved) f

(* [roll fault] offers the plan one injection opportunity; true with
   probability [rate]. Always false when disabled. The [fault] argument
   only documents the site — every roll draws from the same stream, so
   the draw sequence (and thus the whole fault plan) is a pure function
   of the seed and the engine's deterministic execution. *)
let roll (_fault : fault) : bool =
  match !current with
  | None -> false
  | Some p ->
      p.rolls <- p.rolls + 1;
      let hit = Rng.float p.rng < p.rate in
      if hit then p.injected <- p.injected + 1;
      hit

(* A starved watchdog budget for an injected fuel exhaustion: small
   enough to abort most compilations, spread over [0, 32) checkpoints so
   both bail-out-entirely (no round finished) and best-body-so-far
   (mid-flight abort) paths get exercised. *)
let starved_fuel () : int =
  match !current with None -> 0 | Some p -> Rng.int p.rng 32
