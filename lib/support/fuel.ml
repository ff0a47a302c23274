(* An ambient compile-time fuel budget — the watchdog against runaway
   compilations.

   Mirrors the [Obs.Trace] ambient-sink pattern: with no budget installed
   every checkpoint is one [None] check and allocates nothing (test_obs,
   "disabled hooks allocate nothing"), so the plumbing is zero-cost in
   production. The optimizer driver and the inliner call [spend] at phase
   and fixpoint-round boundaries (never mid-transform), so [Exhausted]
   only ever fires between consistent IR states. *)

exception Exhausted

type budget = { mutable remaining : int }

let current : budget option ref = ref None

let enabled () = !current <> None

let remaining () =
  match !current with Some b -> Some b.remaining | None -> None

(* [spend n] charges [n] units against the ambient budget; raises
   [Exhausted] once it runs dry. A no-op without a budget. *)
let spend (n : int) : unit =
  match !current with
  | None -> ()
  | Some b ->
      b.remaining <- b.remaining - n;
      if b.remaining < 0 then raise Exhausted

(* [with_budget n f] runs [f] under a fresh budget of [n] units,
   restoring the previously ambient budget (or none) on exit —
   exception-safe, nestable. *)
let with_budget (n : int) (f : unit -> 'a) : 'a =
  let saved = !current in
  current := Some { remaining = n };
  Fun.protect ~finally:(fun () -> current := saved) f
