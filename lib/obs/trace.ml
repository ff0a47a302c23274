(* Structured JIT telemetry: a zero-cost-when-disabled event sink.

   The engine, the inliner, and the optimizer driver emit structured
   events here — compilation requests, installs, invalidations, per-round
   inlining decisions, per-phase optimization counters. With no sink
   installed every emission site reduces to one [None] check and the
   field-building closure is never run, so the differential suites see
   bit-identical behavior whether or not this module is linked hot.

   Events are stamped with the *simulated* cycle clock (never wall time),
   so two runs of the same program produce byte-identical traces. One
   event per line, serialized via [Support.Json] (JSONL). *)

type sink = {
  mutable write : string -> unit;  (* receives one serialized event (no newline) *)
  mutable clock : unit -> int;     (* the simulated cycle clock *)
  mutable events : int;            (* emitted so far *)
}

let current : sink option ref = ref None

let enabled () = !current <> None

let set_clock (clock : unit -> int) : unit =
  match !current with None -> () | Some s -> s.clock <- clock

(* [emit kind fields] appends one event. [fields] is a closure so that
   disabled tracing never pays for field construction. *)
let emit (kind : string) (fields : unit -> (string * Support.Json.t) list) : unit =
  match !current with
  | None -> ()
  | Some s ->
      let j =
        Support.Json.Obj
          (("ev", Support.Json.String kind)
          :: ("cycles", Support.Json.Int (s.clock ()))
          :: fields ())
      in
      s.write (Support.Json.to_string j);
      s.events <- s.events + 1

(* [scoped s f] installs [s] for the duration of [f], restoring whatever
   sink (or none) was active before — exception-safe. *)
let scoped (s : sink) (f : unit -> 'a) : 'a =
  let saved = !current in
  current := Some s;
  Fun.protect ~finally:(fun () -> current := saved) f

(* ---------- sinks ---------- *)

let channel_sink (oc : out_channel) : sink =
  {
    write =
      (fun line ->
        output_string oc line;
        output_char oc '\n');
    clock = (fun () -> 0);
    events = 0;
  }

(* An in-memory sink plus a reader of the lines collected so far, in
   emission order — what the bench harness and the tests use. *)
let memory_sink () : sink * (unit -> string list) =
  let lines = ref [] in
  let s =
    { write = (fun line -> lines := line :: !lines); clock = (fun () -> 0); events = 0 }
  in
  (s, fun () -> List.rev !lines)

(* [with_file path f] traces [f] into [path] (JSONL). The write is
   atomic (temp sibling + rename): an interrupted or failing run leaves
   no truncated trace behind, only a complete one or none at all. *)
let with_file (path : string) (f : unit -> 'a) : 'a =
  Support.Io.with_atomic_out path (fun oc -> scoped (channel_sink oc) f)
