(* Per-call-site polymorphic inline caches (PICs) for virtual dispatch in
   the prepared execution engine — the classic monomorphic → polymorphic →
   megamorphic progression of Smalltalk/Self/HotSpot call sites.

   An IC lives inside one pre-decoded [Pcall] and maps receiver classes to
   resolved targets: a repeat receiver resolves in a linear scan of at
   most [depth] entries (one comparison at a monomorphic site) instead of
   a memoized class-table walk. Past [depth] distinct receivers the site
   goes megamorphic: existing entries keep hitting, new classes keep
   taking the slow path and are counted separately.

   Each entry also carries the profile's receiver-histogram cell for its
   (site, class) pair, so the profiling tier records a cached dispatch's
   receiver with a single increment — bit-identical to the uncached
   [Profile.record_receiver] path. Coherence is managed by the owner of
   the code object: {!Interp} drops (and retires the counters of) every IC
   of a method when its code is installed, replaced or invalidated. *)

open Ir.Types

type entry = {
  e_cls : class_id;
  e_target : meth_id;
  e_count : int ref;
      (* the profile's receiver cell for (site, class); a dummy cell in
         non-profiling tiers *)
}

type t = {
  ic_site : site;
  selector : string;
  mutable entries : entry array;  (* observed classes, oldest first *)
  mutable megamorphic : bool;     (* depth exhausted; entries still hit *)
  mutable hits : int;
  mutable misses : int;
  mutable mega : int;             (* slow-path dispatches while megamorphic *)
}

(* Polymorphic degree before a site goes megamorphic; matches the typical
   PIC depth of production VMs (HotSpot/V8 use 4–8). *)
let depth = 4

let create ~(site : site) ~(selector : string) : t =
  {
    ic_site = site;
    selector;
    entries = [||];
    megamorphic = false;
    hits = 0;
    misses = 0;
    mega = 0;
  }

(* The entry {!probe} returns on a miss: shared, so a probe allocates
   nothing, hit or miss. No class id is negative, so it matches nothing. *)
let miss = { e_cls = -1; e_target = -1; e_count = ref 0 }

let rec scan (es : entry array) (c : class_id) (i : int) : entry =
  if i >= Array.length es then miss
  else
    let e = Array.unsafe_get es i in
    if e.e_cls = c then e else scan es c (i + 1)

let probe (t : t) (c : class_id) : entry = scan t.entries c 0

(* Records a failed probe: a miss while the cache is still growing, a
   megamorphic dispatch once the depth is exhausted. Call before {!add}. *)
let note_miss (t : t) : unit =
  if t.megamorphic then t.mega <- t.mega + 1 else t.misses <- t.misses + 1

(* Installs a freshly resolved (class -> target) entry; past [depth] the
   site turns megamorphic and keeps its existing entries. *)
let add (t : t) (e : entry) : unit =
  if Array.length t.entries >= depth then t.megamorphic <- true
  else t.entries <- Array.append t.entries [| e |]

let dispatches (t : t) : int = t.hits + t.misses + t.mega

(* Zeroes the counters — used after folding them into retired stats so a
   second retirement of the same code object cannot double-count. *)
let reset_stats (t : t) : unit =
  t.hits <- 0;
  t.misses <- 0;
  t.mega <- 0
