(* Per-call-site polymorphic inline caches (PICs) for virtual dispatch in
   the prepared execution engine — the classic monomorphic → polymorphic →
   megamorphic progression of Smalltalk/Self/HotSpot call sites.

   An IC lives inside one pre-decoded [Pcall] and maps receiver classes to
   resolved targets: a repeat receiver resolves in a linear scan of at
   most [depth] entries (one comparison at a monomorphic site) instead of
   a memoized class-table walk. Past [depth] distinct receivers the site
   goes megamorphic: existing entries keep hitting, new classes keep
   taking the slow path and are counted separately.

   Entries and the megamorphic flag belong to the code object the cache
   was lowered in, and go with it. The dispatch counters describe the
   call site instead: every cache lowered for a site counts into the one
   [stat] record the VM keeps for it, so a frame still running code that
   left its method's slot keeps counting where {!Interp.ic_stats} reads.

   In a profiling tier each entry also carries the profile's
   receiver-histogram cell for its (site, class) pair, so a cached
   dispatch records its receiver with a single increment. *)

open Ir.Types

type stat = {
  st_site : site;
  st_selector : string;
  mutable st_hits : int;
  mutable st_misses : int;
  mutable st_mega : int;  (* slow-path dispatches while megamorphic *)
}

type entry = {
  e_cls : class_id;
  e_target : meth_id;
  e_count : int ref;
      (* the profile's receiver cell for (site, class); one shared dummy
         cell in non-profiling tiers *)
}

type t = {
  stat : stat;                    (* the site's counters *)
  mutable entries : entry array;  (* observed classes, oldest first *)
  mutable megamorphic : bool;     (* depth exhausted; entries still hit *)
}

(* Polymorphic degree before a site goes megamorphic; matches the typical
   PIC depth of production VMs (HotSpot/V8 use 4–8). *)
let depth = 4

let create (stat : stat) : t = { stat; entries = [||]; megamorphic = false }

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
  let s = t.stat in
  if t.megamorphic then s.st_mega <- s.st_mega + 1 else s.st_misses <- s.st_misses + 1

(* Installs a freshly resolved (class -> target) entry; past [depth] the
   site turns megamorphic and keeps its existing entries. *)
let add (t : t) (e : entry) : unit =
  if Array.length t.entries >= depth then t.megamorphic <- true
  else t.entries <- Array.append t.entries [| e |]
