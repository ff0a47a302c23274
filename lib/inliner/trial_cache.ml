(* Cross-compilation memoization of deep inlining trials.

   Specializing a callee (copy + argument propagation + canonicalization
   to a fixpoint) is the expensive part of expansion, and the same
   (method, specialization signature) pair recurs constantly: every caller
   of a hot helper sees the same argument shapes, and every compilation of
   a caller re-expands the same subtree. The paper lists compilation cost
   as a core constraint of online inlining (Section III-A: "creating the
   complete call graph is expensive"); this cache bounds the cost without
   changing any result — entries are immutable templates, copied on use.

   An entry is keyed by the structure [(method, Some signature)], or
   [(method, None)] for a disabled (shallow) trial, which ignores the
   signature: the ablation variants specialize differently. The table
   hashes and compares the signature itself, so a lookup prints and
   allocates nothing beyond its key. Sharing a cache across programs is
   invalid (prepared bodies differ); the engine/benchmark layer creates
   one per compiler instance. *)

open Ir.Types

type entry = { template : fn; n_opts : int; n_a : int }

type t = {
  entries : (meth_id * Sigs.spec option, entry) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  (* the cache binds to the first program it serves; templates from one
     program are meaningless (and type-unsafe) under another's class and
     method tables *)
  mutable owner : program option;
}

let create () = { entries = Hashtbl.create 64; hits = 0; misses = 0; owner = None }

(* @raise Invalid_argument when the cache is used across programs. *)
let bind (t : t) (prog : program) : unit =
  match t.owner with
  | None -> t.owner <- Some prog
  | Some p when p == prog -> ()
  | Some _ ->
      invalid_arg
        "Trial_cache: one cache must not span programs (create one per compiled \
         program)"

(* A disabled trial ignores the signature entirely, so all signatures
   share one entry. *)
let key (m : meth_id) ~(enabled : bool) (sg : Sigs.spec) : meth_id * Sigs.spec option =
  (m, if enabled then Some sg else None)

let find (t : t) (m : meth_id) ~enabled ~sg : (fn * int * int) option =
  match Hashtbl.find t.entries (key m ~enabled sg) with
  | { template; n_opts; n_a } ->
      t.hits <- t.hits + 1;
      Some (Ir.Fn.copy template, n_opts, n_a)
  | exception Not_found ->
      t.misses <- t.misses + 1;
      None

(* The entry keeps its own copy of the signature: the caller's array is
   not the cache's to hold. *)
let store (t : t) (m : meth_id) ~enabled ~sg ~(body : fn) ~(n_opts : int) ~(n_a : int) :
    unit =
  Hashtbl.replace t.entries (key m ~enabled (Array.copy sg))
    { template = Ir.Fn.copy body; n_opts; n_a }

let stats (t : t) = (t.hits, t.misses, Hashtbl.length t.entries)
