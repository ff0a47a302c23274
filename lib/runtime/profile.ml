(* Runtime profiles, the moral equivalent of the HotSpot profiling data the
   paper's inliner consumes: invocation counters, per-block execution
   counts (subsuming branch probabilities and loop backedge counters), and
   per-callsite receiver type histograms.

   Everything is keyed by stable ids: methods by [meth_id], blocks by
   (meth, bid) — block ids are preserved by IR copying — and callsites by
   their [site] key, which survives inlining.

   Storage is slot-indexed: method ids, block ids and site ordinals are
   all dense (the lowering allocates them consecutively), so counters live
   in option arrays indexed directly by id instead of the tuple-keyed
   hashtables of the seed implementation. Recording finds (or creates) a
   counter cell ([int ref] / {!brec} / {!rsite}) and increments it — no
   per-event key allocation, no hashing. The cells have stable identity:
   the reference walker looks one up per event, while the threaded tier
   binds them into the code it lowers and its inline caches and records
   with one increment, and the folded profile cannot tell the two apart.
   Synthetic sites (negative [sidx], typeswitch fallbacks) cannot index
   an array and fall back to keyed tables; they are rare, and profiled
   only in interpreted deoptimization continuations, which are extracted
   from compiled code. *)

open Ir.Types

(* Receiver histogram of one call site. Class cells are handed out so the
   inline-cache fast path can record a receiver with one increment. *)
type rsite = { hist : (class_id, int ref) Hashtbl.t }

(* Taken/not-taken counters of one branch site, bindable as a unit. *)
type brec = { mutable taken : int; mutable not_taken : int }

(* Everything recorded against one method, slot-indexed. *)
type mprof = {
  mutable blocks : int ref option array;  (* by bid *)
  mutable branches : brec option array;   (* by sidx *)
  mutable rsites : rsite option array;    (* by sidx *)
}

type t = {
  mutable invocations : int ref option array;  (* by meth_id *)
  mutable mprofs : mprof option array;         (* by meth_id *)
  synth_branches : (meth_id * int, brec) Hashtbl.t;
  synth_rsites : (meth_id * int, rsite) Hashtbl.t;
}

let create () =
  {
    invocations = [||];
    mprofs = [||];
    synth_branches = Hashtbl.create 8;
    synth_rsites = Hashtbl.create 8;
  }

(* Returns [arr] grown (amortized doubling) so index [i] is valid. *)
let grown : 'a. 'a option array -> int -> 'a option array =
 fun arr i ->
  if i < Array.length arr then arr
  else begin
    let n = max 8 (max (i + 1) (2 * Array.length arr)) in
    let a = Array.make n None in
    Array.blit arr 0 a 0 (Array.length arr);
    a
  end

let mprof_for (t : t) (m : meth_id) : mprof =
  t.mprofs <- grown t.mprofs m;
  match t.mprofs.(m) with
  | Some mp -> mp
  | None ->
      let mp = { blocks = [||]; branches = [||]; rsites = [||] } in
      t.mprofs.(m) <- Some mp;
      mp

(* ---------- counter cells (find-or-create; stable identity) ---------- *)

let invocation_cell (t : t) (m : meth_id) : int ref =
  t.invocations <- grown t.invocations m;
  match t.invocations.(m) with
  | Some c -> c
  | None ->
      let c = ref 0 in
      t.invocations.(m) <- Some c;
      c

let block_cell (t : t) (m : meth_id) (b : bid) : int ref =
  let mp = mprof_for t m in
  mp.blocks <- grown mp.blocks b;
  match mp.blocks.(b) with
  | Some c -> c
  | None ->
      let c = ref 0 in
      mp.blocks.(b) <- Some c;
      c

let branch_cell (t : t) (site : site) : brec =
  if site.sidx < 0 then begin
    let key = (site.sm, site.sidx) in
    match Hashtbl.find_opt t.synth_branches key with
    | Some br -> br
    | None ->
        let br = { taken = 0; not_taken = 0 } in
        Hashtbl.replace t.synth_branches key br;
        br
  end
  else begin
    let mp = mprof_for t site.sm in
    mp.branches <- grown mp.branches site.sidx;
    match mp.branches.(site.sidx) with
    | Some br -> br
    | None ->
        let br = { taken = 0; not_taken = 0 } in
        mp.branches.(site.sidx) <- Some br;
        br
  end

let brec_record (br : brec) ~(taken : bool) : unit =
  if taken then br.taken <- br.taken + 1 else br.not_taken <- br.not_taken + 1

let receiver_site (t : t) (site : site) : rsite =
  if site.sidx < 0 then begin
    let key = (site.sm, site.sidx) in
    match Hashtbl.find_opt t.synth_rsites key with
    | Some rs -> rs
    | None ->
        let rs = { hist = Hashtbl.create 4 } in
        Hashtbl.replace t.synth_rsites key rs;
        rs
  end
  else begin
    let mp = mprof_for t site.sm in
    mp.rsites <- grown mp.rsites site.sidx;
    match mp.rsites.(site.sidx) with
    | Some rs -> rs
    | None ->
        let rs = { hist = Hashtbl.create 4 } in
        mp.rsites.(site.sidx) <- Some rs;
        rs
  end

let find_receiver_site (t : t) (site : site) : rsite option =
  if site.sidx < 0 then Hashtbl.find_opt t.synth_rsites (site.sm, site.sidx)
  else if site.sm >= 0 && site.sm < Array.length t.mprofs then
    match t.mprofs.(site.sm) with
    | Some mp when site.sidx < Array.length mp.rsites -> mp.rsites.(site.sidx)
    | _ -> None
  else None

let rsite_cell (rs : rsite) (c : class_id) : int ref =
  match Hashtbl.find_opt rs.hist c with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.replace rs.hist c r;
      r

(* ---------- queries ---------- *)

let invocation_count t m =
  if m >= 0 && m < Array.length t.invocations then
    match t.invocations.(m) with Some c -> !c | None -> 0
  else 0

let block_count t m b =
  if m >= 0 && m < Array.length t.mprofs then
    match t.mprofs.(m) with
    | Some mp when b >= 0 && b < Array.length mp.blocks -> (
        match mp.blocks.(b) with Some c -> !c | None -> 0)
    | _ -> 0
  else 0

(* The hottest block count of a method: the loop-hotness signal the engine
   folds into its compile trigger (a method whose invocation counter never
   moves can still be hot through its backedges). One pass over the dense
   block slots. *)
let max_block_count t m : int =
  if m >= 0 && m < Array.length t.mprofs then
    match t.mprofs.(m) with
    | Some mp ->
        let best = ref 0 in
        for b = 0 to Array.length mp.blocks - 1 do
          match mp.blocks.(b) with
          | Some c when !c > !best -> best := !c
          | _ -> ()
        done;
        !best
    | None -> 0
  else 0

let find_branch (t : t) (site : site) : brec option =
  if site.sidx < 0 then Hashtbl.find_opt t.synth_branches (site.sm, site.sidx)
  else if site.sm >= 0 && site.sm < Array.length t.mprofs then
    match t.mprofs.(site.sm) with
    | Some mp when site.sidx < Array.length mp.branches ->
        mp.branches.(site.sidx)
    | _ -> None
  else None

(* Number of distinct receiver classes observed at a site: O(1), used by
   the interpreter's virtual-call overhead accounting on every call (the
   full histogram would be rebuilt and sorted per query). *)
let receiver_count t (site : site) : int =
  match find_receiver_site t site with
  | None -> 0
  | Some rs -> Hashtbl.length rs.hist

(* Receiver histogram as (class, probability), most frequent first. *)
let receiver_profile t (site : site) : (class_id * float) list =
  match find_receiver_site t site with
  | None -> []
  | Some rs ->
      let total = Hashtbl.fold (fun _ r acc -> acc + !r) rs.hist 0 in
      if total = 0 then []
      else
        Hashtbl.fold
          (fun c r acc -> (c, float_of_int !r /. float_of_int total) :: acc)
          rs.hist []
        |> List.sort (fun (_, a) (_, b) -> compare b a)

let branch_prob t (site : site) : float option =
  match find_branch t site with
  | None -> None
  | Some br ->
      let total = br.taken + br.not_taken in
      if total = 0 then None
      else Some (float_of_int br.taken /. float_of_int total)

(* ---------- text serialization ----------

   One record per line, sorted for determinism:
     i <meth> <count>                  invocation counter
     b <meth> <bid> <count>            block execution count
     r <meth> <sidx> <class> <count>   receiver histogram entry
     c <meth> <sidx> <taken> <nottaken>  branch counts

   Ids are only meaningful against the same prepared program (same
   sources); loaders of foreign profiles get whatever the ids say.

   A cell never counted prints nothing: the threaded tier binds the
   cells of every block and branch it lowers, the walker only those it
   counts, and both print the same text. *)

let to_text (t : t) : string =
  let lines = ref [] in
  let add fmt = Printf.ksprintf (fun l -> lines := l :: !lines) fmt in
  let branch m s (br : brec) =
    if br.taken + br.not_taken > 0 then add "c %d %d %d %d" m s br.taken br.not_taken
  in
  let receivers m s (rs : rsite) =
    Hashtbl.iter (fun c r -> if !r > 0 then add "r %d %d %d %d" m s c !r) rs.hist
  in
  Array.iteri
    (fun m c -> match c with Some c when !c > 0 -> add "i %d %d" m !c | _ -> ())
    t.invocations;
  Array.iteri
    (fun m mp ->
      match mp with
      | None -> ()
      | Some mp ->
          Array.iteri
            (fun b c ->
              match c with Some c when !c > 0 -> add "b %d %d %d" m b !c | _ -> ())
            mp.blocks;
          Array.iteri (fun s br -> Option.iter (branch m s) br) mp.branches;
          Array.iteri (fun s rs -> Option.iter (receivers m s) rs) mp.rsites)
    t.mprofs;
  Hashtbl.iter (fun (m, s) br -> branch m s br) t.synth_branches;
  Hashtbl.iter (fun (m, s) rs -> receivers m s rs) t.synth_rsites;
  let buf = Buffer.create 1024 in
  List.iter
    (fun l ->
      Buffer.add_string buf l;
      Buffer.add_char buf '\n')
    (List.sort compare !lines);
  Buffer.contents buf

exception Bad_profile of string

(* Duplicate records *accumulate*: a profile dump produced by
   concatenating several runs' dumps (merged profiles) must load as the
   sum of its parts, not as whichever record happened to come last.
   Negative counts can express no observation and are rejected. *)
let of_text (text : string) : t =
  let t = create () in
  let bad lineno line =
    raise (Bad_profile (Printf.sprintf "line %d: %S" (lineno + 1) line))
  in
  let ints line =
    match String.split_on_char ' ' (String.trim line) with
    | kind :: rest -> (kind, List.map int_of_string rest)
    | [] -> raise (Bad_profile "empty record")
  in
  String.split_on_char '\n' text
  |> List.iteri (fun lineno line ->
         if String.trim line <> "" then
           match ints line with
           | (_, counts) when List.exists (fun n -> n < 0) counts ->
               bad lineno line
           | "i", [ m; count ] ->
               let c = invocation_cell t m in
               c := !c + count
           | "b", [ m; b; count ] ->
               let c = block_cell t m b in
               c := !c + count
           | "r", [ m; s; c; count ] ->
               let cell = rsite_cell (receiver_site t { sm = m; sidx = s }) c in
               cell := !cell + count
           | "c", [ m; s; tk; ntk ] ->
               let br = branch_cell t { sm = m; sidx = s } in
               br.taken <- br.taken + tk;
               br.not_taken <- br.not_taken + ntk
           | _ -> bad lineno line
           | exception _ -> bad lineno line)
  |> fun () -> t
