(* Scalar replacement of non-escaping allocations (escape analysis lite).

   The paper's algorithm lives in Graal Enterprise Edition, where partial
   escape analysis runs after inlining and is a large part of why inlining
   clusters pays: once `foreach` and the lambda's `apply` are inlined
   together, the lambda object no longer escapes and its allocation and
   field traffic dissolve into SSA values. This pass reproduces the
   non-partial core of that effect:

   - an allocation escapes if its value is used anywhere except as the
     *receiver* of GetField/SetField: call arguments, stored values,
     array elements, phi inputs, comparisons, returns, type tests,
     terminators;
   - a non-escaping allocation has no aliases, so its field cells behave
     like mutable locals: we rerun SSA construction over them (the New
     defines every field to its type's default, SetField defines,
     GetField uses) and delete the allocation and all its field traffic.

   Runs between inlining rounds (Driver.round_root_opts), by which time
   the constructor call — which would otherwise count as an escape — has
   been inlined into the caller. *)

open Ir.Types

let default_const (t : ty) : const =
  match t with
  | Tint -> Cint 0
  | Tbool -> Cbool false
  | Tstring -> Cstring ""
  | Tunit -> Cunit
  | Tarray _ | Tobj _ -> Cnull

(* Does [obj] escape? Any use outside GetField/SetField receiver position. *)
let escapes (fn : fn) (obj : vid) : bool =
  Ir.Fn.term_users fn obj <> []
  || List.exists
       (fun u ->
         match Ir.Fn.kind fn u with
         | GetField { obj = o; _ } -> o <> obj
         | SetField { obj = o; value; _ } -> o <> obj || value = obj
         | _ -> true)
       (Ir.Fn.users fn obj)

(* Per-slot value resolution across blocks: Braun-style on-demand phi
   placement over a complete CFG. [exit_val] is pre-populated by the local
   scan for every block that defines a slot; [entry_val] memoizes (and
   breaks cycles through placed-then-filled phis). A table value may be a
   load of the object itself ([o.f = o.f] makes one a slot's exit value),
   and loads are deleted as they are resolved, so every value read back
   from the tables goes through [replaced]. *)
type state = {
  fn : fn;
  preds : bid list array;
  entry_val : (int * bid, vid) Hashtbl.t;
  exit_val : (int * bid, vid) Hashtbl.t;
  replaced : (vid, vid) Hashtbl.t;  (* deleted load -> its replacement *)
  slot_ty : int -> ty;
}

let rec resolve (st : state) (v : vid) : vid =
  match Hashtbl.find_opt st.replaced v with Some w -> resolve st w | None -> v

let rec entry_value (st : state) (slot : int) (b : bid) : vid =
  match Hashtbl.find_opt st.entry_val (slot, b) with
  | Some v -> resolve st v
  | None -> (
      match st.preds.(b) with
      | [] ->
          (* a path that does not pass the New: SSA dominance guarantees no
             real load observes this value, but a phi on a sibling path may
             demand an input — any well-typed constant will do *)
          let c = Ir.Fn.prepend st.fn b (Const (default_const (st.slot_ty slot))) in
          Hashtbl.replace st.entry_val (slot, b) c;
          c
      | [ p ] ->
          let v = exit_value st slot p in
          Hashtbl.replace st.entry_val (slot, b) v;
          v
      | ps ->
          (* place the phi before recursing so loops terminate *)
          let phi = Ir.Fn.prepend st.fn b (Phi { ty = st.slot_ty slot; inputs = [] }) in
          Hashtbl.replace st.entry_val (slot, b) phi;
          let inputs = List.map (fun p -> (p, exit_value st slot p)) ps in
          Ir.Fn.set_phi_inputs st.fn phi inputs;
          let ops =
            List.map snd inputs |> List.filter (fun v -> v <> phi) |> List.sort_uniq compare
          in
          (match ops with
          | [ only ] ->
              (* trivial phi: redirect the tables and drop it *)
              Ir.Fn.replace_uses st.fn ~old_v:phi ~new_v:only;
              let redirect tbl =
                Hashtbl.iter
                  (fun key v -> if v = phi then Hashtbl.replace tbl key only)
                  (Hashtbl.copy tbl)
              in
              redirect st.entry_val;
              redirect st.exit_val;
              Ir.Fn.delete_instr st.fn phi;
              only
          | _ -> phi))

and exit_value (st : state) (slot : int) (b : bid) : vid =
  match Hashtbl.find_opt st.exit_val (slot, b) with
  | Some v -> resolve st v
  | None -> entry_value st slot b

(* Scalar-replaces one non-escaping allocation. *)
let replace_one (prog : program) (fn : fn) (obj : instr) : unit =
  let cls = match obj.kind with New c -> c | _ -> assert false in
  let layout = (Ir.Program.cls prog cls).layout in
  let st =
    {
      fn;
      preds = Ir.Fn.preds fn;
      entry_val = Hashtbl.create 16;
      exit_val = Hashtbl.create 16;
      replaced = Hashtbl.create 16;
      slot_ty = (fun slot -> snd layout.(slot));
    }
  in
  (* the New defines every slot to its default; materialize the constants
     once, right before the allocation, so they dominate every use *)
  let defaults =
    Array.map
      (fun (_, ty) -> Ir.Fn.insert_before fn ~before:obj.id (Const (default_const ty)))
      layout
  in
  (* local scan: record each block's slot exits, resolve in-block loads *)
  let loads = ref [] in
  let deletions : vid list ref = ref [] in
  Ir.Fn.iter_blocks
    (fun blk ->
      let current : (int, vid) Hashtbl.t = Hashtbl.create 4 in
      List.iter
        (fun v ->
          match Ir.Fn.kind fn v with
          | New _ when v = obj.id ->
              Array.iteri (fun slot c -> Hashtbl.replace current slot c) defaults;
              deletions := v :: !deletions
          | SetField { obj = o; slot; value; _ } when o = obj.id ->
              Hashtbl.replace current slot value;
              deletions := v :: !deletions
          | GetField { obj = o; slot; _ } when o = obj.id ->
              (match Hashtbl.find_opt current slot with
              | Some value -> loads := (v, `Value value) :: !loads
              | None -> loads := (v, `Entry (slot, blk.b_id)) :: !loads)
          | _ -> ())
        blk.instrs;
      Hashtbl.iter (fun slot v -> Hashtbl.replace st.exit_val (slot, blk.b_id) v) current)
    fn;
  (* resolve cross-block loads only after all exits are recorded *)
  List.iter
    (fun (load, source) ->
      let replacement =
        match source with
        | `Value v -> resolve st v
        | `Entry (slot, b) -> entry_value st slot b
      in
      Ir.Fn.replace_uses fn ~old_v:load ~new_v:replacement;
      Hashtbl.replace st.replaced load replacement;
      Ir.Fn.delete_instr fn load)
    (List.rev !loads);
  List.iter (fun v -> Ir.Fn.delete_instr fn v) !deletions

(* Replaces every non-escaping allocation; returns how many. *)
let run (prog : program) (fn : fn) : int =
  let candidates = ref [] in
  Ir.Fn.iter_instrs
    (fun i -> match i.kind with New _ -> candidates := i :: !candidates | _ -> ())
    fn;
  let replaced = ref 0 in
  List.iter
    (fun (i : instr) ->
      if Ir.Fn.instr_live fn i.id && not (escapes fn i.id) then begin
        replace_one prog fn i;
        incr replaced
      end)
    !candidates;
  if !replaced > 0 then ignore (Simplify.cleanup fn);
  !replaced
