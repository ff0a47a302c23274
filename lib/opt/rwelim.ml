(* Local read/write elimination: per-block store-to-load forwarding,
   redundant-load elimination and dead-store removal for object fields,
   plus fresh-allocation default-value folding.

   The paper applies read-write elimination to the root method at the end
   of every inlining round because it "partially restores the method
   receiver type information that is lost when writing values to memory
   (and later reading the same values)" — exactly store-to-load
   forwarding: after inlining a constructor, a load of the receiver field
   forwards the stored lambda/receiver object, whose type is exact.

   Aliasing discipline (conservative, block-local):
   - keys are (base vid, slot); two different base vids may alias unless
     one of them is a fresh allocation that has not escaped;
   - a store to slot [s] through base [b] kills every (b', s) with b' ≠ b
     unless b' is fresh-and-unescaped and distinct from b;
   - any call kills everything and marks every object as escaped;
   - field loads from a fresh, unescaped, unwritten slot yield the default
     value for the field type. *)

open Ir.Types

type cell = { base : vid; slot : int }

let default_const (t : ty) : const option =
  match t with
  | Tint -> Some (Cint 0)
  | Tbool -> Some (Cbool false)
  | Tstring -> Some (Cstring "")
  | Tunit -> Some Cunit
  | Tarray _ | Tobj _ -> Some Cnull

(* The tables are made once per run and cleared per block: a round runs
   this over the whole root, so a block with no field traffic should
   allocate nothing. Only removals iterate [known] and [last_store], so
   the clearing (which keeps the bucket arrays) and the in-place filters
   leave exactly the contents that fresh tables and copies would. *)
let run (prog : program) (fn : fn) : int =
  ignore prog;
  let eliminated = ref 0 in
  let known : (cell, vid) Hashtbl.t = Hashtbl.create 16 in
  (* fresh allocations in this block that have not escaped yet; maps the
     vid to the set of slots that have been stored *)
  let fresh : (vid, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  let last_store : (cell, vid) Hashtbl.t = Hashtbl.create 16 in
  let dead_stores = ref [] in
  let escape v = Hashtbl.remove fresh v in
  let kill_slot ~(except : vid) slot =
    Hashtbl.filter_map_inplace
      (fun cell v ->
        if cell.slot = slot && cell.base <> except && not (Hashtbl.mem fresh cell.base) then
          None
        else Some v)
      known
  in
  let visit v =
    if Ir.Fn.instr_live fn v then
      let i = Ir.Fn.instr fn v in
      match i.kind with
      | New _ -> Hashtbl.replace fresh v (Hashtbl.create 4)
      | SetField { obj; slot; value; _ } ->
          let cell = { base = obj; slot } in
          (* dead store: a previous store to the same cell with no
             intervening load/call (calls clear [last_store]) *)
          (match Hashtbl.find_opt last_store cell with
          | Some prev -> dead_stores := prev :: !dead_stores
          | None -> ());
          Hashtbl.replace last_store cell v;
          Hashtbl.replace known cell value;
          kill_slot ~except:obj slot;
          (match Hashtbl.find_opt fresh obj with
          | Some written -> Hashtbl.replace written slot ()
          | None -> ());
          (* storing an object INTO a field lets it escape *)
          escape value
      | GetField { obj; slot; fty; _ } -> (
          (* a load through any base may observe stores through an
             aliasing base: keep earlier stores to this slot alive *)
          Hashtbl.filter_map_inplace
            (fun (cell : cell) prev -> if cell.slot = slot then None else Some prev)
            last_store;
          let cell = { base = obj; slot } in
          match Hashtbl.find_opt known cell with
          | Some stored ->
              Ir.Fn.replace_uses fn ~old_v:v ~new_v:stored;
              Ir.Fn.delete_instr fn v;
              incr eliminated
          | None -> (
              match Hashtbl.find_opt fresh obj with
              | Some written when not (Hashtbl.mem written slot) -> (
                  match default_const fty with
                  | Some c ->
                      Ir.Fn.set_kind fn v (Const c);
                      incr eliminated
                  | None -> ())
              | _ ->
                  (* remember the loaded value; a second load forwards *)
                  Hashtbl.replace known cell v))
      | Call { args; _ } ->
          List.iter escape args;
          Hashtbl.clear known;
          Hashtbl.clear fresh;
          Hashtbl.clear last_store
      | ArraySet { value; _ } -> escape value
      | Phi { inputs; _ } -> List.iter (fun (_, pv) -> escape pv) inputs
      | NewArray _ | ArrayGet _ | ArrayLen _ | Const _ | Param _ | Unop _
      | Binop _ | TypeTest _ -> ()
      | Intrinsic _ -> ()
  in
  let delete_dead v =
    if Ir.Fn.instr_live fn v then begin
      Ir.Fn.delete_instr fn v;
      incr eliminated
    end
  in
  Ir.Fn.iter_blocks
    (fun blk ->
      Hashtbl.clear known;
      Hashtbl.clear fresh;
      Hashtbl.clear last_store;
      dead_stores := [];
      List.iter visit blk.instrs;
      (* a value still counted fresh at block end escapes via the
         terminator or later blocks; dead stores collected above are safe
         only if the cell was overwritten in the same block before any
         call/load — which the [last_store] discipline guarantees;
         escaping via Return needs nothing: freshness is block-local *)
      List.iter delete_dead !dead_stores)
    fn;
  !eliminated
