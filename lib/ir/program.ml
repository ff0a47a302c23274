(* Program-level tables: classes, methods, dispatch.

   The class table supports the queries the optimizer and inliner need:
   subtype tests (for type-test folding), unique-concrete-subtype (for
   devirtualization without profiles) and virtual dispatch resolution (for
   both the interpreter and polymorphic inlining). *)

open Types
module Vec = Support.Vec

(* The vec dummies are immediate values (never exposed): slots past the
   length are unreachable through the Vec API. *)
let dummy_cls : cls =
  { c_id = -1; c_name = "<dummy>"; parent = None; layout = [||]; vtable = []; is_abstract = true }

let dummy_meth : meth =
  { m_id = -1; m_name = "<dummy>"; selector = "<dummy>"; owner = None;
    m_param_tys = [||]; m_rty = Tunit; body = None }

let create () =
  {
    classes = Vec.create ~dummy:dummy_cls;
    meths = Vec.create ~dummy:dummy_meth;
    meth_by_name = Hashtbl.create 64;
    main = -1;
    resolve_memo = Hashtbl.create 128;
    subtypes_memo = Hashtbl.create 32;
  }

(* Any change to the class table or a vtable can change what a selector
   resolves to anywhere down the hierarchy, and a new class or parent
   link what lies below a class. *)
let invalidate_dispatch p =
  Hashtbl.reset p.resolve_memo;
  Hashtbl.reset p.subtypes_memo

let cls p (c : class_id) : cls =
  if c < 0 || c >= Vec.length p.classes then
    invalid_arg (Printf.sprintf "Program.cls: unknown class %d" c);
  Vec.get p.classes c

let meth p (m : meth_id) : meth =
  if m < 0 || m >= Vec.length p.meths then
    invalid_arg (Printf.sprintf "Program.meth: unknown method %d" m);
  Vec.get p.meths m

let find_meth p name : meth_id option =
  Hashtbl.find_opt p.meth_by_name name

let num_classes p = Vec.length p.classes
let num_meths p = Vec.length p.meths

let add_class p ~name ~parent ~abstract ~own_fields : class_id =
  let c_id = Vec.length p.classes in
  let inherited =
    match parent with
    | None -> [||]
    | Some pc -> (cls p pc).layout
  in
  let layout = Array.append inherited (Array.of_list own_fields) in
  Vec.push p.classes
    { c_id; c_name = name; parent; layout; vtable = []; is_abstract = abstract };
  invalidate_dispatch p;
  c_id

let set_parent p (c : class_id) ~(parent : class_id option) : unit =
  Vec.set p.classes c { (cls p c) with parent };
  invalidate_dispatch p

let add_meth p ~name ~selector ~owner ~param_tys ~rty : meth_id =
  if Hashtbl.mem p.meth_by_name name then
    invalid_arg (Printf.sprintf "Program.add_meth: duplicate method %s" name);
  let m_id = Vec.length p.meths in
  Vec.push p.meths
    { m_id; m_name = name; selector; owner; m_param_tys = param_tys; m_rty = rty; body = None };
  Hashtbl.replace p.meth_by_name name m_id;
  m_id

let set_body p m fn = (meth p m).body <- Some fn

(* Installs [m] in the vtable of its owner class, replacing any inherited
   entry for the same selector. Call after all classes exist. *)
let register_in_vtable p (m : meth_id) =
  let mm = meth p m in
  match mm.owner with
  | None -> ()
  | Some c ->
      let klass = cls p c in
      klass.vtable <-
        (mm.selector, m) :: List.remove_assoc mm.selector klass.vtable;
      invalidate_dispatch p

(* Walks up the hierarchy to resolve [selector] on receiver class [c]. *)
let rec resolve_walk p (c : class_id) (selector : string) : meth_id option =
  let klass = cls p c in
  match List.assoc_opt selector klass.vtable with
  | Some m -> Some m
  | None -> (
      match klass.parent with
      | Some parent -> resolve_walk p parent selector
      | None -> None)

(* Memoized dispatch: the interpreter resolves the same (receiver class,
   selector) pair on every virtual call, so the walk is paid once per pair
   per program epoch (see [invalidate_dispatch]). *)
let resolve p (c : class_id) (selector : string) : meth_id option =
  let key = (c, selector) in
  match Hashtbl.find_opt p.resolve_memo key with
  | Some r -> r
  | None ->
      let r = resolve_walk p c selector in
      Hashtbl.replace p.resolve_memo key r;
      r

(* A top-level walk rather than a local closure over [p] and [sup]: the
   threaded tier asks at every type test a compiled typeswitch runs, and
   a closure would be allocated per question. *)
let rec is_subclass_walk p (c : class_id) (sup : class_id) : bool =
  c = sup
  || match (cls p c).parent with Some parent -> is_subclass_walk p parent sup | None -> false

let is_subclass p ~(sub : class_id) ~(sup : class_id) : bool = is_subclass_walk p sub sup

(* Direct subclasses of [c]. *)
let subclasses p (c : class_id) : class_id list =
  let acc = ref [] in
  Vec.iter
    (fun k -> if k.parent = Some c then acc := k.c_id :: !acc)
    p.classes;
  List.rev !acc

(* All concrete (non-abstract) classes at or below [c]. Each walk scans
   the class table once per class it reaches, and the canonicalizer asks
   at every virtual call and type test it visits, so the answer is
   memoized per class until the class table changes. *)
let concrete_subtypes p (c : class_id) : class_id list =
  match Hashtbl.find_opt p.subtypes_memo c with
  | Some r -> r
  | None ->
      let acc = ref [] in
      let rec go c =
        let k = cls p c in
        if not k.is_abstract then acc := c :: !acc;
        List.iter go (subclasses p c)
      in
      go c;
      let r = List.rev !acc in
      Hashtbl.replace p.subtypes_memo c r;
      r

(* When a class hierarchy has exactly one concrete implementation below a
   static receiver type, virtual calls through it can be devirtualized
   without a profile (a simple class-hierarchy analysis). *)
let unique_concrete_subtype p (c : class_id) : class_id option =
  match concrete_subtypes p c with [ only ] -> Some only | _ -> None

let field_slot p (c : class_id) (fname : string) : int option =
  let layout = (cls p c).layout in
  let rec find i =
    if i >= Array.length layout then None
    else if fst layout.(i) = fname then Some i
    else find (i + 1)
  in
  find 0

let iter_meths f p = Vec.iter f p.meths
let iter_classes f p = Vec.iter f p.classes

(* Total size of all method bodies; used in tests and engine stats. *)
let total_ir_size p =
  Vec.fold_left
    (fun acc (m : meth) -> match m.body with Some fn -> acc + Fn.size fn | None -> acc)
    0 p.meths
