(* Runtime values of the SelVM.

   Objects and arrays are mutable OCaml records; reference equality is
   OCaml physical equality. [Vnull] is the default for object, array and
   also (by language fiat) absent values of any reference-like type. *)

open Ir.Types

type value =
  | Vint of int
  | Vbool of bool
  | Vunit
  | Vstr of string
  | Vnull
  | Vobj of obj
  | Varr of arr

and obj = { o_cls : class_id; fields : value array }

and arr = { ety : ty; elems : value array }

exception Trap of string

let trap fmt = Fmt.kstr (fun s -> raise (Trap s)) fmt

let rec default_value (t : ty) : value =
  match t with
  | Tint -> Vint 0
  | Tbool -> Vbool false
  | Tunit -> Vunit
  | Tstring -> Vstr ""
  | Tarray _ | Tobj _ -> Vnull

and alloc_obj (prog : program) (c : class_id) : value =
  let layout = (Ir.Program.cls prog c).layout in
  Vobj { o_cls = c; fields = Array.map (fun (_, t) -> default_value t) layout }

let alloc_array (ety : ty) (len : int) : value =
  if len < 0 then trap "negative array length %d" len;
  Varr { ety; elems = Array.make len (default_value ety) }

(* The projections' failure arms are out of line, so that each projection
   is small enough for ocamlopt to inline at its call sites; the
   interpreters call them at nearly every heap access. *)
let[@inline never] not_int v =
  trap "expected Int, got %s"
    (match v with
    | Vbool _ -> "Bool" | Vstr _ -> "String" | Vnull -> "null" | Vobj _ -> "object"
    | Varr _ -> "array" | Vunit -> "Unit" | Vint _ -> assert false)

let[@inline never] not_bool _ = trap "expected Bool"
let[@inline never] not_str _ = trap "expected String"

let[@inline never] not_obj = function
  | Vnull -> trap "null dereference"
  | _ -> trap "expected an object"

let[@inline never] not_arr = function
  | Vnull -> trap "null array dereference"
  | _ -> trap "expected an array"

let as_int = function Vint n -> n | v -> not_int v
let as_bool = function Vbool b -> b | v -> not_bool v
let as_str = function Vstr s -> s | v -> not_str v
let as_obj = function Vobj o -> o | v -> not_obj v
let as_arr = function Varr a -> a | v -> not_arr v

(* Reference equality for heap values, structural for primitives. *)
let value_eq (a : value) (b : value) : bool =
  match (a, b) with
  | Vint x, Vint y -> x = y
  | Vbool x, Vbool y -> x = y
  | Vunit, Vunit -> true
  | Vstr x, Vstr y -> x = y
  | Vnull, Vnull -> true
  | Vobj x, Vobj y -> x == y
  | Varr x, Varr y -> x == y
  | _ -> false

let to_string = function
  | Vint n -> string_of_int n
  | Vbool b -> string_of_bool b
  | Vunit -> "()"
  | Vstr s -> s
  | Vnull -> "null"
  | Vobj o -> Printf.sprintf "<obj#%d>" o.o_cls
  | Varr a -> Printf.sprintf "<array[%d]>" (Array.length a.elems)
