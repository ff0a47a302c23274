(* Human-readable IR dumps, used by error messages, tests and the CLI's
   --dump-ir flag. *)

open Types

let rec pp_ty ppf = function
  | Tint -> Fmt.string ppf "Int"
  | Tbool -> Fmt.string ppf "Bool"
  | Tunit -> Fmt.string ppf "Unit"
  | Tstring -> Fmt.string ppf "String"
  | Tarray t -> Fmt.pf ppf "Array[%a]" pp_ty t
  | Tobj c -> Fmt.pf ppf "obj#%d" c

let ty_to_string t = Fmt.str "%a" pp_ty t

let pp_const ppf = function
  | Cint n -> Fmt.int ppf n
  | Cbool b -> Fmt.bool ppf b
  | Cstring s -> Fmt.pf ppf "%S" s
  | Cunit -> Fmt.string ppf "()"
  | Cnull -> Fmt.string ppf "null"

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
  | Shl -> "shl" | Shr -> "shr" | Band -> "band" | Bor -> "bor" | Bxor -> "bxor"
  | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge" | Eq -> "eq" | Ne -> "ne"
  | Andb -> "and" | Orb -> "or" | Xorb -> "xor" | Eqb -> "eqb"

let unop_name = function Neg -> "neg" | Not -> "not"

let intrinsic_name = function
  | Iprint_int -> "print_int"
  | Iprint_str -> "print_str"
  | Iprint_bool -> "print_bool"
  | Istr_len -> "str_len"
  | Istr_get -> "str_get"
  | Istr_eq -> "str_eq"
  | Iabs -> "abs"
  | Imin -> "min"
  | Imax -> "max"

let pp_v ppf v = Fmt.pf ppf "v%d" v
let pp_b ppf b = Fmt.pf ppf "b%d" b
let pp_vs = Fmt.list ~sep:Fmt.comma pp_v

let pp_site ppf { sm; sidx } = Fmt.pf ppf "@m%d.%d" sm sidx

let pp_callee ppf = function
  | Direct m -> Fmt.pf ppf "direct m%d" m
  | Virtual sel -> Fmt.pf ppf "virtual %s" sel

let pp_kind ppf = function
  | Const c -> Fmt.pf ppf "const %a" pp_const c
  | Param i -> Fmt.pf ppf "param %d" i
  | Unop (op, a) -> Fmt.pf ppf "%s %a" (unop_name op) pp_v a
  | Binop (op, a, b) -> Fmt.pf ppf "%s %a, %a" (binop_name op) pp_v a pp_v b
  | Phi { ty; inputs } ->
      Fmt.pf ppf "phi:%a [%a]" pp_ty ty
        (Fmt.list ~sep:Fmt.comma (fun ppf (b, v) -> Fmt.pf ppf "%a: %a" pp_b b pp_v v))
        inputs
  | Call { callee; args; site; rty } ->
      Fmt.pf ppf "call %a(%a) : %a %a" pp_callee callee pp_vs args pp_ty rty pp_site site
  | New c -> Fmt.pf ppf "new obj#%d" c
  | GetField { obj; slot; fname; fty } ->
      Fmt.pf ppf "getfield %a.%s[%d] : %a" pp_v obj fname slot pp_ty fty
  | SetField { obj; slot; fname; value } ->
      Fmt.pf ppf "setfield %a.%s[%d] <- %a" pp_v obj fname slot pp_v value
  | NewArray { ety; len } -> Fmt.pf ppf "newarray %a[%a]" pp_ty ety pp_v len
  | ArrayGet { arr; idx; ety } ->
      Fmt.pf ppf "arrayget %a[%a] : %a" pp_v arr pp_v idx pp_ty ety
  | ArraySet { arr; idx; value } -> Fmt.pf ppf "arrayset %a[%a] <- %a" pp_v arr pp_v idx pp_v value
  | ArrayLen a -> Fmt.pf ppf "arraylen %a" pp_v a
  | TypeTest { obj; cls } -> Fmt.pf ppf "typetest %a is obj#%d" pp_v obj cls
  | Intrinsic (i, args) -> Fmt.pf ppf "%s(%a)" (intrinsic_name i) pp_vs args

let pp_term ppf = function
  | Goto b -> Fmt.pf ppf "goto %a" pp_b b
  | If { cond; tb; fb; site } -> Fmt.pf ppf "if %a then %a else %a %a" pp_v cond pp_b tb pp_b fb pp_site site
  | Return v -> Fmt.pf ppf "return %a" pp_v v
  | Unreachable -> Fmt.string ppf "unreachable"

let pp_fn ppf (fn : fn) =
  Fmt.pf ppf "@[<v>fn %s(%a) : %a  entry=%a@,"
    fn.fname
    (Fmt.array ~sep:Fmt.comma pp_ty) fn.param_tys
    pp_ty fn.rty pp_b fn.entry;
  Fn.iter_blocks
    (fun blk ->
      Fmt.pf ppf "%a:@," pp_b blk.b_id;
      List.iter
        (fun v -> Fmt.pf ppf "  %a = %a@," pp_v v pp_kind (Fn.kind fn v))
        blk.instrs;
      Fmt.pf ppf "  %a@," pp_term blk.term)
    fn;
  Fmt.pf ppf "@]"

let fn_to_string fn = Fmt.str "%a" pp_fn fn
