(* Name resolution, type checking and lambda lifting.

   Produces the program's class/method tables (an [Ir.Types.program]) plus a
   checked [Tast.tmethod] per concrete method, ready for SSA lowering.

   Lambdas are lifted the way scalac lifts closures: each lambda becomes a
   fresh class extending a synthetic, signature-specific function base class
   (with one abstract [apply] method); captured variables become constructor
   parameters and fields. Captures are by reference for objects and by value
   for immutable primitives; capturing a *mutable* local is rejected (use a
   one-field box class instead), which keeps capture semantics exact. *)

open Ir.Types
open Tast

exception Type_error of string * Ast.pos

let err pos fmt = Fmt.kstr (fun s -> raise (Type_error (s, pos))) fmt

type local = { slot : int; lty : ty; mutbl : bool }

type capture = {
  cap_name : string;          (* "$this" for the enclosing receiver *)
  cap_ty : ty;
  cap_init : Tast.texpr;      (* evaluated in the enclosing frame *)
}

type ctx = {
  prog : program;
  cenv : (string, class_id) Hashtbl.t;
  (* signature-mangled name -> function base class; plus the reverse so we
     can recognize "callable" object types. *)
  fnbases : (string, class_id) Hashtbl.t;
  fnsigs : (class_id, ty list * ty) Hashtbl.t;
  mutable lambda_count : int;
  mutable tmethods : Tast.tmethod list;
}

type mkind =
  | Mplain
  | Mlambda of { outer : mctx; mutable caps : capture list }

and mctx = {
  c : ctx;
  mutable locals : (string * local) list;  (* innermost first *)
  mutable nslots : int;
  this_cls : class_id option;
  kind : mkind;
}

(* ---------- type utilities ---------- *)

let null_cls = -1

let rec resolve_ty ctx pos (t : Ast.tyx) : ty =
  match t with
  | Tx_int -> Tint
  | Tx_bool -> Tbool
  | Tx_unit -> Tunit
  | Tx_string -> Tstring
  | Tx_array t -> Tarray (resolve_ty ctx pos t)
  | Tx_named n -> (
      match Hashtbl.find_opt ctx.cenv n with
      | Some c -> Tobj c
      | None -> err pos "unknown type %s" n)
  | Tx_fun (args, r) ->
      let ptys = List.map (resolve_ty ctx pos) args in
      let rty = resolve_ty ctx pos r in
      Tobj (fnbase ctx ptys rty)

(* The synthetic base class for function values of a given signature. *)
and fnbase ctx (ptys : ty list) (rty : ty) : class_id =
  let key =
    Fmt.str "Fn[(%a)=>%a]"
      (Fmt.list ~sep:Fmt.comma Ir.Printer.pp_ty) ptys
      Ir.Printer.pp_ty rty
  in
  match Hashtbl.find_opt ctx.fnbases key with
  | Some c -> c
  | None ->
      let c =
        Ir.Program.add_class ctx.prog ~name:key ~parent:None ~abstract:true ~own_fields:[]
      in
      let apply =
        Ir.Program.add_meth ctx.prog
          ~name:(key ^ ".apply") ~selector:"apply" ~owner:(Some c)
          ~param_tys:(Array.of_list (Tobj c :: ptys)) ~rty
      in
      Ir.Program.register_in_vtable ctx.prog apply;
      Hashtbl.replace ctx.fnbases key c;
      Hashtbl.replace ctx.fnsigs c (ptys, rty);
      c

let assignable prog ~(from : ty) ~(to_ : ty) : bool =
  from = to_
  ||
  match (from, to_) with
  | Tobj f, (Tobj _ | Tarray _) when f = null_cls -> true
  | Tobj a, Tobj b -> Ir.Program.is_subclass prog ~sub:a ~sup:b
  | _ -> false

(* Least common supertype for if-join purposes; [None] when unrelated. *)
let join_ty prog t1 t2 : ty option =
  if t1 = t2 then Some t1
  else
    match (t1, t2) with
    | Tobj f, other when f = null_cls -> if assignable prog ~from:t1 ~to_:other then Some other else None
    | other, Tobj f when f = null_cls -> if assignable prog ~from:t2 ~to_:other then Some other else None
    | Tobj a, Tobj b ->
        let rec ancestors c acc =
          let acc = c :: acc in
          match (Ir.Program.cls prog c).parent with
          | Some p -> ancestors p acc
          | None -> acc
        in
        let bs = ancestors b [] in
        let rec up c =
          if List.mem c bs then Some (Tobj c)
          else
            match (Ir.Program.cls prog c).parent with
            | Some p -> up p
            | None -> None
        in
        up a
    | _ -> None

(* ---------- name resolution with lambda capture ---------- *)

let this_ty mctx pos : ty =
  match mctx.this_cls with
  | Some c -> Tobj c
  | None -> err pos "'this' used outside of a class"

(* Adds a capture (or returns the existing one) and yields its field slot.
   Lambda classes have no inherited fields, so the slot is the capture
   index. *)
let add_capture (l : mkind) (cap_name : string) (cap_ty : ty) (cap_init : Tast.texpr) : int =
  match l with
  | Mplain -> invalid_arg "add_capture: not a lambda context"
  | Mlambda lam -> (
      let rec find i = function
        | [] -> None
        | c :: _ when c.cap_name = cap_name -> Some i
        | _ :: rest -> find (i + 1) rest
      in
      match find 0 lam.caps with
      | Some i -> i
      | None ->
          lam.caps <- lam.caps @ [ { cap_name; cap_ty; cap_init } ];
          List.length lam.caps - 1)

let lambda_this (mctx : mctx) pos : Tast.texpr =
  { ty = this_ty mctx pos; k = Tlocal 0; pos }

(* Resolves 'this' in the current frame, capturing through lambdas. *)
let rec resolve_this (mctx : mctx) pos : Tast.texpr =
  match mctx.kind with
  | Mplain -> (
      match mctx.this_cls with
      | Some c -> { ty = Tobj c; k = Tlocal 0; pos }
      | None -> err pos "'this' used outside of a class")
  | Mlambda { outer; _ } ->
      let outer_this = resolve_this outer pos in
      let slot = add_capture mctx.kind "$this" outer_this.ty outer_this in
      { ty = outer_this.ty; k = Tgetfield (lambda_this mctx pos, slot, "$this", outer_this.ty); pos }

(* Looks a variable up in the current frame. Returns the access expression
   plus whether it denotes a mutable location (for assignment checking). *)
let rec resolve_var (mctx : mctx) (name : string) pos : (Tast.texpr * bool) option =
  match List.assoc_opt name mctx.locals with
  | Some { slot; lty; mutbl } -> Some ({ ty = lty; k = Tlocal slot; pos }, mutbl)
  | None -> (
      match mctx.kind with
      | Mplain -> (
          (* a bare name inside a class body may be a field of [this] *)
          match mctx.this_cls with
          | Some c -> (
              match Ir.Program.field_slot mctx.c.prog c name with
              | Some slot ->
                  let fty = snd (Ir.Program.cls mctx.c.prog c).layout.(slot) in
                  Some
                    ( { ty = fty; k = Tgetfield ({ ty = Tobj c; k = Tlocal 0; pos }, slot, name, fty); pos },
                      true )
              | None -> None)
          | None -> None)
      | Mlambda { outer; _ } -> (
          match resolve_var outer name pos with
          | None -> None
          | Some (outer_expr, mutbl) -> (
              match outer_expr.k with
              | Tgetfield (base, slot, fname, fty) ->
                  (* capture the receiver object; field mutation stays visible *)
                  let base_slot = add_capture mctx.kind ("$recv_" ^ name) base.ty base in
                  let base_access : Tast.texpr =
                    { ty = base.ty;
                      k = Tgetfield (lambda_this mctx pos, base_slot, "$recv_" ^ name, base.ty);
                      pos }
                  in
                  Some ({ ty = fty; k = Tgetfield (base_access, slot, fname, fty); pos }, true)
              | Tlocal _ when mutbl ->
                  err pos
                    "cannot capture mutable variable %s in a lambda; wrap it in a one-field box class"
                    name
              | _ ->
                  let slot = add_capture mctx.kind name outer_expr.ty outer_expr in
                  Some
                    ( { ty = outer_expr.ty;
                        k = Tgetfield (lambda_this mctx pos, slot, name, outer_expr.ty);
                        pos },
                      false ))))

(* ---------- expression checking ---------- *)

let intrinsic_names = [ "print"; "println"; "strget"; "streq"; "abs"; "min"; "max" ]

let rec check_expr ?(expect : ty option) (mctx : mctx) (e : Ast.expr) : Tast.texpr =
  let ctx = mctx.c in
  let prog = ctx.prog in
  let pos = e.pos in
  match e.e with
  | Eint n -> { ty = Tint; k = Tconst (Cint n); pos }
  | Ebool b -> { ty = Tbool; k = Tconst (Cbool b); pos }
  | Estr s -> { ty = Tstring; k = Tconst (Cstring s); pos }
  | Eunit -> { ty = Tunit; k = Tconst Cunit; pos }
  | Enull -> { ty = Tobj null_cls; k = Tconst Cnull; pos }
  | Ethis -> resolve_this mctx pos
  | Evar name -> (
      match resolve_var mctx name pos with
      | Some (te, _) -> te
      | None -> err pos "unbound variable %s" name)
  | Efield (recv, fname) -> (
      let trecv = check_expr mctx recv in
      match (trecv.ty, fname) with
      | Tarray _, "length" -> { ty = Tint; k = Tarraylen trecv; pos }
      | Tstring, "length" -> { ty = Tint; k = Tintrinsic (Istr_len, [ trecv ]); pos }
      | Tobj c, _ when c <> null_cls -> (
          match Ir.Program.field_slot prog c fname with
          | Some slot ->
              let fty = snd (Ir.Program.cls prog c).layout.(slot) in
              { ty = fty; k = Tgetfield (trecv, slot, fname, fty); pos }
          | None -> err pos "class %s has no field %s" (Ir.Program.cls prog c).c_name fname)
      | t, _ -> err pos "type %s has no field %s" (Ir.Printer.ty_to_string t) fname)
  | Emethod (recv, m, args) -> (
      let trecv = check_expr mctx recv in
      match trecv.ty with
      | Tobj c when c <> null_cls -> check_virtual mctx pos trecv c m args
      | t -> err pos "type %s has no method %s" (Ir.Printer.ty_to_string t) m)
  | Einvoke (name, args) -> (
      (* locals / captures / fields holding a function value *)
      match resolve_var mctx name pos with
      | Some (te, _) -> (
          match te.ty with
          | Tobj c when Hashtbl.mem ctx.fnsigs c -> check_apply mctx pos te c args
          | t ->
              err pos "%s has type %s and cannot be called" name (Ir.Printer.ty_to_string t))
      | None -> (
          (* member method of the (possibly captured) receiver *)
          let member =
            match enclosing_this_cls mctx with
            | Some c -> Ir.Program.resolve prog c name
            | None -> None
          in
          match member with
          | Some _ ->
              let tthis = resolve_this mctx pos in
              let c = (match tthis.ty with Tobj c -> c | _ -> assert false) in
              check_virtual mctx pos tthis c name args
          | None -> (
              match Ir.Program.find_meth prog name with
              | Some m ->
                  let mm = Ir.Program.meth prog m in
                  let targs = check_args mctx pos name args (Array.to_list mm.m_param_tys) in
                  (* top-level functions carry a dummy Unit receiver slot *)
                  let unit_arg : Tast.texpr = { ty = Tunit; k = Tconst Cunit; pos } in
                  { ty = mm.m_rty; k = Tast.Tstatic (m, unit_arg :: targs); pos }
              | None ->
                  if List.mem name intrinsic_names then check_intrinsic mctx pos name args
                  else err pos "unknown function %s" name)))
  | Eapply (callee, args) -> (
      let tc = check_expr mctx callee in
      match tc.ty with
      | Tobj c when Hashtbl.mem ctx.fnsigs c -> check_apply mctx pos tc c args
      | t -> err pos "value of type %s cannot be called" (Ir.Printer.ty_to_string t))
  | Enew (cname, args) -> (
      match Hashtbl.find_opt ctx.cenv cname with
      | None -> err pos "unknown class %s" cname
      | Some c ->
          if (Ir.Program.cls prog c).is_abstract then
            err pos "cannot instantiate abstract class %s" cname;
          let init =
            match Ir.Program.find_meth prog (cname ^ ".<init>") with
            | Some m -> m
            | None -> err pos "class %s has no constructor" cname
          in
          let mm = Ir.Program.meth prog init in
          let targs =
            check_args mctx pos ("new " ^ cname) args (Array.to_list mm.m_param_tys)
          in
          { ty = Tobj c; k = Tnew (c, init, targs); pos })
  | Enewarr (ety, len) ->
      let ety = resolve_ty ctx pos ety in
      let tlen = check_expr mctx len in
      require pos prog ~what:"array length" ~from:tlen.ty ~to_:Tint;
      { ty = Tarray ety; k = Tnewarr (ety, tlen); pos }
  | Elambda (params, body) -> check_lambda ?expect mctx pos params body
  | Eif (cond, then_, else_) -> (
      let tc = check_expr mctx cond in
      require pos prog ~what:"if condition" ~from:tc.ty ~to_:Tbool;
      let tt = check_expr ?expect mctx then_ in
      match else_ with
      | None -> { ty = Tunit; k = Tif (tc, tt, None); pos }
      | Some else_ ->
          let te = check_expr ?expect mctx else_ in
          let ty = match join_ty prog tt.ty te.ty with Some t -> t | None -> Tunit in
          { ty; k = Tif (tc, tt, Some te); pos })
  | Ewhile (cond, body) ->
      let tc = check_expr mctx cond in
      require pos prog ~what:"while condition" ~from:tc.ty ~to_:Tbool;
      let tb = check_expr mctx body in
      { ty = Tunit; k = Twhile (tc, tb); pos }
  | Eblock stmts ->
      let saved = mctx.locals in
      let tstmts = List.mapi (fun i s -> check_stmt ?expect ~last:(i = List.length stmts - 1) mctx s) stmts in
      mctx.locals <- saved;
      let ty =
        match List.rev tstmts with
        | Tast.TSexpr te :: _ -> te.ty
        | _ -> Tunit
      in
      { ty; k = Tblock tstmts; pos }
  | Eassign (lv, rhs) -> check_assign mctx pos lv rhs
  | Ebin (op, a, b) -> check_bin mctx pos op a b
  | Eun (op, a) -> (
      let ta = check_expr mctx a in
      match op with
      | "!" ->
          require pos prog ~what:"operand of !" ~from:ta.ty ~to_:Tbool;
          { ty = Tbool; k = Tunop (Not, ta); pos }
      | "-" ->
          require pos prog ~what:"operand of unary -" ~from:ta.ty ~to_:Tint;
          { ty = Tint; k = Tunop (Neg, ta); pos }
      | _ -> err pos "unknown unary operator %s" op)
  | Eindex (arr, idx) -> (
      let ta = check_expr mctx arr in
      let ti = check_expr mctx idx in
      require pos prog ~what:"array index" ~from:ti.ty ~to_:Tint;
      match ta.ty with
      | Tarray ety -> { ty = ety; k = Tindex (ta, ti, ety); pos }
      | Tstring -> { ty = Tint; k = Tintrinsic (Istr_get, [ ta; ti ]); pos }
      | t -> err pos "type %s cannot be indexed" (Ir.Printer.ty_to_string t))

and enclosing_this_cls (mctx : mctx) : class_id option =
  match mctx.kind with
  | Mplain -> mctx.this_cls
  | Mlambda { outer; _ } -> enclosing_this_cls outer

and require pos prog ~what ~from ~to_ =
  if not (assignable prog ~from ~to_) then
    err pos "%s: expected %s but found %s" what
      (Ir.Printer.ty_to_string to_) (Ir.Printer.ty_to_string from)

(* [ptys] is the full signature including the receiver/this slot, which is
   not supplied syntactically and gets dropped here. *)
and check_args mctx pos what (args : Ast.expr list) (ptys : ty list) =
  match ptys with
  | [] -> invalid_arg "check_args: empty signature"
  | _this :: expected ->
      if List.length args <> List.length expected then
        err pos "%s expects %d argument(s) but got %d" what (List.length expected)
          (List.length args);
      List.map2
        (fun a pty ->
          let ta = check_expr ~expect:pty mctx a in
          require a.Ast.pos mctx.c.prog ~what ~from:ta.ty ~to_:pty;
          ta)
        args expected

and check_virtual mctx pos recv c m args : Tast.texpr =
  let prog = mctx.c.prog in
  match Ir.Program.resolve prog c m with
  | None -> err pos "class %s has no method %s" (Ir.Program.cls prog c).c_name m
  | Some mid ->
      let mm = Ir.Program.meth prog mid in
      let targs = check_args mctx pos m args (Array.to_list mm.m_param_tys) in
      { ty = mm.m_rty; k = Tvirtual (recv, m, targs, mm.m_rty); pos }

and check_apply mctx pos (f : Tast.texpr) (fnb : class_id) args : Tast.texpr =
  let ptys, rty = Hashtbl.find mctx.c.fnsigs fnb in
  if List.length args <> List.length ptys then
    err pos "function expects %d argument(s) but got %d" (List.length ptys) (List.length args);
  let targs =
    List.map2
      (fun a pty ->
        let ta = check_expr ~expect:pty mctx a in
        require a.Ast.pos mctx.c.prog ~what:"function argument" ~from:ta.ty ~to_:pty;
        ta)
      args ptys
  in
  { ty = rty; k = Tvirtual (f, "apply", targs, rty); pos }

and check_intrinsic mctx pos name args : Tast.texpr =
  let targs = List.map (check_expr mctx) args in
  let arity n =
    if List.length targs <> n then err pos "%s expects %d argument(s)" name n
  in
  let arg i = List.nth targs i in
  let prog = mctx.c.prog in
  match name with
  | "print" | "println" -> (
      arity 1;
      let a = arg 0 in
      let prim =
        match a.ty with
        | Tint -> Iprint_int
        | Tbool -> Iprint_bool
        | Tstring -> Iprint_str
        | t -> err pos "cannot print a value of type %s" (Ir.Printer.ty_to_string t)
      in
      let p : Tast.texpr = { ty = Tunit; k = Tintrinsic (prim, [ a ]); pos } in
      match name with
      | "print" -> p
      | _ ->
          let nl : Tast.texpr =
            { ty = Tunit;
              k = Tintrinsic (Iprint_str, [ { ty = Tstring; k = Tconst (Cstring "\n"); pos } ]);
              pos }
          in
          { ty = Tunit; k = Tblock [ TSexpr p; TSexpr nl ]; pos })
  | "strget" ->
      arity 2;
      require pos prog ~what:"strget string" ~from:(arg 0).ty ~to_:Tstring;
      require pos prog ~what:"strget index" ~from:(arg 1).ty ~to_:Tint;
      { ty = Tint; k = Tintrinsic (Istr_get, targs); pos }
  | "streq" ->
      arity 2;
      require pos prog ~what:"streq operand" ~from:(arg 0).ty ~to_:Tstring;
      require pos prog ~what:"streq operand" ~from:(arg 1).ty ~to_:Tstring;
      { ty = Tbool; k = Tintrinsic (Istr_eq, targs); pos }
  | "abs" ->
      arity 1;
      require pos prog ~what:"abs operand" ~from:(arg 0).ty ~to_:Tint;
      { ty = Tint; k = Tintrinsic (Iabs, targs); pos }
  | "min" | "max" ->
      arity 2;
      require pos prog ~what:(name ^ " operand") ~from:(arg 0).ty ~to_:Tint;
      require pos prog ~what:(name ^ " operand") ~from:(arg 1).ty ~to_:Tint;
      { ty = Tint; k = Tintrinsic ((if name = "min" then Imin else Imax), targs); pos }
  | _ -> err pos "unknown function %s" name

and check_bin mctx pos op a b : Tast.texpr =
  let prog = mctx.c.prog in
  match op with
  | "&&" ->
      let ta = check_expr mctx a and tb = check_expr mctx b in
      require pos prog ~what:"operand of &&" ~from:ta.ty ~to_:Tbool;
      require pos prog ~what:"operand of &&" ~from:tb.ty ~to_:Tbool;
      { ty = Tbool; k = Tif (ta, tb, Some { ty = Tbool; k = Tconst (Cbool false); pos }); pos }
  | "||" ->
      let ta = check_expr mctx a and tb = check_expr mctx b in
      require pos prog ~what:"operand of ||" ~from:ta.ty ~to_:Tbool;
      require pos prog ~what:"operand of ||" ~from:tb.ty ~to_:Tbool;
      { ty = Tbool; k = Tif (ta, { ty = Tbool; k = Tconst (Cbool true); pos }, Some tb); pos }
  | "==" | "!=" -> (
      let ta = check_expr mctx a and tb = check_expr mctx b in
      let eq : Tast.texpr =
        match (ta.ty, tb.ty) with
        | Tint, Tint -> { ty = Tbool; k = Tbinop (Eq, ta, tb); pos }
        | Tbool, Tbool -> { ty = Tbool; k = Tbinop (Eqb, ta, tb); pos }
        | Tstring, Tstring -> { ty = Tbool; k = Tintrinsic (Istr_eq, [ ta; tb ]); pos }
        | (Tobj _ | Tarray _), (Tobj _ | Tarray _) -> { ty = Tbool; k = Tbinop (Eq, ta, tb); pos }
        | t1, t2 ->
            err pos "cannot compare %s with %s" (Ir.Printer.ty_to_string t1)
              (Ir.Printer.ty_to_string t2)
      in
      match op with
      | "==" -> eq
      | _ -> { ty = Tbool; k = Tunop (Not, eq); pos })
  | "<" | "<=" | ">" | ">=" ->
      let ta = check_expr mctx a and tb = check_expr mctx b in
      require pos prog ~what:("operand of " ^ op) ~from:ta.ty ~to_:Tint;
      require pos prog ~what:("operand of " ^ op) ~from:tb.ty ~to_:Tint;
      let bop = match op with "<" -> Lt | "<=" -> Le | ">" -> Gt | _ -> Ge in
      { ty = Tbool; k = Tbinop (bop, ta, tb); pos }
  | "+" | "-" | "*" | "/" | "%" | "<<" | ">>" ->
      let ta = check_expr mctx a and tb = check_expr mctx b in
      require pos prog ~what:("operand of " ^ op) ~from:ta.ty ~to_:Tint;
      require pos prog ~what:("operand of " ^ op) ~from:tb.ty ~to_:Tint;
      let bop =
        match op with
        | "+" -> Add | "-" -> Sub | "*" -> Mul | "/" -> Div | "%" -> Rem
        | "<<" -> Shl | _ -> Shr
      in
      { ty = Tint; k = Tbinop (bop, ta, tb); pos }
  | "&" | "|" | "^" -> (
      let ta = check_expr mctx a and tb = check_expr mctx b in
      match (ta.ty, tb.ty) with
      | Tint, Tint ->
          let bop = match op with "&" -> Band | "|" -> Bor | _ -> Bxor in
          { ty = Tint; k = Tbinop (bop, ta, tb); pos }
      | Tbool, Tbool ->
          let bop = match op with "&" -> Andb | "|" -> Orb | _ -> Xorb in
          { ty = Tbool; k = Tbinop (bop, ta, tb); pos }
      | t1, t2 ->
          err pos "operator %s expects Int or Bool operands, found %s and %s" op
            (Ir.Printer.ty_to_string t1) (Ir.Printer.ty_to_string t2))
  | _ -> err pos "unknown operator %s" op

and check_assign mctx pos (lv : Ast.lvalue) (rhs : Ast.expr) : Tast.texpr =
  let prog = mctx.c.prog in
  match lv with
  | Lvar name -> (
      match resolve_var mctx name pos with
      | None -> err pos "unbound variable %s" name
      | Some (te, mutbl) -> (
          if not mutbl then err pos "%s is not assignable (declare it with var)" name;
          let trhs = check_expr ~expect:te.ty mctx rhs in
          require pos prog ~what:("assignment to " ^ name) ~from:trhs.ty ~to_:te.ty;
          match te.k with
          | Tlocal slot -> { ty = Tunit; k = Tassignlocal (slot, trhs); pos }
          | Tgetfield (base, slot, fname, _) ->
              { ty = Tunit; k = Tassignfield (base, slot, fname, trhs); pos }
          | _ -> err pos "%s is not assignable" name))
  | Lfield (obj, fname) -> (
      let tobj = check_expr mctx obj in
      match tobj.ty with
      | Tobj c when c <> null_cls -> (
          match Ir.Program.field_slot prog c fname with
          | None -> err pos "class %s has no field %s" (Ir.Program.cls prog c).c_name fname
          | Some slot ->
              let fty = snd (Ir.Program.cls prog c).layout.(slot) in
              let trhs = check_expr ~expect:fty mctx rhs in
              require pos prog ~what:("assignment to field " ^ fname) ~from:trhs.ty ~to_:fty;
              { ty = Tunit; k = Tassignfield (tobj, slot, fname, trhs); pos })
      | t -> err pos "type %s has no field %s" (Ir.Printer.ty_to_string t) fname)
  | Lindex (arr, idx) -> (
      let ta = check_expr mctx arr in
      let ti = check_expr mctx idx in
      require pos prog ~what:"array index" ~from:ti.ty ~to_:Tint;
      match ta.ty with
      | Tarray ety ->
          let trhs = check_expr ~expect:ety mctx rhs in
          require pos prog ~what:"array element assignment" ~from:trhs.ty ~to_:ety;
          { ty = Tunit; k = Tassignindex (ta, ti, trhs); pos }
      | t -> err pos "type %s cannot be indexed" (Ir.Printer.ty_to_string t))

and check_stmt ?expect ~last (mctx : mctx) (s : Ast.stmt) : Tast.tstmt =
  match s with
  | Sexpr e ->
      let expect = if last then expect else None in
      TSexpr (check_expr ?expect mctx e)
  | Slet { name; mutbl; ty; init; pos } ->
      let ann = Option.map (resolve_ty mctx.c pos) ty in
      let tinit = check_expr ?expect:ann mctx init in
      let lty =
        match ann with
        | Some t ->
            require pos mctx.c.prog ~what:("initializer of " ^ name) ~from:tinit.ty ~to_:t;
            t
        | None ->
            if tinit.ty = Tobj null_cls then
              err pos "cannot infer the type of %s from null; add a type annotation" name;
            tinit.ty
      in
      let slot = mctx.nslots in
      mctx.nslots <- mctx.nslots + 1;
      mctx.locals <- (name, { slot; lty; mutbl }) :: mctx.locals;
      TSlet (slot, tinit)

and check_lambda ?expect mctx pos (params : (string * Ast.tyx) list) (body : Ast.expr) :
    Tast.texpr =
  let ctx = mctx.c in
  let prog = ctx.prog in
  let ptys = List.map (fun (_, t) -> resolve_ty ctx pos t) params in
  (* An expected function type fixes the return type, so that a lambda whose
     body has a more specific type still implements the expected base. *)
  let expected_rty =
    match expect with
    | Some (Tobj c) -> (
        match Hashtbl.find_opt ctx.fnsigs c with
        | Some (eptys, erty) when eptys = ptys -> Some erty
        | _ -> None)
    | _ -> None
  in
  let inner =
    {
      c = ctx;
      locals =
        List.mapi (fun i (name, _) -> (name, { slot = i + 1; lty = List.nth ptys i; mutbl = false }))
          params;
      nslots = List.length params + 1;
      this_cls = None (* patched below; only reachable through [lambda_this] typing *);
      kind = Mlambda { outer = mctx; caps = [] };
    }
  in
  (* [lambda_this] needs a class id before the class exists; reserve it by
     creating the class eagerly with an empty layout and patch the layout
     after the body is checked. *)
  let lam_name = Printf.sprintf "Lambda$%d" ctx.lambda_count in
  ctx.lambda_count <- ctx.lambda_count + 1;
  let lam_cls =
    Ir.Program.add_class prog ~name:lam_name ~parent:None ~abstract:false ~own_fields:[]
  in
  let inner = { inner with this_cls = Some lam_cls } in
  let tbody = check_expr ?expect:expected_rty inner body in
  let rty =
    match expected_rty with
    | Some erty ->
        require pos prog ~what:"lambda body" ~from:tbody.ty ~to_:erty;
        erty
    | None -> tbody.ty
  in
  let fnb = fnbase ctx ptys rty in
  let caps = match inner.kind with Mlambda { caps; _ } -> caps | Mplain -> [] in
  (* finalize the class: parent = fnbase, fields = captures *)
  Ir.Program.set_parent prog lam_cls ~parent:(Some fnb);
  (Ir.Program.cls prog lam_cls).layout <-
    Array.of_list (List.map (fun c -> (c.cap_name, c.cap_ty)) caps);
  (* constructor: stores each capture *)
  let init =
    Ir.Program.add_meth prog ~name:(lam_name ^ ".<init>") ~selector:"<init>"
      ~owner:(Some lam_cls)
      ~param_tys:(Array.of_list (Tobj lam_cls :: List.map (fun c -> c.cap_ty) caps))
      ~rty:Tunit
  in
  let init_body : Tast.texpr =
    let stores =
      List.mapi
        (fun i c ->
          Tast.TSexpr
            {
              ty = Tunit;
              k =
                Tassignfield
                  ( { ty = Tobj lam_cls; k = Tlocal 0; pos },
                    i,
                    c.cap_name,
                    { ty = c.cap_ty; k = Tlocal (i + 1); pos } );
              pos;
            })
        caps
    in
    { ty = Tunit; k = Tblock stores; pos }
  in
  ctx.tmethods <-
    { tm_id = init; nslots = List.length caps + 1; body = init_body } :: ctx.tmethods;
  (* the apply method *)
  let apply =
    Ir.Program.add_meth prog ~name:(lam_name ^ ".apply") ~selector:"apply"
      ~owner:(Some lam_cls)
      ~param_tys:(Array.of_list (Tobj lam_cls :: ptys))
      ~rty
  in
  Ir.Program.register_in_vtable prog apply;
  ctx.tmethods <- { tm_id = apply; nslots = inner.nslots; body = tbody } :: ctx.tmethods;
  (* the lambda expression evaluates to: new Lambda$n(cap inits...) *)
  { ty = Tobj fnb; k = Tnew (lam_cls, init, List.map (fun c -> c.cap_init) caps); pos }

(* ---------- program checking ---------- *)

type source_class = { decl : Ast.classdecl; mutable cid : class_id }

let check_program (prog_ast : Ast.prog) : program * Tast.tmethod list =
  let prog = Ir.Program.create () in
  let ctx =
    {
      prog;
      cenv = Hashtbl.create 32;
      fnbases = Hashtbl.create 8;
      fnsigs = Hashtbl.create 8;
      lambda_count = 0;
      tmethods = [];
    }
  in
  let classes = List.filter_map (function Ast.Dclass c -> Some c | _ -> None) prog_ast in
  let funs = List.filter_map (function Ast.Dfun f -> Some f | _ -> None) prog_ast in
  (* duplicate detection *)
  let seen = Hashtbl.create 32 in
  List.iter
    (fun (c : Ast.classdecl) ->
      if Hashtbl.mem seen c.cname then err c.cpos "duplicate class %s" c.cname;
      if List.mem c.cname [ "Int"; "Bool"; "Unit"; "String"; "Array" ] then
        err c.cpos "class name %s shadows a builtin type" c.cname;
      Hashtbl.add seen c.cname c)
    classes;
  (* create class ids in inheritance (topological) order *)
  let srcs = Hashtbl.create 32 in
  List.iter (fun c -> Hashtbl.add srcs c.Ast.cname { decl = c; cid = -1 }) classes;
  let rec materialize (c : Ast.classdecl) : class_id =
    let src = Hashtbl.find srcs c.cname in
    if src.cid >= 0 then src.cid
    else begin
      if src.cid = -2 then err c.cpos "inheritance cycle involving class %s" c.cname;
      src.cid <- -2;
      let parent =
        match c.parent with
        | None -> None
        | Some (pname, _) -> (
            match Hashtbl.find_opt srcs pname with
            | Some psrc -> Some (materialize psrc.decl)
            | None -> err c.cpos "unknown parent class %s" pname)
      in
      let cid =
        Ir.Program.add_class prog ~name:c.cname ~parent ~abstract:c.abstract ~own_fields:[]
      in
      Hashtbl.replace ctx.cenv c.cname cid;
      src.cid <- cid;
      cid
    end
  in
  List.iter (fun c -> ignore (materialize c)) classes;
  (* layouts: parent first (ids were assigned in topo order) *)
  List.iter
    (fun (c : Ast.classdecl) ->
      let cid = Hashtbl.find ctx.cenv c.cname in
      let klass = Ir.Program.cls prog cid in
      let inherited =
        match klass.parent with Some p -> (Ir.Program.cls prog p).layout | None -> [||]
      in
      let own =
        List.map (fun (n, t) -> (n, resolve_ty ctx c.cpos t)) c.ctor_params
        @ List.filter_map
            (function
              | Ast.Mfield { name; ty; pos } -> Some (name, resolve_ty ctx pos ty)
              | Ast.Mmethod _ -> None)
            c.members
      in
      (* duplicate field check along the chain *)
      List.iter
        (fun (n, _) ->
          if Array.exists (fun (n', _) -> n' = n) inherited then
            err c.cpos "field %s of class %s shadows an inherited field" n c.cname;
          if List.length (List.filter (fun (n', _) -> n' = n) own) > 1 then
            err c.cpos "duplicate field %s in class %s" n c.cname)
        own;
      klass.layout <- Array.append inherited (Array.of_list own))
    (List.sort
       (fun a b ->
         compare (Hashtbl.find ctx.cenv a.Ast.cname) (Hashtbl.find ctx.cenv b.Ast.cname))
       classes);
  (* register methods (signatures only) *)
  List.iter
    (fun (c : Ast.classdecl) ->
      let cid = Hashtbl.find ctx.cenv c.cname in
      (* constructor *)
      let ctor_ptys = List.map (fun (_, t) -> resolve_ty ctx c.cpos t) c.ctor_params in
      ignore
        (Ir.Program.add_meth prog ~name:(c.cname ^ ".<init>") ~selector:"<init>"
           ~owner:(Some cid)
           ~param_tys:(Array.of_list (Tobj cid :: ctor_ptys))
           ~rty:Tunit);
      List.iter
        (function
          | Ast.Mmethod { name; params; rty; pos; _ } ->
              let ptys = List.map (fun (_, t) -> resolve_ty ctx pos t) params in
              let rty = resolve_ty ctx pos rty in
              let mid =
                Ir.Program.add_meth prog
                  ~name:(c.cname ^ "." ^ name)
                  ~selector:name ~owner:(Some cid)
                  ~param_tys:(Array.of_list (Tobj cid :: ptys))
                  ~rty
              in
              (* override compatibility *)
              (match (Ir.Program.cls prog cid).parent with
              | Some p -> (
                  match Ir.Program.resolve prog p name with
                  | Some sup_mid ->
                      let sup = Ir.Program.meth prog sup_mid in
                      let sup_ptys = Array.to_list sup.m_param_tys |> List.tl in
                      if sup_ptys <> ptys || sup.m_rty <> rty then
                        err pos "method %s.%s overrides with an incompatible signature"
                          c.cname name
                  | None -> ())
              | None -> ());
              Ir.Program.register_in_vtable prog mid
          | Ast.Mfield _ -> ())
        c.members)
    classes;
  List.iter
    (fun (f : Ast.fundef) ->
      if Hashtbl.mem prog.meth_by_name f.fname then
        err f.fpos "duplicate function %s" f.fname;
      if List.mem f.fname intrinsic_names then
        err f.fpos "function %s shadows a builtin" f.fname;
      let ptys = List.map (fun (_, t) -> resolve_ty ctx f.fpos t) f.params in
      let rty = resolve_ty ctx f.fpos f.rty in
      (* top-level functions have a dummy Unit "this" slot so that every
         method's parameter list is uniform (slot 0 = receiver). *)
      ignore
        (Ir.Program.add_meth prog ~name:f.fname ~selector:f.fname ~owner:None
           ~param_tys:(Array.of_list (Tunit :: ptys))
           ~rty))
    funs;
  (* check bodies *)
  let check_body ~this_cls ~mid ~params ~rty ~(body : Ast.expr) =
    let ptys =
      List.map (fun (_, t) -> resolve_ty ctx body.Ast.pos t) params
    in
    let mctx =
      {
        c = ctx;
        locals =
          List.mapi
            (fun i (name, _) -> (name, { slot = i + 1; lty = List.nth ptys i; mutbl = false }))
            params;
        nslots = List.length params + 1;
        this_cls;
        kind = Mplain;
      }
    in
    let tbody = check_expr ~expect:rty mctx body in
    if rty <> Tunit then
      require body.Ast.pos prog ~what:"method result" ~from:tbody.ty ~to_:rty;
    ctx.tmethods <- { tm_id = mid; nslots = mctx.nslots; body = tbody } :: ctx.tmethods
  in
  (* constructors *)
  List.iter
    (fun (c : Ast.classdecl) ->
      let cid = Hashtbl.find ctx.cenv c.cname in
      let init = Option.get (Ir.Program.find_meth prog (c.cname ^ ".<init>")) in
      let klass = Ir.Program.cls prog cid in
      let this_e : Tast.texpr = { ty = Tobj cid; k = Tlocal 0; pos = c.cpos } in
      let mctx =
        {
          c = ctx;
          locals =
            List.mapi
              (fun i (name, t) ->
                (name, { slot = i + 1; lty = resolve_ty ctx c.cpos t; mutbl = false }))
              c.ctor_params;
          nslots = List.length c.ctor_params + 1;
          this_cls = Some cid;
          kind = Mplain;
        }
      in
      let parent_call =
        match c.parent with
        | Some (pname, args) ->
            let pcid = Hashtbl.find ctx.cenv pname in
            let pinit = Option.get (Ir.Program.find_meth prog (pname ^ ".<init>")) in
            let pm = Ir.Program.meth prog pinit in
            let expected = Array.to_list pm.m_param_tys |> List.tl in
            if List.length args <> List.length expected then
              err c.cpos "parent constructor %s expects %d argument(s)" pname
                (List.length expected);
            let targs =
              List.map2
                (fun a pty ->
                  let ta = check_expr ~expect:pty mctx a in
                  require a.Ast.pos prog ~what:"parent constructor argument" ~from:ta.ty
                    ~to_:pty;
                  ta)
                args expected
            in
            ignore pcid;
            [ Tast.TSexpr { ty = Tunit; k = Tstatic (pinit, this_e :: targs); pos = c.cpos } ]
        | None -> []
      in
      let own_offset =
        match klass.parent with Some p -> Array.length (Ir.Program.cls prog p).layout | None -> 0
      in
      let stores =
        List.mapi
          (fun i (name, t) ->
            let fty = resolve_ty ctx c.cpos t in
            Tast.TSexpr
              {
                ty = Tunit;
                k =
                  Tassignfield
                    (this_e, own_offset + i, name, { ty = fty; k = Tlocal (i + 1); pos = c.cpos });
                pos = c.cpos;
              })
          c.ctor_params
      in
      let body : Tast.texpr =
        { ty = Tunit; k = Tblock (parent_call @ stores); pos = c.cpos }
      in
      ctx.tmethods <- { tm_id = init; nslots = mctx.nslots; body } :: ctx.tmethods)
    classes;
  (* methods *)
  List.iter
    (fun (c : Ast.classdecl) ->
      let cid = Hashtbl.find ctx.cenv c.cname in
      List.iter
        (function
          | Ast.Mmethod { name; params; rty; body = Some body; pos } ->
              let mid = Option.get (Ir.Program.find_meth prog (c.cname ^ "." ^ name)) in
              check_body ~this_cls:(Some cid) ~mid
                ~params
                ~rty:(resolve_ty ctx pos rty)
                ~body
          | Ast.Mmethod { body = None; _ } | Ast.Mfield _ -> ())
        c.members)
    classes;
  (* A concrete class must implement every abstract method it inherits.
     Bodies are installed later by lowering, so test the declarations, not
     the (still-None) registered bodies. *)
  let declared_abstract = Hashtbl.create 16 in
  List.iter
    (fun (c : Ast.classdecl) ->
      List.iter
        (function
          | Ast.Mmethod { name; body = None; _ } ->
              Hashtbl.replace declared_abstract (c.cname ^ "." ^ name) ()
          | _ -> ())
        c.members)
    classes;
  List.iter
    (fun (c : Ast.classdecl) ->
      if not c.abstract then begin
        let cid = Hashtbl.find ctx.cenv c.cname in
        (* every selector mentioned anywhere up the chain must resolve to a
           concrete implementation *)
        let rec selectors co acc =
          match co with
          | None -> acc
          | Some cc ->
              let kk = Ir.Program.cls prog cc in
              selectors kk.parent (List.map fst kk.vtable @ acc)
        in
        List.iter
          (fun sel ->
            match Ir.Program.resolve prog cid sel with
            | Some mid ->
                let mm = Ir.Program.meth prog mid in
                if Hashtbl.mem declared_abstract mm.m_name then
                  err c.cpos "class %s does not implement abstract method %s" c.cname sel
            | None -> ())
          (List.sort_uniq compare (selectors (Some cid) []))
      end)
    classes;
  (* top-level functions *)
  List.iter
    (fun (f : Ast.fundef) ->
      let mid = Option.get (Ir.Program.find_meth prog f.fname) in
      check_body ~this_cls:None ~mid ~params:f.params
        ~rty:(resolve_ty ctx f.fpos f.rty)
        ~body:f.body)
    funs;
  (* entry point *)
  let start : Ast.pos = { line = 0; col = 0 } in
  (match Ir.Program.find_meth prog "main" with
  | Some m ->
      let mm = Ir.Program.meth prog m in
      if Array.length mm.m_param_tys <> 1 then err start "main must take no parameters";
      prog.main <- m
  | None -> err start "program has no main function");
  (prog, List.rev ctx.tmethods)
