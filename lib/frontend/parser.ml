(* Recursive-descent parser for Sel with precedence climbing for binary
   operators. The grammar is LL(k) with one real ambiguity — `(` can open a
   parenthesized expression or a lambda parameter list — resolved by at
   most three tokens after the `(`. *)

open Ast
open Lexer

exception Parse_error of string * Ast.pos

type state = { toks : tok array; mutable k : int }

let cur st = st.toks.(st.k)
let peek st n = if st.k + n < Array.length st.toks then st.toks.(st.k + n).t else EOF
let advance st = if st.k < Array.length st.toks - 1 then st.k <- st.k + 1

let error st msg = raise (Parse_error (msg, (cur st).pos))

let expect_punct st s =
  match (cur st).t with
  | PUNCT p when p = s -> advance st
  | t -> error st (Printf.sprintf "expected '%s' but found '%s'" s (token_to_string t))

let expect_kw st s =
  match (cur st).t with
  | KW p when p = s -> advance st
  | t -> error st (Printf.sprintf "expected '%s' but found '%s'" s (token_to_string t))

let expect_ident st =
  match (cur st).t with
  | IDENT name -> advance st; name
  | t -> error st (Printf.sprintf "expected identifier but found '%s'" (token_to_string t))

let at_punct st s = match (cur st).t with PUNCT p -> p = s | _ -> false
let at_kw st s = match (cur st).t with KW p -> p = s | _ -> false

(* ---- types ---- *)

let rec parse_ty st : tyx =
  let base = parse_ty_atom st in
  (* arrow type: T => R *)
  if at_punct st "=>" then begin
    advance st;
    let r = parse_ty st in
    match base with
    | Tx_fun _ -> error st "parenthesize the argument list of a function type"
    | _ -> Tx_fun ([ base ], r)
  end
  else base

and parse_ty_atom st : tyx =
  match (cur st).t with
  | IDENT "Int" -> advance st; Tx_int
  | IDENT "Bool" -> advance st; Tx_bool
  | IDENT "Unit" -> advance st; Tx_unit
  | IDENT "String" -> advance st; Tx_string
  | IDENT "Array" ->
      advance st;
      expect_punct st "[";
      let t = parse_ty st in
      expect_punct st "]";
      Tx_array t
  | IDENT name -> advance st; Tx_named name
  | PUNCT "(" ->
      (* (T1, T2) => R  or parenthesized type *)
      advance st;
      if at_punct st ")" then begin
        advance st;
        expect_punct st "=>";
        let r = parse_ty st in
        Tx_fun ([], r)
      end
      else begin
        let first = parse_ty st in
        let args = ref [ first ] in
        while at_punct st "," do
          advance st;
          args := parse_ty st :: !args
        done;
        expect_punct st ")";
        if at_punct st "=>" then begin
          advance st;
          let r = parse_ty st in
          Tx_fun (List.rev !args, r)
        end
        else
          match !args with
          | [ only ] -> only
          | _ -> error st "tuple types are not supported"
      end
  | t -> error st (Printf.sprintf "expected a type but found '%s'" (token_to_string t))

let parse_params st : (string * tyx) list =
  expect_punct st "(";
  let params = ref [] in
  if not (at_punct st ")") then begin
    let one () =
      let name = expect_ident st in
      expect_punct st ":";
      let ty = parse_ty st in
      params := (name, ty) :: !params
    in
    one ();
    while at_punct st "," do
      advance st;
      one ()
    done
  end;
  expect_punct st ")";
  List.rev !params

(* ---- expressions ---- *)

(* Binary precedence: larger binds tighter. *)
let prec = function
  | "||" -> 1
  | "&&" -> 2
  | "|" -> 3
  | "^" -> 4
  | "&" -> 5
  | "==" | "!=" -> 6
  | "<" | "<=" | ">" | ">=" -> 7
  | "<<" | ">>" -> 8
  | "+" | "-" -> 9
  | "*" | "/" | "%" -> 10
  | _ -> -1

(* Is the `(` at the cursor the start of a lambda parameter list? No
   parenthesized expression opens with `name :` or `name ,` (Sel has no
   type ascription and no tuples), and none is `()` or `(name)` followed
   by `=>`, so at most three tokens decide. An untyped `(x) =>` or
   `(x, y)` thus goes to [parse_params], which asks for the type. *)
let lambda_ahead st =
  at_punct st "("
  &&
  match (peek st 1, peek st 2) with
  | IDENT _, PUNCT (":" | ",") | PUNCT ")", PUNCT "=>" -> true
  | IDENT _, PUNCT ")" -> peek st 3 = PUNCT "=>"
  | _ -> false

let rec parse_expr st : expr = parse_assign st

and parse_assign st : expr =
  let pos = (cur st).pos in
  let lhs = parse_binary st 0 in
  if at_punct st "=" then begin
    advance st;
    let rhs = parse_assign st in
    let lv =
      match lhs.e with
      | Evar name -> Lvar name
      | Efield (obj, f) -> Lfield (obj, f)
      | Eindex (arr, idx) -> Lindex (arr, idx)
      | _ -> error st "invalid assignment target"
    in
    { e = Eassign (lv, rhs); pos }
  end
  else lhs

and parse_binary st min_prec : expr =
  let lhs = ref (parse_unary st) in
  let continue_ = ref true in
  while !continue_ do
    match (cur st).t with
    | PUNCT op when prec op >= 1 && prec op >= min_prec ->
        let pos = (cur st).pos in
        advance st;
        let rhs = parse_binary st (prec op + 1) in
        lhs := { e = Ebin (op, !lhs, rhs); pos }
    | _ -> continue_ := false
  done;
  !lhs

and parse_unary st : expr =
  let pos = (cur st).pos in
  match (cur st).t with
  | PUNCT "!" ->
      advance st;
      { e = Eun ("!", parse_unary st); pos }
  | PUNCT "-" ->
      advance st;
      { e = Eun ("-", parse_unary st); pos }
  | _ -> parse_postfix st

and parse_postfix st : expr =
  let e = ref (parse_primary st) in
  let continue_ = ref true in
  while !continue_ do
    let pos = (cur st).pos in
    if at_punct st "." then begin
      advance st;
      let name = expect_ident st in
      if at_punct st "(" then
        let args = parse_args st in
        e := { e = Emethod (!e, name, args); pos }
      else e := { e = Efield (!e, name); pos }
    end
    else if at_punct st "[" then begin
      advance st;
      let idx = parse_expr st in
      expect_punct st "]";
      e := { e = Eindex (!e, idx); pos }
    end
    else if at_punct st "(" then begin
      let args = parse_args st in
      match !e with
      | { e = Evar name; pos = vpos } -> e := { e = Einvoke (name, args); pos = vpos }
      | callee -> e := { e = Eapply (callee, args); pos }
    end
    else continue_ := false
  done;
  !e

and parse_args st : expr list =
  expect_punct st "(";
  let args = ref [] in
  if not (at_punct st ")") then begin
    args := [ parse_expr st ];
    while at_punct st "," do
      advance st;
      args := parse_expr st :: !args
    done
  end;
  expect_punct st ")";
  List.rev !args

and parse_primary st : expr =
  let pos = (cur st).pos in
  match (cur st).t with
  | INT n -> advance st; { e = Eint n; pos }
  | STRING s -> advance st; { e = Estr s; pos }
  | KW "true" -> advance st; { e = Ebool true; pos }
  | KW "false" -> advance st; { e = Ebool false; pos }
  | KW "null" -> advance st; { e = Enull; pos }
  | KW "this" -> advance st; { e = Ethis; pos }
  | KW "new" ->
      advance st;
      if (match (cur st).t with IDENT "Array" -> true | _ -> false)
         && peek st 1 = PUNCT "["
      then begin
        advance st;
        expect_punct st "[";
        let ety = parse_ty st in
        expect_punct st "]";
        expect_punct st "(";
        let len = parse_expr st in
        expect_punct st ")";
        { e = Enewarr (ety, len); pos }
      end
      else begin
        let name = expect_ident st in
        let args = parse_args st in
        { e = Enew (name, args); pos }
      end
  | KW "if" ->
      advance st;
      expect_punct st "(";
      let cond = parse_expr st in
      expect_punct st ")";
      let then_ = parse_expr st in
      if at_kw st "else" then begin
        advance st;
        let else_ = parse_expr st in
        { e = Eif (cond, then_, Some else_); pos }
      end
      else { e = Eif (cond, then_, None); pos }
  | KW "while" ->
      advance st;
      expect_punct st "(";
      let cond = parse_expr st in
      expect_punct st ")";
      let body = parse_expr st in
      { e = Ewhile (cond, body); pos }
  | PUNCT "{" -> parse_block st
  | PUNCT "(" when lambda_ahead st ->
      let params = parse_params st in
      expect_punct st "=>";
      let body = parse_expr st in
      { e = Elambda (params, body); pos }
  | PUNCT "(" ->
      advance st;
      if at_punct st ")" then begin
        advance st;
        { e = Eunit; pos }
      end
      else begin
        let e = parse_expr st in
        expect_punct st ")";
        e
      end
  | IDENT name -> advance st; { e = Evar name; pos }
  | t -> error st (Printf.sprintf "expected an expression but found '%s'" (token_to_string t))

and parse_block st : expr =
  let pos = (cur st).pos in
  expect_punct st "{";
  let stmts = ref [] in
  while not (at_punct st "}") do
    let spos = (cur st).pos in
    (match (cur st).t with
    | KW (("val" | "var") as kw) ->
        advance st;
        let name = expect_ident st in
        let ty =
          if at_punct st ":" then begin
            advance st;
            Some (parse_ty st)
          end
          else None
        in
        expect_punct st "=";
        let init = parse_expr st in
        stmts := Slet { name; mutbl = kw = "var"; ty; init; pos = spos } :: !stmts
    | _ -> stmts := Sexpr (parse_expr st) :: !stmts);
    while at_punct st ";" do
      advance st
    done
  done;
  expect_punct st "}";
  { e = Eblock (List.rev !stmts); pos }

(* ---- declarations ---- *)

let parse_member st : member =
  let pos = (cur st).pos in
  match (cur st).t with
  | KW "var" ->
      advance st;
      let name = expect_ident st in
      expect_punct st ":";
      let ty = parse_ty st in
      (if at_punct st ";" then advance st);
      Mfield { name; ty; pos }
  | KW "def" ->
      advance st;
      let name = expect_ident st in
      let params = parse_params st in
      expect_punct st ":";
      let rty = parse_ty st in
      let body =
        if at_punct st "=" then begin
          advance st;
          Some (parse_expr st)
        end
        else None
      in
      (if at_punct st ";" then advance st);
      Mmethod { name; params; rty; body; pos }
  | t -> error st (Printf.sprintf "expected a class member but found '%s'" (token_to_string t))

let parse_classdecl st ~abstract : classdecl =
  let cpos = (cur st).pos in
  expect_kw st "class";
  let cname = expect_ident st in
  let ctor_params = if at_punct st "(" then parse_params st else [] in
  let parent =
    if at_kw st "extends" then begin
      advance st;
      let pname = expect_ident st in
      let args = if at_punct st "(" then parse_args st else [] in
      Some (pname, args)
    end
    else None
  in
  expect_punct st "{";
  let members = ref [] in
  while not (at_punct st "}") do
    members := parse_member st :: !members
  done;
  expect_punct st "}";
  { cname; abstract; ctor_params; parent; members = List.rev !members; cpos }

let parse_fundef st : fundef =
  let fpos = (cur st).pos in
  expect_kw st "def";
  let fname = expect_ident st in
  let params = parse_params st in
  expect_punct st ":";
  let rty = parse_ty st in
  expect_punct st "=";
  let body = parse_expr st in
  { fname; params; rty; body; fpos }

let parse_program (toks : tok list) : prog =
  let st = { toks = Array.of_list toks; k = 0 } in
  let decls = ref [] in
  let rec go () =
    match (cur st).t with
    | EOF -> ()
    | KW "abstract" ->
        advance st;
        decls := Dclass (parse_classdecl st ~abstract:true) :: !decls;
        go ()
    | KW "class" ->
        decls := Dclass (parse_classdecl st ~abstract:false) :: !decls;
        go ()
    | KW "def" ->
        decls := Dfun (parse_fundef st) :: !decls;
        go ()
    | t -> error st (Printf.sprintf "expected a declaration but found '%s'" (token_to_string t))
  in
  go ();
  List.rev !decls

let parse_string (src : string) : prog = parse_program (Lexer.tokenize src)
