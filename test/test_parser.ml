(* Unit tests for the Sel parser: structure of parsed declarations and
   expressions, operator precedence, and error reporting. *)

open Util
open Frontend.Ast

let parse = Frontend.Parser.parse_string

let parse_expr src =
  match parse (Printf.sprintf "def f(): Int = %s" src) with
  | [ Dfun { body; _ } ] -> body
  | _ -> Alcotest.fail "expected a single function"

let parse_err src =
  match parse src with
  | _ -> Alcotest.fail "expected a parse error"
  | exception Frontend.Parser.Parse_error (msg, _) -> msg

(* Renders the expression skeleton for easy structural assertions. *)
let rec skel (e : expr) : string =
  match e.e with
  | Eint n -> string_of_int n
  | Ebool b -> string_of_bool b
  | Estr s -> Printf.sprintf "%S" s
  | Eunit -> "()"
  | Enull -> "null"
  | Ethis -> "this"
  | Evar x -> x
  | Efield (o, f) -> Printf.sprintf "%s.%s" (skel o) f
  | Emethod (o, m, args) -> Printf.sprintf "%s.%s(%s)" (skel o) m (skels args)
  | Einvoke (f, args) -> Printf.sprintf "%s(%s)" f (skels args)
  | Eapply (f, args) -> Printf.sprintf "[%s](%s)" (skel f) (skels args)
  | Enew (c, args) -> Printf.sprintf "new %s(%s)" c (skels args)
  | Enewarr (t, n) -> Printf.sprintf "newarr[%s](%s)" (tyx_to_string t) (skel n)
  | Elambda (ps, b) ->
      Printf.sprintf "fun(%s)->%s" (String.concat "," (List.map fst ps)) (skel b)
  | Eif (c, t, None) -> Printf.sprintf "if(%s,%s)" (skel c) (skel t)
  | Eif (c, t, Some e) -> Printf.sprintf "if(%s,%s,%s)" (skel c) (skel t) (skel e)
  | Ewhile (c, b) -> Printf.sprintf "while(%s,%s)" (skel c) (skel b)
  | Eblock stmts ->
      Printf.sprintf "{%s}"
        (String.concat ";"
           (List.map
              (function
                | Sexpr e -> skel e
                | Slet { name; mutbl; init; _ } ->
                    Printf.sprintf "%s %s=%s" (if mutbl then "var" else "val") name
                      (skel init))
              stmts))
  | Eassign (Lvar x, v) -> Printf.sprintf "%s:=%s" x (skel v)
  | Eassign (Lfield (o, f), v) -> Printf.sprintf "%s.%s:=%s" (skel o) f (skel v)
  | Eassign (Lindex (a, i), v) -> Printf.sprintf "%s[%s]:=%s" (skel a) (skel i) (skel v)
  | Ebin (op, a, b) -> Printf.sprintf "(%s%s%s)" (skel a) op (skel b)
  | Eun (op, a) -> Printf.sprintf "(%s%s)" op (skel a)
  | Eindex (a, i) -> Printf.sprintf "%s[%s]" (skel a) (skel i)

and skels args = String.concat "," (List.map skel args)

let check_skel what src expected =
  Alcotest.(check string) what expected (skel (parse_expr src))

let precedence_tests =
  [
    test "mul binds tighter than add" (fun () -> check_skel "prec" "1 + 2 * 3" "(1+(2*3))");
    test "add left-assoc" (fun () -> check_skel "assoc" "1 - 2 - 3" "((1-2)-3)");
    test "comparison below arithmetic" (fun () ->
        check_skel "prec" "1 + 2 < 3 * 4" "((1+2)<(3*4))");
    test "equality below comparison" (fun () ->
        check_skel "prec" "1 < 2 == 3 < 4" "((1<2)==(3<4))");
    test "logical and below equality" (fun () ->
        check_skel "prec" "a == b && c == d" "((a==b)&&(c==d))");
    test "logical or lowest" (fun () ->
        check_skel "prec" "a && b || c && d" "((a&&b)||(c&&d))");
    test "shift between add and compare" (fun () ->
        check_skel "prec" "1 + 2 << 3 < 4" "(((1+2)<<3)<4)");
    test "bitwise and/xor/or ordering" (fun () ->
        check_skel "prec" "a & b ^ c | d" "(((a&b)^c)|d)");
    test "unary minus binds tightest" (fun () -> check_skel "prec" "-a * b" "((-a)*b)");
    test "not with and" (fun () -> check_skel "prec" "!a && b" "((!a)&&b)");
    test "parens override" (fun () -> check_skel "parens" "(1 + 2) * 3" "((1+2)*3)");
  ]

let postfix_tests =
  [
    test "field access chain" (fun () -> check_skel "chain" "a.b.c" "a.b.c");
    test "method call" (fun () -> check_skel "call" "a.m(1, 2)" "a.m(1,2)");
    test "indexing" (fun () -> check_skel "index" "a[i]" "a[i]");
    test "index of call result" (fun () -> check_skel "mix" "f(x)[1]" "f(x)[1]");
    test "call on identifier becomes invoke" (fun () ->
        check_skel "invoke" "f(1)" "f(1)");
    test "call on expression becomes apply" (fun () ->
        check_skel "apply" "a.b(1)(2)" "[a.b(1)](2)");
    test "method on new" (fun () ->
        check_skel "new" "new C(1).m()" "new C(1).m()");
  ]

let construct_tests =
  [
    test "if-else" (fun () -> check_skel "if" "if (a) 1 else 2" "if(a,1,2)");
    test "if without else" (fun () -> check_skel "if" "if (a) 1" "if(a,1)");
    test "dangling else binds to inner if" (fun () ->
        check_skel "if" "if (a) if (b) 1 else 2" "if(a,if(b,1,2))");
    test "while" (fun () -> check_skel "while" "while (a) { b }" "while(a,{b})");
    test "block with lets" (fun () ->
        check_skel "block" "{ val x = 1; var y = 2; x + y }" "{val x=1;var y=2;(x+y)}");
    test "assignment to variable" (fun () -> check_skel "assign" "{ x = 1 }" "{x:=1}");
    test "assignment to field" (fun () -> check_skel "assign" "{ a.f = 1 }" "{a.f:=1}");
    test "assignment to index" (fun () -> check_skel "assign" "{ a[0] = 1 }" "{a[0]:=1}");
    test "assignment is right-assoc through parse" (fun () ->
        check_skel "assign" "{ x = y = 1 }" "{x:=y:=1}");
    test "lambda" (fun () -> check_skel "lambda" "(x: Int) => x + 1" "fun(x)->(x+1)");
    test "zero-arg lambda" (fun () -> check_skel "lambda" "() => 1" "fun()->1");
    test "two-arg lambda" (fun () ->
        check_skel "lambda" "(a: Int, b: Int) => a" "fun(a,b)->a");
    test "lambda vs parenthesized expr" (fun () -> check_skel "paren" "(x)" "x");
    test "unit literal" (fun () -> check_skel "unit" "()" "()");
    test "new array" (fun () ->
        check_skel "newarr" "new Array[Int](10)" "newarr[Int](10)");
    test "new array of named type" (fun () ->
        check_skel "newarr" "new Array[Foo](2)" "newarr[Foo](2)");
    test "this and null" (fun () -> check_skel "lit" "this == null" "(this==null)");
  ]

let decl_tests =
  [
    test "function declaration" (fun () ->
        match parse "def f(a: Int, b: Bool): Unit = {}" with
        | [ Dfun { fname = "f"; params = [ ("a", Tx_int); ("b", Tx_bool) ]; rty = Tx_unit; _ } ]
          -> ()
        | _ -> Alcotest.fail "unexpected parse");
    test "class with ctor params and parent" (fun () ->
        match parse "class C(x: Int) extends D(x) { var f: Int def m(): Int = 1 }" with
        | [ Dclass { cname = "C"; ctor_params = [ ("x", Tx_int) ];
                     parent = Some ("D", [ _ ]); members = [ Mfield _; Mmethod _ ]; _ } ] ->
            ()
        | _ -> Alcotest.fail "unexpected parse");
    test "abstract class with abstract method" (fun () ->
        match parse "abstract class A { def m(): Int }" with
        | [ Dclass { abstract = true; members = [ Mmethod { body = None; _ } ]; _ } ] -> ()
        | _ -> Alcotest.fail "unexpected parse");
    test "function type in params" (fun () ->
        match parse "def f(g: Int => Bool): Unit = {}" with
        | [ Dfun { params = [ ("g", Tx_fun ([ Tx_int ], Tx_bool)) ]; _ } ] -> ()
        | _ -> Alcotest.fail "unexpected parse");
    test "multi-arg function type" (fun () ->
        match parse "def f(g: (Int, Int) => Int): Unit = {}" with
        | [ Dfun { params = [ ("g", Tx_fun ([ Tx_int; Tx_int ], Tx_int)) ]; _ } ] -> ()
        | _ -> Alcotest.fail "unexpected parse");
    test "array type" (fun () ->
        match parse "def f(a: Array[Array[Int]]): Unit = {}" with
        | [ Dfun { params = [ ("a", Tx_array (Tx_array Tx_int)) ]; _ } ] -> ()
        | _ -> Alcotest.fail "unexpected parse");
  ]

let error_tests =
  [
    test "missing paren" (fun () -> ignore (parse_err "def f(: Int = 1"));
    test "missing body" (fun () -> ignore (parse_err "def f(): Int ="));
    test "stray token at toplevel" (fun () -> ignore (parse_err "42"));
    test "bad assignment target" (fun () ->
        ignore (parse_err "def f(): Unit = { 1 + 2 = 3 }"));
    test "tuple type rejected" (fun () -> ignore (parse_err "def f(x: (Int, Int)): Unit = {}"));
    test "unclosed block" (fun () -> ignore (parse_err "def f(): Int = { 1"));
    test "an untyped lambda parameter asks for its type" (fun () ->
        Alcotest.(check string) "one" "expected ':' but found ')'"
          (parse_err "def f(): Int = ((x) => x)(1)");
        Alcotest.(check string) "two" "expected ':' but found ','"
          (parse_err "def f(): Int = ((x, y) => x)(1, 2)"));
    test "error carries position" (fun () ->
        match Frontend.Parser.parse_string "def f(): Int = }" with
        | _ -> Alcotest.fail "expected error"
        | exception Frontend.Parser.Parse_error (_, pos) ->
            Alcotest.(check int) "line" 1 pos.line);
  ]

(* [println] of 1 inside [depth] pairs of parentheses. *)
let nested depth =
  Printf.sprintf "def main(): Unit = println(%s1%s)" (String.make depth '(')
    (String.make depth ')')

let nesting_tests =
  [
    test "100,000-deep parentheses parse and print 1" (fun () ->
        Alcotest.(check string) "output" "1\n" (output_of (nested 100_000)));
  ]

let () =
  Alcotest.run "parser"
    [
      ("precedence", precedence_tests);
      ("postfix", postfix_tests);
      ("constructs", construct_tests);
      ("declarations", decl_tests);
      ("errors", error_tests);
      ("nesting", nesting_tests);
    ]
