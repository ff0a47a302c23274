(* Random inputs for the property suites: Sel programs (test_properties,
   test_differential) and [Workloads.Synth] configurations (test_osr,
   test_serve).

   Every program has one shape:
   - a fixed prelude: a [Cell] box and a three-way polymorphic helper
     [poly] over [P1]..[P3];
   - up to two integer helpers [g0], [g1];
   - [f(a, b)], which owns a box [cell] and an array [ar], runs 0-4
     statements, one hot loop of 2-6 statements over 3-9 trips (the
     straight-line runs the threaded tier fuses, with heap traffic), then
     0-3 more statements;
   - [main], printing [f] over 10 inputs, which also warms its profiles.

   Programs are deterministic and trap-free by construction: loops have
   constant bounds, divisors are non-zero literals, array indices are
   rendered as [abs(e) % len], and all randomness comes from the
   generator's seed. *)

open QCheck

(* Integer expressions over variables [vars] (ints, box fields [c.v] and
   safe array reads are all pre-rendered into [vars]) plus calls to helper
   functions [funs] (name, arity) and the prelude's polymorphic helper. *)
let rec int_expr ~vars ~funs ~depth : string Gen.t =
  let open Gen in
  let leaf = oneof [ map string_of_int (int_range 0 9); oneofl vars ] in
  if depth = 0 then leaf
  else
    frequency
      [
        (2, leaf);
        ( 3,
          let* op = oneofl [ "+"; "-"; "*" ] in
          let* a = int_expr ~vars ~funs ~depth:(depth - 1) in
          let* b = int_expr ~vars ~funs ~depth:(depth - 1) in
          return (Printf.sprintf "(%s %s %s)" a op b) );
        ( 1,
          let* a = int_expr ~vars ~funs ~depth:(depth - 1) in
          let* d = oneofl [ "2"; "3"; "5" ] in
          return (Printf.sprintf "(%s / %s)" a d) );
        ( 1,
          let* a = int_expr ~vars ~funs ~depth:(depth - 1) in
          let* d = oneofl [ "3"; "7" ] in
          return (Printf.sprintf "(%s %% %s)" a d) );
        ( 1,
          let* c = bool_expr ~vars ~funs ~depth:(depth - 1) in
          let* a = int_expr ~vars ~funs ~depth:(depth - 1) in
          let* b = int_expr ~vars ~funs ~depth:(depth - 1) in
          return (Printf.sprintf "(if (%s) { %s } else { %s })" c a b) );
        ( 2,
          if funs = [] then leaf
          else
            let* fname, arity = oneofl funs in
            let* args = list_repeat arity (int_expr ~vars ~funs:[] ~depth:(depth - 1)) in
            return (Printf.sprintf "%s(%s)" fname (String.concat ", " args)) );
        ( 1,
          let* i = int_expr ~vars ~funs:[] ~depth:0 in
          let* x = int_expr ~vars ~funs:[] ~depth:(depth - 1) in
          return (Printf.sprintf "poly(%s, %s)" i x) );
      ]

and bool_expr ~vars ~funs ~depth : string Gen.t =
  let open Gen in
  if depth = 0 then
    let* a = int_expr ~vars ~funs ~depth:0 in
    let* op = oneofl [ "<"; "<="; ">"; ">="; "=="; "!=" ] in
    let* b = int_expr ~vars ~funs ~depth:0 in
    return (Printf.sprintf "(%s %s %s)" a op b)
  else
    frequency
      [
        ( 3,
          let* a = int_expr ~vars ~funs ~depth:(depth - 1) in
          let* op = oneofl [ "<"; "<="; ">"; "=="; "!=" ] in
          let* b = int_expr ~vars ~funs ~depth:(depth - 1) in
          return (Printf.sprintf "(%s %s %s)" a op b) );
        ( 1,
          let* a = bool_expr ~vars ~funs ~depth:(depth - 1) in
          let* op = oneofl [ "&&"; "||" ] in
          let* b = bool_expr ~vars ~funs ~depth:(depth - 1) in
          return (Printf.sprintf "(%s %s %s)" a op b) );
        ( 1,
          let* a = bool_expr ~vars ~funs ~depth:(depth - 1) in
          return (Printf.sprintf "(!%s)" a) );
      ]

(* What a statement can name: readable int expressions, boxes, arrays with
   their lengths, and the next fresh-name suffix. *)
type scope = {
  vars : string list;
  cells : string list;
  arrays : (string * int) list;
  fresh : int;
}

(* One statement mutating [acc], locals, boxes and arrays. Loops use fresh
   counters with constant bounds. With [~decls:false] it declares nothing
   and opens no loop: the hot loop's body draws from the rest. *)
let stmt ~funs ~decls (s : scope) : (string * scope) Gen.t =
  let open Gen in
  let { vars; cells; arrays; fresh } = s in
  let name prefix = Printf.sprintf "%s%d" prefix fresh in
  let* choice = if decls then int_range 0 7 else oneofl [ 1; 3; 5; 7 ] in
  match choice with
  | 0 ->
      let* e = int_expr ~vars ~funs ~depth:2 in
      return
        ( Printf.sprintf "var %s = %s;" (name "x") e,
          { s with vars = name "x" :: vars; fresh = fresh + 1 } )
  | 1 ->
      let* e = int_expr ~vars ~funs ~depth:2 in
      return (Printf.sprintf "acc = acc + (%s);" e, s)
  | 2 ->
      let i = name "i" in
      let* bound = int_range 1 6 in
      let* e = int_expr ~vars:(i :: vars) ~funs ~depth:2 in
      return
        ( Printf.sprintf "var %s = 0; while (%s < %d) { acc = acc + (%s); %s = %s + 1; };"
            i i bound e i i,
          { s with fresh = fresh + 1 } )
  | 3 ->
      let* c = bool_expr ~vars ~funs ~depth:1 in
      let* e = int_expr ~vars ~funs ~depth:2 in
      return (Printf.sprintf "if (%s) { acc = acc + (%s) };" c e, s)
  | 4 ->
      let* e = int_expr ~vars ~funs ~depth:1 in
      return
        ( Printf.sprintf "val %s = new Cell(%s);" (name "c") e,
          {
            s with
            vars = (name "c" ^ ".v") :: vars;
            cells = name "c" :: cells;
            fresh = fresh + 1;
          } )
  | 5 ->
      let* cell = oneofl cells in
      let* e = int_expr ~vars ~funs ~depth:2 in
      return (Printf.sprintf "%s.v = %s;" cell e, s)
  | 6 ->
      let* len = int_range 1 8 in
      return
        ( Printf.sprintf "val %s = new Array[Int](%d);" (name "ar") len,
          {
            s with
            vars = Printf.sprintf "%s[abs(acc) %% %d]" (name "ar") len :: vars;
            arrays = (name "ar", len) :: arrays;
            fresh = fresh + 1;
          } )
  | _ ->
      let* arr, len = oneofl arrays in
      let* idx = int_expr ~vars ~funs ~depth:1 in
      let* e = int_expr ~vars ~funs ~depth:2 in
      return (Printf.sprintf "%s[abs(%s) %% %d] = %s;" arr idx len e, s)

(* [lo]..[hi] statements in sequence, threading the scope. *)
let stmts ~funs ~decls ~lo ~hi (s : scope) : (string list * scope) Gen.t =
  let open Gen in
  let rec go k acc s =
    if k = 0 then return (List.rev acc, s)
    else
      let* line, s = stmt ~funs ~decls s in
      go (k - 1) (line :: acc) s
  in
  let* n = int_range lo hi in
  go n [] s

let prelude =
  {|class Cell(v: Int) {}
abstract class P { def m(x: Int): Int }
class P1() extends P { def m(x: Int): Int = x + 1 }
class P2() extends P { def m(x: Int): Int = x * 2 }
class P3() extends P { def m(x: Int): Int = x - 3 }
def poly(i: Int, x: Int): Int = {
  val k = if (i % 3 == 0) { 0 } else { if (i % 3 == 1) { 1 } else { 2 } };
  var p: P = new P1();
  if (k == 1) { p = new P2() };
  if (k == 2) { p = new P3() };
  p.m(x)
}
|}

let program_gen : string Gen.t =
  let open Gen in
  let* nfuns = int_range 0 2 in
  let rec helpers k acc known =
    if k = 0 then return (List.rev acc, known)
    else
      let name = Printf.sprintf "g%d" (List.length known) in
      let* body = int_expr ~vars:[ "a"; "b" ] ~funs:known ~depth:2 in
      helpers (k - 1)
        (Printf.sprintf "def %s(a: Int, b: Int): Int = %s" name body :: acc)
        ((name, 2) :: known)
  in
  let* helper_texts, funs = helpers nfuns [] [] in
  let scope =
    {
      vars = [ "ar[abs(acc) % 4]"; "cell.v"; "a"; "b"; "acc" ];
      cells = [ "cell" ];
      arrays = [ ("ar", 4) ];
      fresh = 0;
    }
  in
  let* before, scope = stmts ~funs ~decls:true ~lo:0 ~hi:4 scope in
  let scope = { scope with vars = "i" :: scope.vars } in
  let* body, scope = stmts ~funs ~decls:false ~lo:2 ~hi:6 scope in
  let* bound = int_range 3 9 in
  let* after, _ = stmts ~funs ~decls:true ~lo:0 ~hi:3 scope in
  let lines indent l = String.concat "" (List.map (fun s -> "\n" ^ indent ^ s) l) in
  let f =
    Printf.sprintf
      {|def f(a: Int, b: Int): Int = {
  var acc = 0;
  val cell = new Cell(a);
  val ar = new Array[Int](4);%s
  var i = 0;
  while (i < %d) {%s
    i = i + 1;
  };%s
  acc
}|}
      (lines "  " before) bound (lines "    " body) (lines "  " after)
  in
  let main =
    {|def main(): Unit = {
  var i = 0;
  while (i < 10) { println(f(i, i * 2 - 3)); i = i + 1; }
}|}
  in
  return (String.concat "\n" ((prelude :: helper_texts) @ [ f; main ]))

let program : string arbitrary = make ~print:Fun.id program_gen

(* Small synthetic call graphs with real loops: leaf work and hot
   callsites both lower to whiles, so a low OSR threshold makes the
   transfer fire constantly. *)
let synth : Workloads.Synth.config arbitrary =
  make ~print:Workloads.Synth.source_of
    Gen.(
      let* seed = int_range 0 1000 in
      let* depth = int_range 1 3 in
      let* fanout = int_range 1 2 in
      let* poly_degree = int_range 1 3 in
      let* leaf_work = int_range 4 40 in
      return
        { Workloads.Synth.seed; depth; fanout; poly_degree; leaf_work; hot_fraction = 0.5 })
