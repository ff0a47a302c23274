(* Textual IR parser: reads exactly what [Printer.fn_to_string] emits, so IR can
   round-trip through text — for IR-level test cases, for diffing compiled
   code, and for replaying dumps from `selvm compile`.

   The format is whitespace-insensitive apart from token boundaries (the
   printer wraps long argument lists), so parsing is token-based. Ids in
   the text are preserved exactly. *)

open Types

exception Ir_parse_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Ir_parse_error s)) fmt

(* ---- tokenizer ---- *)

type token =
  | Tword of string     (* identifiers, keywords, v3 / b2 / m4-style refs *)
  | Tint of int
  | Tstr of string      (* an OCaml-escaped string literal *)
  | Tpunct of char      (* ( ) [ ] , : . = < - # @ *)
  | Teof

let tokenize (src : string) : token list =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  let is_word c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '$' || c = '\''
  in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '"' then begin
      (* OCaml-escaped string: use Scanf to decode *)
      let j = ref (!i + 1) in
      let ended = ref false in
      while (not !ended) && !j < n do
        if src.[!j] = '\\' then j := !j + 2
        else if src.[!j] = '"' then ended := true
        else incr j
      done;
      if not !ended then fail "unterminated string literal";
      let lit = String.sub src !i (!j - !i + 1) in
      let decoded = Scanf.sscanf lit "%S" (fun s -> s) in
      toks := Tstr decoded :: !toks;
      i := !j + 1
    end
    else if (c >= '0' && c <= '9') || (c = '-' && !i + 1 < n && src.[!i + 1] >= '0' && src.[!i + 1] <= '9')
    then begin
      let j = ref (!i + 1) in
      while !j < n && src.[!j] >= '0' && src.[!j] <= '9' do
        incr j
      done;
      toks := Tint (int_of_string (String.sub src !i (!j - !i))) :: !toks;
      i := !j
    end
    else if is_word c then begin
      let j = ref !i in
      while !j < n && is_word src.[!j] do
        incr j
      done;
      toks := Tword (String.sub src !i (!j - !i)) :: !toks;
      i := !j
    end
    else begin
      toks := Tpunct c :: !toks;
      incr i
    end
  done;
  List.rev (Teof :: !toks)

(* ---- parser state ---- *)

type state = { mutable toks : token list }

let peek st = match st.toks with t :: _ -> t | [] -> Teof

let next st =
  match st.toks with
  | t :: rest ->
      st.toks <- rest;
      t
  | [] -> Teof

let token_str = function
  | Tword w -> w
  | Tint n -> string_of_int n
  | Tstr s -> Printf.sprintf "%S" s
  | Tpunct c -> String.make 1 c
  | Teof -> "<eof>"

let expect_word st w =
  match next st with
  | Tword w' when w' = w -> ()
  | t -> fail "expected '%s', found '%s'" w (token_str t)

let expect_punct st c =
  match next st with
  | Tpunct c' when c' = c -> ()
  | t -> fail "expected '%c', found '%s'" c (token_str t)

let at_punct st c = match peek st with Tpunct c' -> c' = c | _ -> false

let int_tok st =
  match next st with
  | Tint n -> n
  | t -> fail "expected an integer, found '%s'" (token_str t)

(* v3 / b2 / m5 refs come out of the tokenizer as single words; negative
   site indices appear as 'm4' '.' '-7' (the '-' glued to the int). *)
let ref_tok st (prefix : char) : int =
  match next st with
  | Tword w
    when String.length w > 1
         && w.[0] = prefix
         && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub w 1 (String.length w - 1))
    -> int_of_string (String.sub w 1 (String.length w - 1))
  | t -> fail "expected a %c-reference, found '%s'" prefix (token_str t)

let vref st = ref_tok st 'v'
let bref st = ref_tok st 'b'
let mref st = ref_tok st 'm'

(* ---- grammar pieces ---- *)

(* the token constructor [Tint] shadows [Types.Tint]; qualify the type *)
let rec parse_ty st : ty =
  match next st with
  | Tword "Int" -> Types.Tint
  | Tword "Bool" -> Tbool
  | Tword "Unit" -> Tunit
  | Tword "String" -> Tstring
  | Tword "Array" ->
      expect_punct st '[';
      let t = parse_ty st in
      expect_punct st ']';
      Tarray t
  | Tword "obj" ->
      expect_punct st '#';
      (* class ids may be negative (the null type) *)
      Tobj (int_tok st)
  | t -> fail "expected a type, found '%s'" (token_str t)

let parse_vlist st : vid list =
  expect_punct st '(';
  if at_punct st ')' then begin
    expect_punct st ')';
    []
  end
  else begin
    let acc = ref [ vref st ] in
    while at_punct st ',' do
      expect_punct st ',';
      acc := vref st :: !acc
    done;
    expect_punct st ')';
    List.rev !acc
  end

let parse_site st : site =
  expect_punct st '@';
  let sm = mref st in
  expect_punct st '.';
  let sidx = int_tok st in
  { sm; sidx }

let parse_const st : const =
  match next st with
  | Tint n -> Cint n
  | Tword "true" -> Cbool true
  | Tword "false" -> Cbool false
  | Tword "null" -> Cnull
  | Tstr s -> Cstring s
  | Tpunct '(' ->
      expect_punct st ')';
      Cunit
  | t -> fail "expected a constant, found '%s'" (token_str t)

let binop_of_name = function
  | "add" -> Some Add | "sub" -> Some Sub | "mul" -> Some Mul | "div" -> Some Div
  | "rem" -> Some Rem | "shl" -> Some Shl | "shr" -> Some Shr | "band" -> Some Band
  | "bor" -> Some Bor | "bxor" -> Some Bxor | "lt" -> Some Lt | "le" -> Some Le
  | "gt" -> Some Gt | "ge" -> Some Ge | "eq" -> Some Eq | "ne" -> Some Ne
  | "and" -> Some Andb | "or" -> Some Orb | "xor" -> Some Xorb | "eqb" -> Some Eqb
  | _ -> None

let intrinsic_of_name = function
  | "print_int" -> Some Iprint_int
  | "print_str" -> Some Iprint_str
  | "print_bool" -> Some Iprint_bool
  | "str_len" -> Some Istr_len
  | "str_get" -> Some Istr_get
  | "str_eq" -> Some Istr_eq
  | "abs" -> Some Iabs
  | "min" -> Some Imin
  | "max" -> Some Imax
  | _ -> None

(* field access suffix: vN.name[slot] *)
let parse_field_ref st : vid * string * int =
  let obj = vref st in
  expect_punct st '.';
  let fname = match next st with Tword w -> w | t -> fail "field name, found '%s'" (token_str t) in
  expect_punct st '[';
  let slot = int_tok st in
  expect_punct st ']';
  (obj, fname, slot)

let parse_kind st : instr_kind =
  match next st with
  | Tword "const" -> Const (parse_const st)
  | Tword "param" -> Param (int_tok st)
  | Tword "neg" -> Unop (Neg, vref st)
  | Tword "not" -> Unop (Not, vref st)
  | Tword "phi" ->
      expect_punct st ':';
      let ty = parse_ty st in
      expect_punct st '[';
      let inputs = ref [] in
      if not (at_punct st ']') then begin
        let one () =
          let b = bref st in
          expect_punct st ':';
          let v = vref st in
          inputs := (b, v) :: !inputs
        in
        one ();
        while at_punct st ',' do
          expect_punct st ',';
          one ()
        done
      end;
      expect_punct st ']';
      Phi { ty; inputs = List.rev !inputs }
  | Tword "call" ->
      let callee =
        match next st with
        | Tword "direct" -> Direct (mref st)
        | Tword "virtual" -> (
            match next st with
            | Tword sel -> Virtual sel
            | t -> fail "selector, found '%s'" (token_str t))
        | t -> fail "'direct' or 'virtual', found '%s'" (token_str t)
      in
      let args = parse_vlist st in
      expect_punct st ':';
      let rty = parse_ty st in
      let site = parse_site st in
      Call { callee; args; site; rty }
  | Tword "new" ->
      expect_word st "obj";
      expect_punct st '#';
      New (int_tok st)
  | Tword "getfield" ->
      let obj, fname, slot = parse_field_ref st in
      expect_punct st ':';
      let fty = parse_ty st in
      GetField { obj; slot; fname; fty }
  | Tword "setfield" ->
      let obj, fname, slot = parse_field_ref st in
      expect_punct st '<';
      expect_punct st '-';
      SetField { obj; slot; fname; value = vref st }
  | Tword "newarray" ->
      let ety = parse_ty st in
      expect_punct st '[';
      let len = vref st in
      expect_punct st ']';
      NewArray { ety; len }
  | Tword "arrayget" ->
      let arr = vref st in
      expect_punct st '[';
      let idx = vref st in
      expect_punct st ']';
      expect_punct st ':';
      let ety = parse_ty st in
      ArrayGet { arr; idx; ety }
  | Tword "arrayset" ->
      let arr = vref st in
      expect_punct st '[';
      let idx = vref st in
      expect_punct st ']';
      expect_punct st '<';
      expect_punct st '-';
      ArraySet { arr; idx; value = vref st }
  | Tword "arraylen" -> ArrayLen (vref st)
  | Tword "typetest" ->
      let obj = vref st in
      expect_word st "is";
      expect_word st "obj";
      expect_punct st '#';
      TypeTest { obj; cls = int_tok st }
  | Tword w when binop_of_name w <> None ->
      let op = Option.get (binop_of_name w) in
      let a = vref st in
      expect_punct st ',';
      let b = vref st in
      Binop (op, a, b)
  | Tword w when intrinsic_of_name w <> None ->
      Intrinsic (Option.get (intrinsic_of_name w), parse_vlist st)
  | t -> fail "expected an instruction, found '%s'" (token_str t)

let parse_term st : terminator =
  match next st with
  | Tword "goto" -> Goto (bref st)
  | Tword "if" ->
      let cond = vref st in
      expect_word st "then";
      let tb = bref st in
      expect_word st "else";
      let fb = bref st in
      let site = parse_site st in
      If { cond; site; tb; fb }
  | Tword "return" -> Return (vref st)
  | Tword "unreachable" -> Unreachable
  | t -> fail "expected a terminator, found '%s'" (token_str t)

(* A v-reference word ('v12') at the head position starts an instruction;
   any other word starts a terminator. *)
let starts_instr = function
  | Tword w ->
      String.length w > 1
      && w.[0] = 'v'
      && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub w 1 (String.length w - 1))
  | _ -> false

let starts_block = function
  | Tword w ->
      String.length w > 1
      && w.[0] = 'b'
      && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub w 1 (String.length w - 1))
  | _ -> false

let parse_fn (src : string) : fn =
  let st = { toks = tokenize src } in
  expect_word st "fn";
  let fname =
    match next st with
    | Tword w ->
        (* qualified names print as 'Point' '.' 'getX' *)
        let parts = ref [ w ] in
        while at_punct st '.' do
          expect_punct st '.';
          match next st with
          | Tword w' -> parts := w' :: !parts
          | Tpunct '<' ->
              (* constructor selector '<init>' *)
              expect_word st "init";
              expect_punct st '>';
              parts := "<init>" :: !parts
          | t -> fail "name continuation, found '%s'" (token_str t)
        done;
        String.concat "." (List.rev !parts)
    | t -> fail "function name, found '%s'" (token_str t)
  in
  expect_punct st '(';
  let params = ref [] in
  if not (at_punct st ')') then begin
    params := [ parse_ty st ];
    while at_punct st ',' do
      expect_punct st ',';
      params := parse_ty st :: !params
    done
  end;
  expect_punct st ')';
  expect_punct st ':';
  let rty = parse_ty st in
  expect_word st "entry";
  expect_punct st '=';
  let entry = bref st in
  let fn = Fn.create ~fname ~param_tys:(Array.of_list (List.rev !params)) ~rty in
  fn.entry <- entry;
  (* blocks; operands may name instructions defined further down, so
     kinds and terminators are set once every instruction exists *)
  let kinds = ref [] and terms = ref [] in
  while starts_block (peek st) do
    let b = bref st in
    expect_punct st ':';
    Fn.add_block_at fn b;
    let instrs = ref [] in
    while starts_instr (peek st) do
      let v = vref st in
      expect_punct st '=';
      let k = parse_kind st in
      Fn.add_instr_at fn v (Const Cunit);
      kinds := (v, k) :: !kinds;
      instrs := v :: !instrs
    done;
    Fn.place fn b (List.rev !instrs);
    terms := (b, parse_term st) :: !terms
  done;
  List.iter (fun (v, k) -> Fn.set_kind fn v k) (List.rev !kinds);
  List.iter (fun (b, t) -> Fn.set_term fn b t) (List.rev !terms);
  (match peek st with
  | Teof -> ()
  | t -> fail "trailing input starting at '%s'" (token_str t));
  fn
