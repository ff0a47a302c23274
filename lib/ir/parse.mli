(** Textual IR parser: reads exactly what {!Printer.fn_to_string} emits, so IR
    round-trips through text — for IR-level test cases, for diffing
    compiled code, and for replaying `selvm compile` dumps. Instruction and
    block ids in the text are preserved. *)

exception Ir_parse_error of string

val parse_fn : string -> Types.fn
(** @raise Ir_parse_error on malformed input. The result is structurally
    parsed, not verified — run {!Verify.check} for SSA validity. *)
