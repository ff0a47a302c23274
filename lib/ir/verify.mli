(** IR well-formedness checking: structural validity (live operands and
    targets, unique placement), phi shape (at block start, edges matching
    reachable predecessors), and the SSA dominance invariant. Unreachable
    blocks are ignored. *)

exception Ill_formed of string

val check : Types.fn -> unit
(** @raise Ill_formed with a description of the first violation. *)

val is_well_formed : Types.fn -> bool

val check_program : Types.program -> (unit, string) result
(** Checks every method body; the error names the offending method. *)
