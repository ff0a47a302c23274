(** IR well-formedness checking: structural validity (live operands and
    targets, unique placement), phi shape (at block start, edges matching
    reachable predecessors), and the SSA dominance invariant. Unreachable
    blocks are ignored. It reads none of the control-flow analyses that
    {!Fn} caches: it computes reachability, predecessors and dominators
    from the blocks itself. *)

exception Ill_formed of string

val check : Types.fn -> unit
(** @raise Ill_formed with a description of the first violation. *)

val check_types : Types.fn -> unit
(** The type rules the threaded tier enforces before it runs a body, over
    every live block, reachable or not. Every operand names a live
    instruction. Each type is Int, Bool or neither (a value the tier
    boxes), and an op reads only the kinds it takes: Int for arithmetic,
    shifts, ordering comparisons, lengths and indices; Bool for logic;
    one kind on both sides of [eq] and [ne]; neither where an object, a
    string or an array is read. A phi's inputs are of its kind, an [If]
    branches on a Bool, and an intrinsic gets its number of arguments.
    Types come from {!Instr.result_ty} and the declared [param_tys]. Run
    it after {!check}, which it does not repeat.
    @raise Ill_formed naming the first offending instruction. *)

val is_well_formed : Types.fn -> bool

val check_program : Types.program -> (unit, string) result
(** Checks every method body; the error names the offending method. *)
