(** Global value numbering over the dominator tree (scoped hashing): pure
    instructions (and array lengths, which are immutable) with identical
    operation and operands collapse to the first dominating occurrence.
    Commutative operands are normalized; loads from mutable memory never
    participate. *)

val run : ?replaced:(old_v:Ir.Types.vid -> new_v:Ir.Types.vid -> unit) -> Ir.Types.fn -> int
(** Returns the number of instructions replaced. [replaced] is called
    just before each replacement. *)
