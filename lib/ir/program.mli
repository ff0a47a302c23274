(** Program-level tables: classes, methods, virtual dispatch and the
    class-hierarchy queries the optimizer relies on. *)

open Types

val create : unit -> program

(** {1 Access} *)

val cls : program -> class_id -> cls
(** @raise Invalid_argument on an unknown id. *)

val meth : program -> meth_id -> meth
(** @raise Invalid_argument on an unknown id. *)

val find_meth : program -> string -> meth_id option
(** Lookup by qualified name (e.g. ["Point.getX"] or ["main"]). *)

val num_classes : program -> int
val num_meths : program -> int

(** {1 Construction} *)

val add_class :
  program -> name:string -> parent:class_id option -> abstract:bool ->
  own_fields:(string * ty) list -> class_id
(** The new class's layout is its parent's layout followed by [own_fields];
    single inheritance keeps slot indices stable down the hierarchy. *)

val set_parent : program -> class_id -> parent:class_id option -> unit
(** Re-links a class under another parent, leaving its layout as it is.
    The one way to change the hierarchy after {!add_class}. *)

val add_meth :
  program -> name:string -> selector:string -> owner:class_id option ->
  param_tys:ty array -> rty:ty -> meth_id
(** @raise Invalid_argument on a duplicate qualified name. *)

val set_body : program -> meth_id -> fn -> unit
(** Gives a method without a body its body, and drops the body's cached
    control-flow analyses.
    @raise Invalid_argument when the method already has a body: a body,
    once set, is never replaced. *)

val register_in_vtable : program -> meth_id -> unit
(** Installs the method in its owner's vtable under its selector,
    replacing any same-selector entry. *)

(** {1 Dispatch and hierarchy queries} *)

val resolve : program -> class_id -> string -> meth_id option
(** Virtual dispatch. The hierarchy walk is memoized per (receiver class,
    selector) pair; construction-time mutations ({!add_class},
    {!set_parent}, {!register_in_vtable}) invalidate the memo, so results
    are always consistent with the current class table. *)

val is_subclass : program -> sub:class_id -> sup:class_id -> bool

val concrete_subtypes : program -> class_id -> class_id list
(** The non-abstract classes at or below a class, in preorder. Memoized
    per class and invalidated with {!resolve}'s memo. *)

val unique_concrete_subtype : program -> class_id -> class_id option
(** Class-hierarchy analysis: the devirtualization opportunity when a
    static type has exactly one concrete implementation. *)

val field_slot : program -> class_id -> string -> int option

(** {1 Iteration} *)

val iter_meths : (meth -> unit) -> program -> unit
val iter_classes : (cls -> unit) -> program -> unit

val total_ir_size : program -> int
(** Sum of {!Fn.size} over all method bodies. *)
