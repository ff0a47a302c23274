(** Typeswitch materialization for polymorphic inlining (paper, Section
    IV, after Hölzle & Ungar): a virtual callsite becomes a most-specific-
    first cascade of subtype tests dispatching to direct calls, ending in
    a residual virtual call (the paper's alternative to deoptimization). *)

open Ir.Types

val build :
  program -> fn -> call_vid:vid -> targets:(class_id * meth_id) list ->
  fresh_site:(unit -> site) -> (class_id * vid) list
(** Rewrites the callsite in place; returns the direct-call vid per target
    class, ordered so that no class follows one of its subclasses.
    @raise Invalid_argument on an empty target list, a non-virtual or
    missing callsite. *)

val materialize : Calltree.t -> Calltree.node -> bool
(** Applies [build] to a Poly node in the root IR and re-anchors its
    children at the direct calls. False (node becomes Generic) when no
    viable target remains. *)
