(** The top-level incremental inlining algorithm (paper, Listing 1):
    alternate expand / analyze / inline, re-optimize the root
    ({!Opt.Driver.round_root_opts} over [params.root_passes]) and refresh
    the call tree each round, until nothing changes, the round budget is
    spent, or the root hits the size cap. *)

type stats = {
  mutable rounds : int;
  mutable expanded : int;
  mutable inlined : int;
  mutable initial_size : int;
  mutable final_size : int;
  mutable opt_events : int;
}

val pp_stats : Format.formatter -> stats -> unit

type result = { body : Ir.Types.fn; stats : stats }

val compile :
  ?trial_cache:Trial_cache.t -> Ir.Types.program -> Runtime.Profile.t -> Params.t ->
  Ir.Types.meth_id -> result
(** Compiles one root method; the method's interpreter body is left
    untouched — the caller installs [result.body].
    @raise Invalid_argument when the method has no body. *)
