(** Deterministic splitmix64 pseudo-random generator.

    All randomness in the system (workload generation, simulated arrival
    jitter) flows through explicitly seeded instances of this generator so
    that every experiment is bit-reproducible. *)

type t

val create : int -> t
(** [create seed] returns an independent generator. *)

val copy : t -> t

val int : t -> int -> int
(** [int t bound] draws from [0, bound).
    @raise Invalid_argument if [bound <= 0]. *)

val bool : t -> bool

val float : t -> float
(** Draws from [0, 1). *)

val pick : t -> 'a list -> 'a
(** @raise Invalid_argument on an empty list. *)

val shuffle : t -> 'a list -> 'a list
