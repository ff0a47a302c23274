(** Growable array, the backing store for IR instruction and block tables. *)

type 'a t

val create : dummy:'a -> 'a t
(** [create ~dummy] makes an empty vector. [dummy] fills unreached slots and
    is never observable through the API. *)

val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

val get : 'a t -> int -> 'a
(** @raise Invalid_argument when out of bounds. *)

val set : 'a t -> int -> 'a -> unit
(** @raise Invalid_argument when out of bounds. *)

val pop : 'a t -> 'a
(** Removes and returns the last element.
    @raise Invalid_argument when empty. *)

val clear : 'a t -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val exists : ('a -> bool) -> 'a t -> bool
val to_list : 'a t -> 'a list
val of_list : dummy:'a -> 'a list -> 'a t
val copy : 'a t -> 'a t

val map : dummy:'b -> ('a -> 'b) -> 'a t -> 'b t
(** [map ~dummy f v] applies [f] to every element, in index order, into
    one array of [v]'s capacity. *)
