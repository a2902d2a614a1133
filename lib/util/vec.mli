(** Growable arrays.

    A [Vec.t] is an append-mostly dynamic array. It is the backing store for
    write-ahead logs and delta tables, which only ever grow at the end, so
    the interface is deliberately small: push, random access, iteration, and
    binary search over a monotone key. *)

type 'a t

val create : unit -> 'a t
(** [create ()] is an empty vector. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** [push v x] appends [x] at the end of [v]. Amortized O(1). *)

val get : 'a t -> int -> 'a
(** [get v i] is the [i]th element. @raise Invalid_argument if out of
    bounds. *)

val set : 'a t -> int -> 'a -> unit

val last : 'a t -> 'a option

val pop : 'a t -> 'a option
(** [pop v] removes and returns the last element, if any. *)

val clear : 'a t -> unit

val truncate : 'a t -> int -> unit
(** [truncate v n] keeps the first [n] elements of [v]; no-op when
    [length v <= n]. The dropped elements are no longer reachable from
    [v]. *)

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val iter_range : ('a -> unit) -> 'a t -> lo:int -> hi:int -> unit
(** [iter_range f v ~lo ~hi] applies [f] to elements with indices in
    [\[lo, hi)]. Bounds are clamped to the valid range. *)

val fold_left : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b

val to_list : 'a t -> 'a list

val of_list : 'a list -> 'a t

val exists : ('a -> bool) -> 'a t -> bool

val lower_bound : 'a t -> key:('a -> int) -> int -> int
(** [lower_bound v ~key k] is the smallest index [i] such that
    [key (get v i) >= k], assuming [key] is non-decreasing over [v].
    Returns [length v] if no such index exists. *)
