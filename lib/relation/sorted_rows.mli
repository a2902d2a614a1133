(** Sorted row arrays: a relation's rows as [(tuple, count)] pairs in
    {!Tuple.compare} order, one pair per distinct tuple and no zero count.

    This is the form a point-in-time read serves, and the form in which a
    snapshot can be moved to another time without rebuilding it: the view
    delta between the two times, collapsed to one row per tuple
    ({!consolidate}), is folded in by {!merge} in O(n + k log n) for a
    snapshot of n rows and a delta of k. *)

type t = (Tuple.t * int) array

val consolidate : (Tuple.t * int) array -> t
(** Sorts the rows by tuple (in place), adds up the counts of equal tuples
    and drops those that cancel. The result may be the argument itself. *)

val merge : t -> t -> t
(** [merge rows delta] adds [delta]'s counts into [rows]; tuples whose count
    reaches zero are dropped. Both must be sorted rows. Neither is
    modified; the result shares the unchanged pairs of [rows]. *)
