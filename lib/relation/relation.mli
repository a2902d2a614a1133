(** Multiset relations with signed counts.

    A relation maps tuples to non-zero integer counts. Positive counts are
    multiset multiplicities; negative counts arise in deltas and in the
    negation operator [-R] of the paper (Section 2). The net-effect operator
    φ of Definition 4.1 corresponds to this canonical representation: adding
    a tuple with count 0 leaves the relation unchanged, and counts that
    cancel remove the tuple. *)

type t

val create : Schema.t -> t

val schema : t -> Schema.t

val add : t -> Tuple.t -> int -> unit
(** [add r tuple count] adds [count] (possibly negative) copies of [tuple].
    Entries whose accumulated count reaches zero are removed. Adding zero is
    a no-op. @raise Invalid_argument if the tuple does not conform to the
    schema. *)

val count : t -> Tuple.t -> int
(** 0 when absent. *)

val mem : t -> Tuple.t -> bool

val distinct_count : t -> int
(** Number of distinct tuples present (with non-zero count). *)

val total_count : t -> int
(** Sum of all counts (can be negative for delta-like relations). *)

val is_empty : t -> bool

val iter : (Tuple.t -> int -> unit) -> t -> unit

val fold : (Tuple.t -> int -> 'a -> 'a) -> t -> 'a -> 'a

val to_list : t -> (Tuple.t * int) list
(** Sorted by tuple, for deterministic output. *)

val sorted : t -> Sorted_rows.t
(** The rows of {!to_list}, as a fresh array. *)

val to_seq : t -> (Tuple.t * int) Seq.t
(** Lazy, unordered. The relation must not be mutated while the sequence is
    being consumed. *)

val of_list : Schema.t -> (Tuple.t * int) list -> t

val copy : t -> t

val equal : t -> t -> bool
(** Net-effect equality: same tuples with same non-zero counts. *)

val union : t -> t -> t
(** Multiset union [R + S] (counts add). Schemas must have equal arity. *)

val negate : t -> t
(** [-R]: flips the sign of every count. *)

val diff : t -> t -> t
(** [R - S = R + (-S)]. *)

val select : (Tuple.t -> bool) -> t -> t

val project : t -> int list -> t
(** Multiset projection: counts of tuples that collapse together add up. *)

val product : pred:(Tuple.t -> Tuple.t -> bool) -> t -> t -> t
(** [product ~pred r s] is the theta-join: concatenated tuples that satisfy
    [pred], with count = product of input counts. Nested-loop evaluation;
    this is the reference evaluator used by oracles, not the planner. *)

val pp : Format.formatter -> t -> unit
