(** The apply process: point-in-time refresh of the materialized view
    (Figures 2 and 3).

    Apply is completely decoupled from propagation: it selects view-delta
    tuples by timestamp and adds their counts into the stored view. Because
    every tuple is timestamped, the view can be rolled forward to {e any}
    time up to the view-delta high-water mark — not only to propagation
    interval boundaries — and rows beyond the high-water mark (partially
    computed changes) are ignored by construction. *)

type t

val create_empty : Ctx.t -> t_initial:Roll_delta.Time.t -> t
(** A view whose correct content at [t_initial] is empty (the usual case:
    maintenance set up before data arrives). *)

val create_materialized : Ctx.t -> t
(** Materialize the view from current base-table state; [as_of] becomes the
    materialization query's serialization time. *)

val create_restored :
  Ctx.t -> contents:Roll_relation.Relation.t -> as_of:Roll_delta.Time.t -> t
(** Adopt previously saved view contents known to be correct at [as_of] —
    used by {!Checkpoint.resume}. The relation is copied. *)

val contents : t -> Roll_relation.Relation.t
(** The stored view. Read-only to callers. *)

val as_of : t -> Roll_delta.Time.t
(** The view's current materialization time. *)

val roll_to : t -> hwm:Roll_delta.Time.t -> Roll_delta.Time.t -> unit
(** [roll_to t ~hwm target] rolls the view forward to [target] by applying
    view-delta tuples with timestamps in (as_of, target].
    @raise Invalid_argument if [target < as_of] or [target > hwm]. *)

val roll_back_to : t -> Roll_delta.Time.t -> unit
(** Extension beyond the paper: roll {e backwards} by applying the window
    (target, as_of] negated. Valid for any target not earlier than the time
    the delta starts at. *)

val view_at :
  t -> hwm:Roll_delta.Time.t -> Roll_delta.Time.t -> Roll_relation.Sorted_rows.t
(** [view_at t ~hwm time] is the view's rows at any [time] between the
    delta's start and [hwm], sorted: one pass over the stored view, with
    the window (as_of, time] — or (time, as_of], negated — merged in. The
    stored view and [as_of] are untouched. This is the reader-side payoff
    of timestamped deltas: historical reads without blocking or rewinding
    the view. *)

val roll_rows :
  t ->
  hwm:Roll_delta.Time.t ->
  Roll_relation.Sorted_rows.t ->
  from:Roll_delta.Time.t ->
  Roll_delta.Time.t ->
  Roll_relation.Sorted_rows.t
(** [roll_rows t ~hwm rows ~from time] moves [rows], the view's rows at
    [from], to [time] (either direction) by merging in the view-delta rows
    between the two times: O(n + k log k) for n rows and a window of k,
    against a full {!view_at}'s O(n log n). Both times must lie between
    the delta's start and [hwm]. *)

val prune_applied : t -> int
(** Garbage-collect view-delta rows already applied (timestamp <= as_of),
    returning how many were removed. Only safe when no other consumer needs
    to roll from an earlier time. *)
