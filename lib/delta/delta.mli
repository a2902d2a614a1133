(** Timestamped delta tables.

    A delta table records insertions (positive counts) and deletions
    (negative counts) of tuples, each stamped with the commit time of the
    transaction that made (or, for view deltas, caused) the change. The
    window operation σ_{a,b} of the paper selects rows with timestamps in
    the half-open interval (a, b].

    Base-table deltas are appended in commit order, but view deltas are not:
    a compensation query executed late adds rows with old timestamps. The
    table therefore keeps rows in arrival order. While arrival order is
    timestamp order (every capture delta, and a view delta until its first
    out-of-order row) there is no index: window bounds are binary searches
    over the rows, and reads never mutate the table. From the first
    out-of-order row on, a timestamp-sorted index of row positions is kept
    and extended incrementally: a read first merges in the rows appended
    since the last read, costing O(k log k + rows displaced) for k new rows.
    Either way a window read costs O(log n + rows returned), and
    {!window_count}, {!min_ts} and {!max_ts} cost O(log n), whatever the
    history length. *)

type row = { tuple : Roll_relation.Tuple.t; count : int; ts : Time.t }

type t

val create : Roll_relation.Schema.t -> t

val schema : t -> Roll_relation.Schema.t

val append : t -> Roll_relation.Tuple.t -> count:int -> ts:Time.t -> unit
(** Zero-count appends are dropped. *)

val append_row : t -> row -> unit

val length : t -> int
(** Number of stored rows (not net tuples). *)

val truncate : t -> int -> unit
(** [truncate d n] drops every row after the first [n] (arrival order),
    undoing the appends made since [length d] was [n]. This is the abort
    path of a propagation transaction: a step that fails mid-way may have
    emitted part of its brick, and the retry logic rolls the view delta
    back to the pre-step mark before re-running the step. No-op when
    [length d <= n]. *)

val iter : (row -> unit) -> t -> unit
(** Arrival order. *)

val to_list : t -> row list

val sub : t -> pos:int -> len:int -> row array
(** [sub d ~pos ~len] is rows [pos .. pos+len-1] in arrival order — the
    slice a memo captures after filling the tail of a delta.
    @raise Invalid_argument if the slice exceeds the current length. *)

val min_ts : t -> Time.t option

val max_ts : t -> Time.t option

val window : t -> lo:Time.t -> hi:Time.t -> row list
(** [window d ~lo ~hi] is σ_{lo,hi}(d): rows with [lo < ts <= hi], in
    timestamp order (ties in arrival order). *)

val window_iter : t -> lo:Time.t -> hi:Time.t -> (row -> unit) -> unit

val window_cursor : t -> lo:Time.t -> hi:Time.t -> Roll_relation.Cursor.t
(** σ_{lo,hi}(d) as a lazy pull cursor, in timestamp order — the delta-side
    source of the execution pipeline. Rows are produced on demand; rewinding
    restarts the window (and picks up rows appended in between). Appending
    to [d] while one of its windows is being read invalidates that read;
    rewind to restart it. *)

val window_count : t -> lo:Time.t -> hi:Time.t -> int
(** The number of rows in σ_{lo,hi}(d): two binary searches, no row is
    visited. *)

val freshen : t -> unit
(** Merge the rows appended since the last read into the timestamp index
    now. A no-op on a delta whose rows arrived in timestamp order (it has no
    index), so reads of such a delta are always pure. On an out-of-order
    delta, a read merges its unindexed rows in place — a read-side mutation
    that is unsafe under concurrent readers of the same delta. Invariant of
    the parallel drain: before a wave is dispatched, [freshen] has run on
    every delta a member will read (the capture deltas of all its view's
    sources), and no delta that another slot reads is appended to mid-wave,
    so every concurrent window read is pure. *)

val net_effect : t -> lo:Time.t -> hi:Time.t -> Roll_relation.Relation.t
(** φ(σ_{lo,hi}(d)): the window collapsed to net counts. *)

val apply_window :
  t -> lo:Time.t -> hi:Time.t -> Roll_relation.Relation.t -> unit
(** [apply_window d ~lo ~hi r] adds the window's rows into [r] ("rolls" [r]
    forward when [d] is a delta for [r]'s relation). *)

val prune : t -> upto:Time.t -> int
(** [prune d ~upto] removes rows with [ts <= upto] (already applied and no
    longer needed) and returns how many were removed. They are a prefix of
    the timestamp index, so no re-sort is needed: O(n). *)

val copy : t -> t

val pp : Format.formatter -> t -> unit
