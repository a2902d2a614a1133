(** The maintenance controller: the prototype architecture of Figure 11.

    Ties together the database engine, the capture process, the propagate
    driver (either the uniform-interval [Propagate] process or
    [RollingPropagate]) and the apply driver, and keeps the control-table
    state: the view's materialization time and the view-delta high-water
    mark. Provides the user-facing refresh operations, including
    point-in-time refresh by logical time or by wall-clock time.

    {2 Durability and recovery}

    A {e durable} controller persists its control-table state — the
    per-relation frontier vectors, the high-water mark and the apply
    position — as {!Frontier} marker commits in the WAL after every
    advancing propagation step. Because the view delta itself is
    process-local (only base tables and the WAL survive a crash),
    recovery ({!recover}) restores the {e coverage} rather than the rows:
    it replays the recorded frontier trajectory through fresh rolling
    steps. The brick laid by each step is determined entirely by the
    frontier vectors around it — never by the wall-clock moment the query
    runs — so the replay regenerates a delta with exactly the net effect
    of the lost one (the tiling argument of Theorem 4.3). A {!checkpoint}
    snapshot short-circuits the replay prefix. *)

type algorithm =
  | Uniform of int  (** [Propagate] with this interval *)
  | Rolling of Rolling.policy
      (** [RollingPropagate] with per-relation intervals *)
  | Deferred of Rolling_deferred.policy
      (** the literal Figure 10 deferred-compensation process (two-way
          views only) *)
  | Adaptive of int
      (** rolling propagation with {!Autotune}-chosen per-relation
          intervals targeting this many delta rows per forward query *)

type t

val build_join_indexes : Roll_storage.Database.t -> View.t -> unit
(** On a memory store, give every base-table column [view] equi-joins on a
    single-column secondary index, as {!create} and {!recover} do; a no-op
    on the paged store. Idempotent. *)

val create :
  ?geometry:bool ->
  ?durable:bool ->
  ?obs:Roll_obs.Obs.t ->
  Roll_storage.Database.t ->
  Roll_capture.Capture.t ->
  View.t ->
  algorithm:algorithm ->
  t
(** Materializes the view from current state and starts maintenance at that
    time. The capture process must have all source tables attached. On a
    memory store, every base-table column the view equi-joins on first
    gets a single-column secondary index, so propagation queries probe
    instead of hashing whole tables
    (see {!Roll_storage.Table.create_index}); the paged store indexes only
    what callers ask for. With [durable] (default
    false), the controller records its initial frontier and every advancing
    step's frontier as WAL markers, making the maintenance state
    recoverable with {!recover}. With [obs], the Rollscope handle is
    installed on the context, the database and the capture process, so the
    whole maintenance path traces and meters into it. *)

val recover :
  ?geometry:bool ->
  ?checkpoint:string ->
  ?obs:Roll_obs.Obs.t ->
  Roll_storage.Database.t ->
  Roll_capture.Capture.t ->
  View.t ->
  algorithm:algorithm ->
  t
(** Restart maintenance of a view from durable state after a crash. The
    database must have been {!Roll_storage.Database.restore}d from its WAL
    and the capture process freshly attached (at cursor zero).

    With [checkpoint], the snapshot's delta rows and stored contents are
    resumed and only the trajectory recorded {e after} the snapshot is
    replayed; a torn or unreadable checkpoint file logs a warning and
    falls back to WAL-only recovery. Without a usable checkpoint, the
    stored view is recomputed at the first recorded frontier time t₀ and
    the full trajectory is replayed from there.

    Under [Rolling]/[Adaptive] the replay lands every per-relation
    frontier exactly where the last marker recorded it; under
    [Uniform]/[Deferred] the process restarts at the recorded high-water
    mark (their coverage below the frontier is uniform by construction).
    The recovered controller is durable, has rolled the stored view
    forward to the recorded apply position, counts one recovery in
    {!counters}, and has recorded a fresh frontier marker.

    With [obs], the whole recovery (resume, replay, roll-forward) is
    recorded as one ["recovery"] span and the handle is installed as in
    {!create}.

    @raise Invalid_argument when there is no durable state at all (no
    usable checkpoint and no frontier markers for the view). *)

val ctx : t -> Ctx.t

val view : t -> View.t

val contents : t -> Roll_relation.Relation.t
(** Current materialized contents. *)

val as_of : t -> Roll_delta.Time.t
(** Materialization time of the stored view. *)

val hwm : t -> Roll_delta.Time.t
(** View-delta high-water mark: latest time the view can be rolled to right
    now. *)

val frontier : t -> Frontier.t
(** The current control-table state as one frontier record (what a durable
    controller persists). *)

val durable : t -> bool

val set_durable : t -> bool -> unit
(** Switching durability on records the current frontier immediately. *)

val record_frontier : t -> unit
(** Commit the current frontier as a WAL marker now (done automatically
    after advancing steps when durable). *)

val checkpoint : t -> string -> unit
(** Snapshot the applied delta prefix and stored contents to a file (see
    {!Checkpoint.save}); [recover ~checkpoint] resumes from it instead of
    replaying the full trajectory. *)

val propagate_step : t -> bool
(** One propagation transaction (plus its compensations). [false] when the
    propagation process is fully caught up. When durable, an advancing
    step that committed work also records its frontier. *)

val propagate_step_reliable :
  t ->
  retry:Roll_util.Retry.policy ->
  sleep:(float -> unit) ->
  (bool, Roll_util.Retry.failure) result
(** {!propagate_step} under a retry policy: a step failing with
    {!Roll_util.Fault.Transient} has its partial emissions rolled back
    (the aborted transaction's writes) and is re-run after backoff,
    counting a retry in {!counters}; eventual success after retries counts a
    recovery. Exhausting the budget rolls back, counts an abort and
    returns the typed failure. Other exceptions (including
    {!Roll_util.Fault.Crash}) propagate. Memo eviction on rollback is
    scoped to the context's {!Ctx.memo_owner}, as for
    {!step_window_reliable}. *)

(** {2 Window stepping (waves)}

    Every service drain runs rolling-family steps in waves: chains of
    steps, one chain per pool slot and the slots concurrently, each step
    with an {e explicit} window chosen on the drain domain so that the
    slots' windows are pairwise disjoint. The steps execute in
    frozen-clock mode ({!Ctx.frozen_exec}): no capture advance, no marker
    commits — every database write a step performs goes to its own view
    delta, so concurrent steps never touch shared mutable state except the
    (domain-safe) memo and counters. Durability bookkeeping happens
    afterwards on the drain domain, in wave order
    ({!note_step_durable}). *)

val supports_window_step : t -> bool
(** Whether this controller's process decomposes into explicit-window
    steps — true exactly for the rolling family ([Rolling]/[Adaptive]);
    [Uniform] and [Deferred] keep their own pacing and take plain
    {!propagate_step}s. *)

val step_window :
  t ->
  relation:int ->
  hi:Roll_delta.Time.t ->
  frozen:Roll_delta.Time.t ->
  bool * bool
(** Run one explicit-window step [(tfwd relation, hi]] in frozen-clock
    mode with virtual execution time [frozen] (the capture high-water mark
    at wave start). Returns [(advanced, executed)]: [advanced] is false on
    an idle step, [executed] whether a physical query ran (false for a
    quiet-window advance or a full memo replay). Does {e not} record
    frontier markers — the drain domain calls {!note_step_durable}.
    @raise Invalid_argument unless {!supports_window_step}. *)

val step_window_reliable :
  t ->
  relation:int ->
  hi:Roll_delta.Time.t ->
  frozen:Roll_delta.Time.t ->
  retry:Roll_util.Retry.policy ->
  sleep:(float -> unit) ->
  (bool * bool, Roll_util.Retry.failure) result
(** {!step_window} under a retry policy, the wave analogue of
    {!propagate_step_reliable}. Rollbacks are owner-scoped: only memo
    entries inserted by this context's {!Ctx.memo_owner} slot are evicted,
    so concurrent sibling fills survive. [sleep] runs on the worker — it
    must only accumulate (never touch the database clock); the drain
    domain applies accumulated backoff deterministically after the wave
    joins. *)

val note_step_durable : t -> advanced:bool -> executed:bool -> unit
(** Post-join durability bookkeeping for one successful wave item, called
    on the drain domain in wave order: records a frontier marker iff the
    step advanced, the controller is durable, and a physical query ran
    (quiet advances replay deterministically on recovery — same rule as
    {!propagate_step}'s "clock moved" test). *)

val undo_window :
  t ->
  relation:int ->
  lo:Roll_delta.Time.t ->
  out_mark:int ->
  memo_mark:int ->
  owner:int ->
  unit
(** Undo a wave item that completed but is ordered {e after} a failed item
    of the same wave: truncate its emitted view-delta rows back to
    [out_mark], evict its owner's memo fills past [memo_mark], and restore
    [tfwd relation] to [lo]. The earliest failure in wave order wins and
    nothing after it happened. *)

val propagate_until : t -> Roll_delta.Time.t -> unit
(** Run propagation steps until [hwm] reaches the target (which must have
    elapsed). *)

val refresh_to : t -> Roll_delta.Time.t -> unit
(** Point-in-time refresh: ensure the delta covers the target (propagating
    if needed), then roll the materialized view to exactly that time. *)

val refresh_to_wall : t -> float -> Roll_delta.Time.t
(** Point-in-time refresh to a wall-clock instant: resolves the last
    relevant commit at or before that wall time through the unit-of-work
    table and refreshes to it. Returns the resolved logical time. *)

val refresh_latest : t -> Roll_delta.Time.t
(** Refresh to the database's current time. *)

val gc : t -> int
(** Prune applied view-delta rows; returns rows removed. When rows were
    reclaimed, the {!horizon} advances to the current {!as_of}: times
    below it are no longer reconstructible. *)

val horizon : t -> Roll_delta.Time.t
(** Earliest time {!view_at} can still reconstruct: the materialization
    time as of the last reclaiming {!gc} (the pruned delta prefix is
    gone), or the initial materialization time if gc never reclaimed. *)

val view_at : t -> Roll_delta.Time.t -> Roll_relation.Sorted_rows.t
(** Point-in-time snapshot: the view's rows as of exactly [time], sorted,
    computed from the stored contents and the view delta without moving
    the controller ([as_of]/[hwm] are unchanged — unlike {!refresh_to}).
    Requires [horizon t <= time <= hwm t].
    @raise Invalid_argument when [time] is below {!horizon} (the server
    maps this to a typed [`Gc_horizon] rejection). *)

val roll_rows :
  t ->
  Roll_relation.Sorted_rows.t ->
  from:Roll_delta.Time.t ->
  Roll_delta.Time.t ->
  Roll_relation.Sorted_rows.t
(** [roll_rows t rows ~from time] is [view_at t time] given [rows] =
    [view_at t from], in time linear in the snapshot and not in its sort
    ({!Apply.roll_rows}). Both times must lie in [[horizon t, hwm t]].
    @raise Invalid_argument when either is below {!horizon}. *)

val counters : t -> Counters.t

val window_alignment : t -> bool
(** Whether propagation step targets snap to the interval grid (see
    {!set_window_alignment}); always [false] for [Deferred]. *)

val set_window_alignment : t -> bool -> unit
(** With alignment on, step targets snap to multiples of the propagation
    interval (see {!Rolling.window_hi}), so sibling views maintained with
    the same intervals converge on identical delta windows — the
    precondition for the {!Service} sharing memo to hit across views.
    Default off: targets are exactly the legacy [min (start + interval)
    now]. No-op for [Deferred] processes. *)

(** {2 Scheduler interface}

    The maintenance scheduler plans work items from candidate descriptions
    rather than reaching into the propagation processes' frontier state. *)

type candidate = {
  relation : int;  (** source index whose delta window drives the step *)
  lo : Roll_delta.Time.t;
  hi : Roll_delta.Time.t;  (** the window (lo, hi] the step would propagate *)
  est_rows : int;  (** captured delta rows currently inside the window *)
  est_cost : float;
      (** planner-estimated rows the forward query would touch (0 for a
          quiet advance) *)
}

val step_candidates : t -> candidate list
(** The forward steps the propagation process could take next, the
    process's actual next choice first; empty when fully caught up (exactly
    when {!propagate_step} would return [false]). Rolling-family processes
    report one candidate per relation still behind the current time;
    [Uniform] folds its all-relations step into a single candidate driven
    by the busiest relation. The candidate window is computed against the
    current database time, so it may extend past the capture high-water
    mark — schedulers compare [hi] against [Roll_capture.Capture.hwm] to
    detect capture backpressure before running the step. *)

val estimate_step_cost :
  t -> relation:int -> lo:Roll_delta.Time.t -> hi:Roll_delta.Time.t -> float
(** Cost-model estimate (rows touched) of the forward query windowing
    [relation] over (lo, hi], from catalog statistics and the captured
    window row count; never touches capture cursors, so estimating an
    uncaptured window is safe. *)
