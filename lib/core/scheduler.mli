(** Unified maintenance-task scheduler.

    The paper leaves propagation pacing as hand-tuned knobs: one interval
    per relation (§3.4), chosen "to balance query execution overhead
    against data contention" (§3.3). This module closes that loop. All
    maintenance work — capture advances, propagation steps, apply
    refreshes, checkpoints, garbage collection — is expressed as one
    {!item} vocabulary, and a drain repeatedly picks the best next item
    from a priority queue scored by per-view staleness against an SLA,
    planner-estimated step cost, and capture backpressure.

    {2 Policies}

    - {!Slack} (default): earliest-deadline-first on staleness slack
      ([sla - staleness], in commits), with a small cost penalty
      ([cost_weight * estimated rows touched]) so that among equally
      urgent steps the cheaper one runs first. Apply refreshes score on
      the stored view's own slack, slightly behind propagation.
    - {!Round_robin}: reproduces the legacy [Service.step_all] behavior —
      views take propagate turns in registration order, each view stepping
      at most once more than any other non-idle view per drain.

    {2 Backpressure}

    A propagate step whose forward-query window would reach past the
    capture high-water mark is {e deferred} (running it would read an
    under-captured delta window, which the executor rejects), and the
    pending {!Capture_advance} item is boosted to the front of the queue.
    Each boosted advance strictly reduces the capture lag, so capture lag
    can never deadlock propagation: once the deferred windows are fully
    captured the steps become runnable again. With [capture_batch] set,
    each advance captures at most that many log records, bounding the
    latency any single work item can add to the loop.

    The scheduler only plans and scores; the {!Service} drain executes the
    chosen items (so retry, durability and pause semantics stay where they
    are) and reports back through {!note_ran}. Counters live in the
    scheduler's {!Counters.t}, by item kind (the [Counters.sched_*]
    families). *)

type policy = Slack | Round_robin

type item =
  | Capture_advance  (** advance the capture cursor (one batch) *)
  | Propagate_step of { view : string; relation : int }
      (** run the view's next propagation step; [relation]'s delta window
          drives the forward query *)
  | Apply_refresh of string  (** roll the stored view forward to its hwm *)
  | Checkpoint of string  (** snapshot the view's maintenance state *)
  | Gc of string  (** prune applied view-delta rows *)

type scored = {
  item : item;
  score : float;  (** queue priority; lower runs first *)
  staleness : int;
      (** commits behind current time (capture items report their lag) *)
  slack : int;  (** [sla - staleness]; negative means the SLA is violated *)
  est_rows : int;  (** delta rows the item would move *)
  est_cost : float;  (** planner-estimated rows touched *)
  deferred : bool;
      (** capture backpressure: the window is not fully captured yet *)
  window : (string * Roll_delta.Time.t * Roll_delta.Time.t) option;
      (** for propagate items, the [(table, lo, hi)] delta window the
          step's forward query would read — the key {!take_wave} chains
          and separates slots on; [None] for every other kind *)
  readers : int;
      (** clients currently blocked waiting on this view's freshness (see
          {!set_read_demand}); 0 for non-propagate kinds *)
  partial : bool;  (** the item maintains a part of a derived partial *)
}

type source = {
  name : string;
  controller : Controller.t;
  paused : bool;  (** paused views contribute no items *)
  sla : int;  (** staleness target, in commits *)
  apply_due : bool;
      (** offer an [Apply_refresh] item when the view also has unapplied
          coverage (full drains only). Drains gate this to once per view
          per drain: a durable apply records a frontier marker, which
          re-stales the view by one commit — re-offering immediately would
          ping-pong apply against propagate until the budget is gone. *)
  checkpoint_due : bool;  (** offer a [Checkpoint] item (full drains only) *)
  gc_due : bool;  (** offer a [Gc] item (full drains only) *)
  partial : bool;
      (** a part of a derived partial (an auxiliary view or a heavy key's
          partial, see {!Partial}): its propagate items score one fixed
          band {e below} every user view's slack score while all user
          views are within their SLAs (parts must freshen first for their
          substitution reads to hit), and one band {e above} the moment
          any unpaused user view is in breach — an optimization never
          outranks a violated SLA. The band sits below the reader boost.
          Parts are excluded from the breach test itself. *)
}

type t

val create :
  ?policy:policy ->
  ?cost_weight:float ->
  ?capture_batch:int ->
  Roll_storage.Database.t ->
  Roll_capture.Capture.t ->
  t
(** [cost_weight] (default 0.01) converts estimated rows touched into
    slack-commit units: with the default, 100 estimated rows weigh as much
    as one commit of staleness. [capture_batch] bounds the log records one
    [Capture_advance] item captures (default: unbounded — one advance
    catches up fully).
    @raise Invalid_argument if [capture_batch] is not positive. *)

val policy : t -> policy

val set_policy : t -> policy -> unit

val capture_batch : t -> int option

val counters : t -> Counters.t
(** Scheduler counters: per-kind scheduled/ran/deferred/backpressured/
    batched and execution wall time, plus capture retries and aborts. *)

val plan : ?full:bool -> t -> source list -> scored list
(** Score every currently available work item, best (lowest score) first —
    the queue a drain would consume, including deferred items (at the
    back, marked). With [full = false] (default) only propagation and
    capture work is offered — the [step_all] drain; [full = true] also
    offers apply/checkpoint/gc items. Planning is read-only and can be
    called at any time to inspect the queue. *)

val take_wave :
  ?full:bool -> t -> source list -> max:int -> scored list list
(** Pop the next {e wave} (replanning against current state) and count
    scheduled/deferred/backpressured: up to [max] slots, each a {e chain}
    of items the drain runs back to back on one domain slot; the slots
    may run concurrently. [[]] when nothing is runnable — every view is
    caught up (or paused) and capture has no lag.

    The first slot is headed by the best runnable item. Deferred
    propagate items are never handed out; when any exist and capture
    lags, the capture item heads instead, with a boosted score. Under
    {!Slack}, a propagate head is followed by every other runnable
    propagate step whose forward query reads the {e same} delta window
    (equal {!scored.window}), in score order: sibling steps that serve
    each other from the drain-scoped delta memo and share hash builds.
    Under {!Round_robin}, and for every non-propagate head, the chain is
    the head alone.

    When every member of the first chain is a window-steppable
    (rolling-family) propagate step and [max > 1], further runnable
    window-steppable steps head slots of their own in score order, each
    with its own chain, as long as their windows are {e pairwise
    disjoint} from every slot's: two windows conflict exactly when they
    overlap on the same table. At most one item per view is ever offered,
    so all members are distinct views. Every member after the first
    counts toward the propagate kind's [batched] counter.
    @raise Invalid_argument if [max] is not positive. *)

val note_ran : ?domain:int -> t -> item -> wall:float -> unit
(** Record that a taken item was executed, folding [wall] seconds into its
    kind's latency counter and advancing the round-robin turn state.
    [domain] (default 0, the drain domain) records which domain slot
    executed the item — see {!ran_by_domain}. *)

val ran_by_domain : t -> ((string * int) * int) list
(** Execution provenance: [((kind, domain slot), items run)], sorted by
    kind then slot. A one-slot pool puts everything on slot 0. *)

val begin_drain : t -> unit
(** Reset per-drain round-robin turn state (and queue-wait bookkeeping).
    Call at the start of every budgeted drain. *)

val set_read_demand : t -> (string -> int) -> unit
(** Install the read-demand census: [f view] reports how many admitted
    readers are currently blocked waiting for [view]'s high-water mark to
    reach their requested time. A view with waiting readers has its
    runnable propagate steps boosted by a fixed reader band (above every
    slack score, below capture backpressure), so read traffic outranks
    idle slack without reordering the backpressure machinery. Deferred
    steps stay deferred — the boost never runs an under-captured window.
    The boost cannot starve other views: every boosted step strictly
    advances the boosted view's frontier toward the readers' target, so
    demand drains in finitely many steps and scoring reverts to slack
    order. Default census: no demand. *)

val set_obs : t -> Roll_obs.Obs.t -> unit
(** Attach an observability handle. When enabled, {!plan} stamps each item
    with the clock reading at which it was first offered, so {!queue_wait}
    can report how long the drain left it pending. *)

val queue_wait : t -> item -> float option
(** Seconds since [item] was first offered by a {!plan} call of the
    current drain, or [None] when unknown (obs disabled, or the item was
    never planned). Ask {e before} {!note_ran}, which ends the wait. *)

val kind_name : item -> string
(** ["capture"], ["propagate"], ["apply"], ["checkpoint"] or ["gc"] — the
    [kind] label the item is counted under. *)

val pp_item : Format.formatter -> item -> unit
