(** Multi-view maintenance service: the control tables of Figure 11.

    The prototype's control tables "identify the tables associated with
    each materialized view … and record the current view materialization
    time and the view delta high-water mark". This module is that registry:
    several views maintained over one database and one capture process,
    each with its own propagation algorithm and apply state, plus the
    operational controls a DBA would expect — status, per-view
    pause/resume (either process "can be suspended during periods of high
    system load"), budgeted propagation, and garbage collection.

    Since the scheduler refactor, every budgeted drain ({!step_all},
    {!try_step_all}, {!maintain}) pulls its work items from one
    {!Scheduler} queue scored by staleness against a per-view SLA,
    estimated step cost and capture backpressure. The legacy
    registration-order sweep is preserved as {!Scheduler.Round_robin};
    the default policy is {!Scheduler.Slack}. *)

type t

type role =
  | View  (** a registered user view *)
  | Auxiliary  (** an auxiliary view: a narrowing policy's partial *)
  | Heavy_partial  (** a heavy key's partial: a partitioning policy's part *)

type status = {
  name : string;
  role : role;
  as_of : Roll_delta.Time.t;  (** materialization time of the stored view *)
  hwm : Roll_delta.Time.t;  (** view-delta high-water mark *)
  staleness : int;  (** current time minus hwm, in commits *)
  sla : int;  (** staleness target, in commits *)
  slack : int;  (** [sla - staleness]; negative means the SLA is violated *)
  delta_rows : int;  (** rows currently held in the view delta *)
  paused : bool;
  partial_lag : int;
      (** for a part of a derived partial: how many commits its probe
          mirror trails the database clock; for a user view: the worst lag
          across every part of the partials its probes depend on (0 when it
          has none) *)
  heavy_keys : int;
      (** for a user view: currently-heavy keys across its partitioned
          relations; 0 for other roles *)
  light_rows : int;
      (** for a user view: rows held by its light residual mirrors; 0 for
          other roles *)
  counters : Roll_obs.Metrics.sample_family list;
      (** one snapshot of the view's {!Counters} (read one with {!count}):
          queries, retries, memo, aux and hot hits and misses, reads
          served, … — the very series Prometheus exports for the view *)
}
(** One view's row of the control tables. The service's metrics collector
    exports these rows: every counter in [counters], and the freshness
    fields as [roll_view_*] gauges, labeled [view=<name>]. *)

type step_error = {
  view : string;
      (** which registered view's step failed permanently; ["(capture)"]
          when a retried capture advance exhausted its budget *)
  point : string;  (** fault point of the last failing attempt *)
  hit : int;
  attempts : int;
}

val create :
  ?policy:Scheduler.policy ->
  ?cost_weight:float ->
  ?capture_batch:int ->
  ?sharing:bool ->
  ?auxiliary:bool ->
  ?hotset:bool ->
  ?default_sla:int ->
  ?gc_threshold:int ->
  ?obs:Roll_obs.Obs.t ->
  ?domains:int ->
  Roll_storage.Database.t ->
  Roll_capture.Capture.t ->
  t
(** [policy] (default {!Scheduler.Slack}), [cost_weight] and
    [capture_batch] configure the underlying {!Scheduler}. [default_sla]
    (default 100 commits) is the staleness target newly registered views
    start with; override per view with {!set_sla}. [gc_threshold]
    (default: disabled) makes {!maintain} offer a gc item once a view
    holds at least that many applied delta rows.

    [sharing] (default: the [ROLL_SHARING] environment flag, off when
    unset) turns on cross-view shared maintenance:
    every registered view's context is plugged into one drain-scoped
    {!Memo} (identical propagation deltas computed once, replayed for
    siblings; hash builds and delta-window materializations shared through
    the build cache), step windows snap to the propagation-interval grid
    (see {!Controller.set_window_alignment}) so sibling windows coincide,
    and {!Scheduler.Slack} drains chain same-window sibling steps back to
    back on one slot ({!Scheduler.take_wave}). Sharing changes which
    physical queries run — never the maintained contents.

    [auxiliary] (default: the [ROLL_AUX] environment flag, off when unset)
    turns on higher-order delta processing: registering a view also
    derives, materializes and registers its per-relation semi-join/
    projection partials as auxiliary views ({!Partial.attach}) —
    ordinary service entries maintained through the same capture →
    propagate → apply → WAL path, scheduled one band below user-view SLAs
    — and installs the substitution closure so the view's propagation
    queries probe a fresh auxiliary mirror instead of scanning the base
    table, falling back transparently whenever the mirror lags. Like
    sharing, auxiliaries change which physical reads happen — never the
    maintained contents.

    [hotset] (default: the [ROLL_HOTSET] environment flag, off when unset)
    turns on skew-aware heavy-light partitioning: registering a view also
    derives a {!Hotset} partition group for its most-joined source
    relation — a frequency sketch fed from the capture stream, one lazy
    light residual mirror, and an eagerly-maintained durable partial per
    heavy key, registered as ordinary service entries and scheduled one
    band below user-view SLAs — and installs the substitution closure so
    the view's propagation queries read the η-union of the fresh parts
    instead of scanning the base relation, falling back transparently
    whenever any part lags. Keys migrate between classes at drain
    boundaries through exact, crash-safe handoffs. At a source that is
    both narrowed and partitioned the auxiliary is consulted first. Like
    sharing and auxiliaries, the hotset changes which physical reads
    happen — never the maintained contents.

    [obs] (default disabled) is the Rollscope observability handle for the
    whole service: it is installed on the database, the capture process,
    the scheduler and every context the service registers, so one handle
    sees capture → propagate → apply → checkpoint end to end. When
    enabled, drains record ["service.drain"] / ["sched.item"] spans (with
    queue-wait attributes), per-kind item-latency, window-width and
    rows-emitted histograms, and every registered view's {!Counters} surface
    as [view]-labeled registry series alongside per-view freshness gauges,
    read through one collector that walks the live views (a view's series
    leave the registry when the view leaves the service).
    [domains] (default 1) sizes the worker-domain pool every drain runs
    on; a one-slot pool spawns no domain and runs everything on the
    caller. Drains plan {e waves} ({!Scheduler.take_wave}): up to
    [domains] slots, each a chain of propagation steps, the slots'
    windows pairwise disjoint. Rolling-family steps execute in
    frozen-clock mode ({!Controller.step_window}), the slots
    concurrently, while capture, apply, checkpoint, gc, [Uniform] and
    [Deferred] steps, WAL markers and the retry wall clock stay on the
    calling (single writer) domain. Every width maintains bit-identical
    view contents and frontier markers — only throughput changes.
    @raise Invalid_argument on non-positive [default_sla], [gc_threshold],
    [capture_batch], or [domains < 1]. *)

val env_domains : unit -> int option
(** Parse the [ROLL_DOMAINS] environment variable ([n >= 1]) — the
    conventional way tests and CI select the pool size; [None] when unset
    or empty. Callers pass it to [create]'s [?domains].
    @raise Invalid_argument naming the variable and its value when it is
    set to anything else (zero, negative, not a number). *)

val domains : t -> int
(** Domain slots drains execute on: the pool size ([workers + caller]). *)

val shutdown : t -> unit
(** Join the worker-domain pool (a one-slot pool has none to join).
    Idempotent; a multi-slot pool also shuts down on process exit, but
    callers creating many short-lived multi-slot services must release
    each one to stay under the runtime's domain limit. Draining a
    shut-down service is an error. *)

val register :
  ?durable:bool -> t -> algorithm:Controller.algorithm -> View.t -> Controller.t
(** Materializes and registers a view under its own name. [durable]
    (default false) is passed through to {!Controller.create}.
    @raise Invalid_argument if the name is already registered. *)

val register_recovered :
  ?checkpoint:string ->
  t -> algorithm:Controller.algorithm -> View.t -> Controller.t
(** Registers a view by recovering its durable maintenance state instead of
    re-materializing (see {!Controller.recover}).
    @raise Invalid_argument if the name is already registered or there is
    no durable state for the view. *)

val unregister : t -> string -> unit
(** Remove a user view from the service and release its claim on its
    auxiliaries and partition groups; auxiliaries and heavy partials left
    with no owning view are retired with it (their entries leave the
    service, so no further maintenance is planned for them). Durable state
    is left in place — re-registering recovers it.
    @raise Not_found when no such view is registered
    @raise Invalid_argument when [name] is an auxiliary view or a heavy
    partial (those are retired automatically when their last owner goes). *)

val partials : t -> Partial.registry
(** The derived-partial registry: every auxiliary view and heavy-light
    partition group the service maintains (empty when both are off). *)

val hotset : t -> Hotset.t option
(** The partitioning policy, when the service was created with the
    hotset enabled. *)

val controller : t -> string -> Controller.t
(** @raise Not_found *)

val names : t -> string list

val scheduler : t -> Scheduler.t
(** The service's work queue — inspect its policy and
    {!Scheduler.counters}. *)

val set_read_demand : t -> (string -> int) -> unit
(** Install the waiting-reader census on the service's scheduler (see
    {!Scheduler.set_read_demand}); the [rolld] serving engine plugs its
    blocked-reader queue in here so drains prioritize views clients are
    waiting on. *)

val obs : t -> Roll_obs.Obs.t
(** The service's observability handle (a disabled one unless [create]
    received [?obs]). *)

val sharing : t -> bool

val memo : t -> Memo.t
(** The service-wide delta memo (disabled, empty and never consulted
    unless the service was created with [~sharing:true]). *)

val set_sla : t -> string -> int -> unit
(** Set one view's staleness target, in commits.
    @raise Not_found
    @raise Invalid_argument on a non-positive target. *)

val sla : t -> string -> int
(** @raise Not_found *)

val set_checkpoint : t -> string -> path:string -> every:int -> unit
(** Make {!maintain} checkpoint the view to [path] whenever at least
    [every] commits have elapsed since its last checkpoint.
    @raise Not_found
    @raise Invalid_argument on non-positive [every]. *)

val set_gc_threshold : t -> int -> unit
(** Applied delta rows per view above which {!maintain} offers a gc item.
    @raise Invalid_argument on a non-positive threshold. *)

val status : t -> status list
(** One row per registered view, in registration order. *)

val count : status -> Counters.counter -> int
(** One counter of a status row. *)

val status_json : t -> Roll_util.Json.t
(** {!status} as a JSON array, one object per view in registration order:
    the freshness fields, ["role"] (["view"], ["aux"] or ["hot"]) and
    ["counters"], an object of every unlabeled counter by metric name —
    what [rollctl status --json] and [rolld]'s STATUS report. *)

val schedule_json : ?full:bool -> t -> Roll_util.Json.t
(** {!schedule} as a JSON array, best item first — what
    [rollctl schedule --json] prints. *)

val shard_of : t -> string -> int
(** The domain slot a view name hashes to — the observational shard used
    by {!shard_depths}; actual wave execution assigns items to slots by
    wave position. Always 0 for a one-slot service. *)

val shard_depths : ?full:bool -> t -> int array
(** Planned queue depth per domain slot: propagate items counted under
    their view's {!shard_of} slot, every other kind under the
    single-writer slot 0. Length {!domains}. *)

val ran_by_domain : t -> ((string * int) * int) list
(** Execution provenance, [((kind, domain slot), items run)] — see
    {!Scheduler.ran_by_domain}. *)

val shards_json : ?full:bool -> t -> Roll_util.Json.t
(** {!shard_depths} and {!ran_by_domain} as one JSON object
    [{"domains":n,"shards":[{"shard","depth"}...],"ran":[{"kind","domain","count"}...]}]
    — what [rollctl status --domains n --json] adds. *)

val schedule : ?full:bool -> t -> Scheduler.scored list
(** Snapshot of the current work queue, best first (see
    {!Scheduler.plan}). [full] defaults to [false]: the queue a
    {!step_all} drain would consume; pass [true] for the {!maintain}
    queue including apply/checkpoint/gc items. *)

val pause : t -> string -> unit
(** Suspend propagation for one view ([step_all] skips it; explicit
    refreshes through its controller still work). *)

val resume : t -> string -> unit

val step_all : t -> budget:int -> int
(** Drain the scheduler, running up to [budget] propagation steps over
    non-paused views and stopping early when every one is idle. Capture
    advances triggered by backpressure are free — they do not count
    against the budget. Returns steps executed. Under
    {!Scheduler.Round_robin} this reproduces the legacy
    registration-order sweep. *)

val try_step_all :
  ?sleep:(float -> unit) ->
  t ->
  budget:int ->
  retry:Roll_util.Retry.policy ->
  (int, step_error) result
(** {!step_all} with each step run under {!Controller.propagate_step_reliable}:
    transient step failures are retried with backoff (sleeping through
    [sleep], which defaults to advancing the database's simulated wall
    clock), and the first step to exhaust its retry budget stops the
    drain and surfaces as a typed [step_error]. [Ok steps] otherwise,
    like {!step_all}. *)

val maintain :
  ?retry:Roll_util.Retry.policy ->
  ?sleep:(float -> unit) ->
  t ->
  budget:int ->
  (int, step_error) result
(** Full maintenance drain: like {!step_all} but the queue also offers
    apply refreshes (roll each stored view forward to its high-water
    mark), due checkpoints (see {!set_checkpoint}) and due gc (see
    {!set_gc_threshold}); each such item counts one unit of [budget].
    With [retry], propagation steps run under the retry policy as in
    {!try_step_all}. Returns items executed. *)

val refresh_all : t -> unit
(** Refresh every non-paused view to the current time. *)

val gc_all : t -> int
(** Prune applied delta rows of every view; returns total rows removed.
    Also reclaims the WAL prefix below every consumer's horizon (see
    {!reclaim_wal}). *)

val reclaim_wal : t -> int
(** Reclaim the WAL prefix at or below the minimum of every view's gc
    horizon and the capture high-water mark. On a paged store this deletes
    whole on-disk WAL segments; in memory it is a no-op. Returns the
    number of segments deleted. Runs automatically after each scheduled
    gc work item and after {!gc_all}. *)
