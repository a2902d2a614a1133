(** A maintenance context's counters, kept in a {!Roll_obs.Metrics}
    registry of its own.

    Each counter is declared once below, by its metric name and help;
    {!create} resolves every declared series into a fresh registry, so an
    increment is one lock-free update of a series resolved up front and
    safe from any domain. Labeled families ({!labeled}) resolve a series
    per label value on first use and cache it without a lock.

    Every {!Ctx.t} carries one (per view), and so does the scheduler
    (capture retries and the per-kind work-item counters). A service with
    observability on surfaces them in its registry through one collector
    that walks its live views (see {!Service}). *)

type t

type counter
(** A declared counter. *)

type labeled
(** A declared counter family with one label. *)

val create : unit -> t

val metrics : t -> Roll_obs.Metrics.t
(** The registry holding every series of [t]. *)

val incr : t -> counter -> unit

val add : t -> counter -> float -> unit
(** @raise Invalid_argument on a negative increment. *)

val get : t -> counter -> float

val count : t -> counter -> int
(** [get], truncated. *)

val read : Roll_obs.Metrics.sample_family list -> counter -> float
(** The counter's value in a snapshot of a {!metrics} registry (0 when
    absent). *)

val add_by : t -> labeled -> string -> float -> unit
(** [add_by t family value n] adds [n] to the series labeled [value]. *)

val get_by : t -> labeled -> string -> float

val values : t -> labeled -> string list
(** The label values used so far, sorted. *)

val reset : t -> unit
(** Zero every series. *)

val pp : Format.formatter -> t -> unit
(** Every non-zero unlabeled counter, as [metric_name=value] pairs. *)

(** {1 The declared counters}

    Each one's metric name is [roll_<name>_total], with [_seconds] before
    [_total] for the two durations ([exec_wall], [read_wait]); its help
    text is in [counters.ml]. *)

val queries : counter

val rows_read : counter

val rows_emitted : counter

val compute_delta_calls : counter

val rows_scanned : counter
(** Rows fetched by scan, hash-build and nested-loop steps. *)

val rows_probed : counter
(** Rows fetched through secondary-index probes. *)

val hash_builds : counter

val exec_wall : counter

val retries : counter

val aborts : counter

val recoveries : counter

val memo_hits : counter

val memo_misses : counter

val shared_builds : counter

val aux_hits : counter

val aux_misses : counter

val hot_hits : counter

val hot_misses : counter

val reads_served : counter

val reads_rejected : counter

val read_wait : counter

val resource_scanned : labeled
(** By [resource], a plan step's source name; so are the next two. *)

val resource_probed : labeled

val resource_wall : labeled

val sched_scheduled : labeled
(** By work-item [kind] ("capture", "propagate", "apply", "checkpoint",
    "gc"); so are the other [sched_] families. *)

val sched_ran : labeled

val sched_deferred : labeled

val sched_backpressured : labeled

val sched_batched : labeled

val sched_wall : labeled
