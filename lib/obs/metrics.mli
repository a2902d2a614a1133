(** Metric registry: the numbers half of Rollscope, and the project's one
    counter store.

    A registry holds labeled {e families} of counters, gauges and
    log-linear histograms, created on first use. Counter and gauge series
    are lock-free atomic cells: resolve a series once (get-or-create takes
    the registry lock) and every later {!inc}/{!add}/{!set} is a single
    compare-and-set, safe from any domain. Exporters consume a
    deterministic {!snapshot}.

    Each maintenance context keeps its counters in a registry of its own
    ([Roll_core.Counters]); a {e collector} (see {!register_collector})
    surfaces such registries in a service-wide one at snapshot time,
    relabeled with {!with_labels} — [Roll_core.Service] registers one
    collector that walks its live views, so a view's series leave the
    export when the view does.

    Metric names follow Prometheus conventions ([roll_*_total] counters,
    [_seconds] durations, [snake_case] labels); see DESIGN.md section 14
    for the full naming scheme. *)

type labels = (string * string) list

type kind = Counter | Gauge | Histogram

type t

val create : unit -> t

(** {1 Live instruments}

    Get-or-create: the same (name, labels) pair always returns the same
    instrument. @raise Invalid_argument on a malformed metric name, a kind
    clash with an existing family, or malformed histogram buckets. *)

type counter

val counter : t -> ?help:string -> ?labels:labels -> string -> counter

val inc : counter -> unit

val add : counter -> float -> unit
(** @raise Invalid_argument on a negative increment. *)

type gauge

val gauge : t -> ?help:string -> ?labels:labels -> string -> gauge

val set : gauge -> float -> unit

type histogram

val histogram :
  t -> ?help:string -> ?labels:labels -> ?buckets:float array -> string -> histogram
(** [buckets] are strictly increasing upper bounds (an implicit +inf
    bucket is appended); default {!log_linear} with its default range. *)

val histogram_by :
  t ->
  ?help:string ->
  ?buckets:float array ->
  key:string ->
  string ->
  string ->
  histogram
(** [histogram_by t ~key name] resolves per label value: applied to [v],
    it returns [name{key=v}]. Each value takes the registry lock once;
    later calls hit a lock-free cache, so a per-event observation costs no
    lock, label sort or bucket ladder. *)

val observe : histogram -> float -> unit

val log_linear : ?lo:float -> ?hi:float -> unit -> float array
(** The 1-2-5 log-linear ladder from [lo] (default 1e-6) to [hi] (default
    1e6): logarithmic decades, linearly subdivided — fine resolution at
    every scale with a bounded bucket count.
    @raise Invalid_argument unless [0 < lo < hi]. *)

val value : counter -> float
(** Current value of a counter or gauge (histograms report their sum). *)

val hist_count : histogram -> int

(** {1 Snapshots and collectors} *)

type hist_snapshot = {
  h_bounds : float array;
  h_counts : int array;  (** per-bucket counts; last entry is the +inf bucket *)
  h_sum : float;
  h_count : int;
}

type point = {
  p_labels : labels;  (** sorted by label key *)
  p_value : float;
  p_hist : hist_snapshot option;
}

type sample_family = {
  sf_name : string;
  sf_help : string;
  sf_kind : kind;
  points : point list;
}

val register_collector : t -> (unit -> sample_family list) -> unit
(** Register a read-through source of families, called at every
    {!snapshot}. Its families merge with the live ones and with other
    collectors' by name (points are concatenated). *)

val sample :
  ?help:string -> kind:kind -> string -> (labels * float) list -> sample_family
(** A counter or gauge family with the given points, for a collector to
    return. @raise Invalid_argument on a malformed name or the histogram
    kind. *)

val with_labels : labels -> sample_family list -> sample_family list
(** Add [labels] to every point (e.g. [[("view", name)]]). *)

val snapshot : t -> sample_family list
(** Every family (live and collected), sorted by name, points sorted by
    rendered labels — a deterministic order exporters and golden tests can
    rely on. *)

val find_value : t -> ?labels:labels -> string -> float option
(** Look one value up in a fresh snapshot. *)

val reset : t -> unit
(** Zero every live instrument (collectors read through and are
    unaffected). *)

val kind_name : kind -> string
