(** Maintenance context: everything a propagation process needs.

    Bundles the database, the capture process, the view, the accumulating
    view-delta table, counters, the optional geometry trace, and the
    [on_execute] hook with which tests and benches inject concurrent update
    transactions between propagation queries — the concurrency that makes
    compensation necessary. *)

type source = {
  tables : Roll_storage.Table.t list;
      (** the partial's part mirrors, whose union is read in place of the
          base; one table for a narrowed partial, the light residual plus
          one per heavy key for a partitioned one *)
  cols : int array;
      (** column remap: mirror column [k] holds base column [cols.(k)] *)
  prefix : string;
      (** plan-name prefix for the substituted read: α for a narrowed
          partial, η for a partitioned one *)
}
(** A substitutable source: a materialized per-relation partial (projection
    of a selection of one base table) the executor may read instead of the
    base table itself. Produced by the {!Partial} registry's freshness
    closure; consuming it is only sound while every part equals its slice
    of the partial applied to the base table's current committed state. *)

type footprint = {
  exec : Roll_delta.Time.t;  (** serialization time of the query *)
  description : string;
  reads : (string * int) list;
      (** resource name ("R" for a base table, "ΔR" for its delta) and rows
          read from it *)
  emitted : int;  (** rows added to the view delta *)
}
(** Which resources one propagation query read, and how many rows: what
    the contention simulator replays, so its lock-queueing model runs on
    measured rather than assumed transaction sizes. *)

type t = {
  db : Roll_storage.Database.t;
  capture : Roll_capture.Capture.t;
  view : View.t;
  out : Roll_delta.Delta.t;  (** the view delta being accumulated *)
  counters : Counters.t;  (** this context's counters *)
  mutable footprints : footprint Roll_util.Vec.t option;
      (** every executed query's footprint, in execution order, once
          {!keep_footprints} switched recording on; [None] (the default)
          records nothing *)
  mutable geometry : Geometry.t option;
  mutable on_execute : unit -> unit;
      (** called immediately before each propagation query's transaction *)
  mutable on_emit :
    description:string -> Roll_relation.Tuple.t -> int -> Roll_delta.Time.t -> unit;
      (** row provenance hook: called for every view-delta row a query
          emits, with the signed count and timestamp; for tracing and
          debugging *)
  mutable auto_capture : bool;
      (** advance capture before every query (default true); switch off to
          drive capture lag by hand *)
  mutable skip_empty_windows : bool;
      (** skip queries whose forward window is provably empty (default
          true); the geometry trace records an equivalent virtual box so
          coverage checking stays exact. Switch off to observe the paper's
          full query structure (e.g. the four queries of Equation 3). *)
  mutable timestamp_rule : [ `Min | `Max ];
      (** how a result row's timestamp is derived from its delta inputs.
          [`Min] is the paper's (correct) rule from Section 3.3; [`Max] is
          kept as an ablation that the benches show to break
          transaction-consistent point-in-time states. *)
  mutable last_report : Exec.report option;
      (** instrumented report of the most recent pipeline run in this
          context (per-step estimated vs. actual cardinalities, reads,
          hash builds, wall time) — what [Executor.explain_analyze] and
          [rollctl explain] read back *)
  mutable fault : Roll_util.Fault.t;
      (** fault-injection handle visited by every maintenance hot path
          (executor queries, compensation, frontier advances, apply,
          checkpoint writes); {!Roll_util.Fault.none} (the default) makes
          the visits free. The capture process carries its own handle
          ([Roll_capture.Capture.set_fault]). *)
  mutable memo : Memo.t;
      (** delta memo + build cache consulted by [ComputeDelta] and the
          executor. Freshly created contexts carry a private {e disabled}
          memo (standalone maintenance is bit-identical to the unshared
          pipeline); {!Service} replaces it with one shared, enabled memo
          per service when sharing is on. *)
  mutable obs : Roll_obs.Obs.t;
      (** Rollscope observability handle: clock, trace recorder, metrics
          registry. Defaults to {!Roll_obs.Obs.disabled}, under which every
          instrumentation point in the maintenance path reduces to one
          branch. {!Service} installs its own handle on registered views. *)
  mutable frozen_exec : Roll_delta.Time.t option;
      (** When [Some t], the step executes in {e frozen-clock} mode: every
          query uses [t] as its virtual execution time instead of
          committing a marker transaction, and capture is not advanced.
          Sound whenever base tables do not change while the flag is set —
          each window then contains the same rows it would at any physical
          execution time (the memo theorem) — which is how a parallel wave
          runs steps on worker domains without touching the single-writer
          database clock. [None] (the default) is the ordinary path. *)
  mutable memo_owner : int;
      (** Work-item tag passed to {!Memo.add} for entries this context
          inserts, so a rollback can evict exactly one step's entries
          ({!Memo.evict_since}): the context's position in the last wave
          that ran it, 0 before any. *)
  mutable partial : (peek:bool -> int -> source option) option;
      (** Partial substitution closure, installed by the {!Partial}
          registry: called with a source position whenever a query term
          reads that source as a base relation. [Some s] means "read the
          union of [s.tables] instead — every part is fresh"; [None] means
          no partial exists (or it lags) and the base table is read as
          always. [peek:true] is the cost-estimation variant: it returns
          the parts whenever a substitutable partial exists, without the
          freshness test and without touching the hit/miss counters.
          [None] overall (the default) disables substitution. *)
}

val create :
  ?geometry:bool ->
  ?obs:Roll_obs.Obs.t ->
  ?t_initial:Roll_delta.Time.t ->
  Roll_storage.Database.t ->
  Roll_capture.Capture.t ->
  View.t ->
  t
(** The capture process must already have every source table attached.
    [t_initial] (default [Database.now db]) seeds the geometry trace's
    origin. @raise Invalid_argument if a source table is not attached. *)

val keep_footprints : t -> unit
(** Record the footprint of every query executed from now on. Off by
    default: the log grows with every query. *)

val footprints : t -> footprint list
(** The recorded footprints, oldest first ([[]] unless recording is on). *)
