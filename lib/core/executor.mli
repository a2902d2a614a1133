(** Propagation-query execution.

    Evaluates an n-way join between base tables (current committed state)
    and delta-table windows, producing timestamped, counted view-delta rows:
    count = product of input counts, timestamp = minimum of the input delta
    timestamps (Section 2). The heavy lifting lives one layer down:
    [Planner] picks a cost-based join order and access path per input, and
    [Exec] runs the plan as a pull-based cursor pipeline, so propagation
    queries cost O(delta × matching rows) rather than O(product of table
    sizes) and base tables probed through an index are never materialized.

    [execute] is the paper's [Execute]: it runs the query as one
    transaction, appends the (signed) result to the accumulating view delta,
    commits a WAL marker and returns the marker's commit sequence number —
    the query's serialization time.

    When the context carries a partial-substitution closure
    ([Ctx.partial]), Base terms whose source has a {e fresh} derived
    partial are resolved to the union of its part mirrors instead of the
    base relation: pre-applied single-source atoms are dropped from the
    predicate and every remaining column reference is remapped into mirror
    coordinates before planning. The rewritten query emits bit-identical
    rows (fresh parts {e are} the partial applied to current state), so
    substitution is invisible to the memo, the geometry trace and the view
    delta — only plans, read counts and the aux/hot hit/miss counters show
    it. *)

val evaluate :
  Ctx.t ->
  Pquery.t ->
  (Roll_relation.Tuple.t * int * Roll_delta.Time.t) list * (string * int) list
(** [evaluate ctx q] is [(rows, reads)]: the query result as (projected
    tuple, count, timestamp) plus the per-resource read counts, in input
    order. All-base queries yield rows stamped [Time.origin]. Updates
    [ctx.last_report] and the pipeline counters in [ctx.counters] but commits
    nothing. @raise Invalid_argument if a window extends beyond the capture
    high-water mark. *)

val execute : Ctx.t -> sign:int -> Pquery.t -> Roll_delta.Time.t
(** Runs [ctx.on_execute], advances capture (if [auto_capture]), evaluates,
    appends results (multiplied by [sign]) to [ctx.out], records statistics
    and the geometry box, and returns the execution (serialization) time. *)

val plan_of : Ctx.t -> Pquery.t -> Planner.t
(** The plan the executor would run for this query right now — join order,
    access path and cardinality estimate per step. Reads current sizes but
    executes nothing. Exposed so tests can assert on access-path choices
    without string-matching explain output. *)

val explain : Ctx.t -> Pquery.t -> string
(** Human-readable description of the plan the executor would run for this
    query right now (join order, access paths, input sizes, estimated
    cardinalities). Reads current sizes but executes nothing and commits
    nothing. *)

val explain_analyze : Ctx.t -> Pquery.t -> string
(** Like [explain], but actually runs the query and reports, per step,
    estimated vs. actual cardinalities, rows read, hash builds and wall
    time. Commits nothing and leaves [ctx.out] untouched; it does update
    [ctx.counters] and [ctx.last_report] like any evaluation. *)

val materialize : Ctx.t -> Roll_relation.Relation.t * Roll_delta.Time.t
(** Evaluate the view's defining query (all base terms) against current
    state and return it with its serialization time — used to initialize a
    materialized view mid-stream. *)
