(** Builders that turn measured propagation footprints and synthetic OLTP
    streams into simulator transaction lists.

    The cost model is linear: a transaction that touches r rows runs for
    [base_cost + per_row * r] simulated seconds. Propagation transactions
    take shared locks on every base table and delta they read and an
    exclusive lock on the view-delta table; updaters take an exclusive lock
    on one base table (and its delta, as a trigger-based capture would —
    Section 5 discusses exactly this footprint expansion); readers take a
    shared lock on the materialized view; apply takes exclusive view plus
    shared view-delta. *)

type cost_model = { base_cost : float; per_row : float }

val default_costs : cost_model

val propagation_txns :
  cost_model ->
  Roll_core.Ctx.footprint list ->
  start:float ->
  spacing:float ->
  Des.txn_spec list
(** One simulator transaction per measured propagation query, arriving
    [spacing] apart starting at [start], with duration from its row
    footprint. *)

val monolithic_refresh :
  cost_model ->
  Roll_core.Ctx.footprint list ->
  start:float ->
  tables:string list ->
  Des.txn_spec
(** The synchronous alternative: all the propagation work fused into one
    transaction holding shared locks on every base table for the whole
    combined duration. *)

val update_stream :
  Roll_util.Prng.t ->
  tables:string list ->
  rate:float ->
  until:float ->
  mean_duration:float ->
  Des.txn_spec list
(** Poisson stream of updaters, each locking one random table (exclusive)
    and its delta. *)

val reader_stream :
  Roll_util.Prng.t ->
  resource:string ->
  rate:float ->
  until:float ->
  mean_duration:float ->
  Des.txn_spec list
(** Poisson stream of view readers (shared lock on [resource]). *)

val wave_txns :
  cost_model ->
  (string * Roll_core.Ctx.footprint) list ->
  start:float ->
  Des.txn_spec list
(** One simulator transaction per parallel wave item [(view, footprint)],
    all arriving together at [start] (a wave dispatches its items
    concurrently). Each takes shared locks on the base tables and deltas
    its forward query reads and an {e exclusive} lock on its own view's
    delta ([delta:<view>]) — frozen-clock steps write nothing else. The
    model therefore predicts the wave invariant the scheduler enforces:
    items with pairwise-disjoint windows over distinct views never block
    each other; only the single-writer apply on the same view, or an
    updater on a table the step reads, can make a wave item wait. Labels
    are ["wave:<view>"]. *)

val apply_txn :
  cost_model -> rows:int -> start:float -> view:string -> Des.txn_spec
