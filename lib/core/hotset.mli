(** The partitioning policy for derived partials: skew-aware heavy-light
    partitioning of a view's most-joined relation (DESIGN.md §18).

    Narrowing ({!Partial.attach}) declines to materialize a partial that
    would be a verbatim full-width copy of its base table — which is
    exactly the shape a star schema's fact table takes, and exactly where
    compensation is most expensive: every dimension-window query rebuilds
    a hash table over the whole fact relation. This policy attacks that
    case by {e partitioning} the relation by join-key frequency instead of
    narrowing it:

    - a bounded {!Partition} sketch tracks per-key frequencies online from
      the capture stream and classifies keys heavy/light with hysteresis;
    - each {b heavy} key gets an eagerly-maintained part
      [σ_{key=k}(π_needed(σ_local(R)))] with a durable {!Controller};
    - {b light} keys stay on the lazy path: one residual mirror, folded
      forward directly from the capture delta in O(change), holds every
      row whose key is not heavy.

    Light ⊎ heavy parts is the whole partial by construction, so the
    executor reads their η-union in place of the base relation whenever
    every part is provably fresh ({!Partial.fresh}); a partition with no
    heavy key is never substituted.

    Migration between classes is an atomic delta-compensated handoff,
    performed only at provably-fresh points: a promotion materializes the
    key's part durably, then deletes the key's rows from the light
    residual; a demotion folds the retiring part back into the light
    residual, then commits a durable retire marker. The promote / retire
    markers ride the WAL, so a restarted registry re-derives the heavy set
    from the log alone. The fault points [hotset.promote] and
    [hotset.demote] sit inside the two handoff windows for crash-fuzz
    coverage. *)

type t

val create :
  ?capacity:int ->
  ?max_heavy:int ->
  ?enter:float ->
  ?exit_:float ->
  Partial.registry ->
  t
(** Partition partials kept in this registry. [capacity] (default 64),
    [enter] and [exit_] parameterize the {!Partition} sketch; [max_heavy]
    (default 16) caps concurrently heavy keys per relation.
    @raise Invalid_argument on non-positive [max_heavy], or thresholds
    {!Partition.create} rejects. *)

val registry : t -> Partial.registry

val set_fault : t -> Roll_util.Fault.t -> unit
(** Install a fault-injection handle on the migration fault points
    ([hotset.promote], [hotset.demote]). *)

val attach :
  ?durable:bool ->
  ?recover:bool ->
  ?obs:Roll_obs.Obs.t ->
  t ->
  Controller.t ->
  Partial.part list
(** Derive the partition group for a view — its most-joined source
    relation, partitioned on that source's first join column — seed the
    sketch and the light residual from the relation's current contents,
    and {!Partial.bind} it to the owner. Views with fewer than two
    sources, or whose candidate source feeds neither a join nor the
    output, derive nothing. Groups are shared across sibling views on the
    same (relation, column, partial shape). With [recover], the heavy set
    is re-derived from the WAL's promote / retire markers and each heavy
    part's controller is restored from its durable state. Returns the
    heavy parts now owned by this view — register their controllers for
    maintenance. *)

val pump : t -> unit
(** Fold capture-delta suffixes into every group's sketch and light
    residual (heavy keys' rows are skipped — their controllers maintain
    them) and sync every heavy part's mirror to its controller. O(new
    change); a no-op when nothing new was captured or applied. Probes
    never pump: the service drain calls this on the single writer before
    each wave. *)

val rebalance : t -> Partial.part list * Partial.part list
(** {!pump}, then reclassify each group's keys and migrate: returns
    [(promoted, demoted)] heavy parts — register the former for
    maintenance, retire the latter. A group that is not provably fresh
    (pending capture work, or a heavy mirror lagging its controller)
    defers migration to a later call rather than risk an inexact
    handoff. *)

val heavy_count : t -> owner:string -> int
(** Currently-heavy keys across [owner]'s groups. *)

val sketch_keys : t -> int
(** Total sketch occupancy across groups (tracked keys, not heavy ones). *)

val light_rows : t -> owner:string -> int
(** Rows held by the light residuals of [owner]'s groups. *)

val partitioned : t -> owner:string -> (string * int) list
(** The (relation, column) pairs [owner] is partitioned on. *)
