(** Derived partials: materialized per-relation partials read in place of
    a base relation (DESIGN.md §18).

    Every Base term of a propagation query reads one source relation R_j
    filtered by its single-source atoms and narrowed to the columns the
    join and the projection touch. That partial, π_needed(σ_local(R_j)),
    is a single-source select-project view whose forward query has no Base
    terms, so maintaining it is O(change) per step. A derived partial
    materializes it as a list of {e parts}, each an indexed in-memory
    mirror table; the union of the parts is the partial. Two policies
    decide the parts:

    - {b narrowing} ({!attach}, the auxiliary views of DBToaster-style
      higher-order deltas): one part holding the whole partial, for every
      source that a local filter or a projection narrows;
    - {b partitioning} ({!Hotset}, heavy-light partitioning): a light
      residual pumped lazily from the capture delta plus one part per
      heavy key of the view's most-joined relation.

    Most parts are maintained by an ordinary durable {!Controller}
    (capture, propagate, apply, WAL frontier markers, checkpointing and
    crash recovery all come for free) and their mirrors fold its applied
    view delta forward ({!sync}). The mirrors are derived state on the
    same footing as a secondary index: they die with the process and are
    rebuilt from the recovered contents on restart.

    Owners get a substitution closure ({!Ctx.partial}): the executor reads
    the union of the parts instead of the base table whenever every part
    is provably fresh, and falls back to the base table otherwise.
    Partials are deduplicated across sibling views on the canonical
    {!Pquery.signature} of their shape — the namespace the delta memo keys
    on — so siblings needing the same partial share one materialization. *)

type shape = {
  source : int;  (** owner source position the partial substitutes *)
  base : string;  (** the base table it is a partial of *)
  local : Roll_relation.Predicate.t;
      (** single-source atoms, rebased to source 0 *)
  select : (string * Roll_relation.Predicate.operand) list;
      (** retained columns *)
  cols : int array;  (** mirror column [k] holds base column [cols.(k)] *)
}
(** The shape of a partial: π_select(σ_local(base)). *)

type part = {
  mirror : Roll_storage.Table.t;
      (** indexed in-memory copy of the part, named after it *)
  mutable mirror_as_of : Roll_delta.Time.t;
      (** the mirror equals the part's contents at this time *)
  controller : Controller.t option;
      (** the durable maintenance of the part's view; [None] for a part
          its policy pumps by hand (a partition's light residual) *)
  key : int option;  (** the partition key a heavy part holds *)
}

type partitioning = {
  col : int;  (** base column carrying the partition key *)
  colpos : int;  (** position of [col] among the retained columns *)
  sketch : Partition.t;  (** the heavy/light key classifier *)
  light : part;  (** the residual holding every light key's rows *)
  pump : unit -> unit;
      (** fold the base's newly captured change into [sketch] and
          [light] *)
}

type policy =
  | Narrowing  (** one part, the whole partial; α-prefixed in plans *)
  | Partitioning of partitioning
      (** the light residual plus one part per heavy key; η-prefixed *)

type t = {
  signature : string;  (** canonical identity the registry dedupes on *)
  policy : policy;
  shape : shape;  (** as first derived, at its first owner's source *)
  mutable parts : part list;  (** disjoint; their union is the partial *)
  mutable probe_cols : int list;
      (** mirror columns indexed in every part for the owners' probes *)
  mutable owners : string list;  (** names of the views reading it *)
  mutable durable : bool;  (** whether new parts' controllers are durable *)
  mutable obs : Roll_obs.Obs.t option;  (** handle for new parts' controllers *)
}

type registry = private {
  db : Roll_storage.Database.t;
  capture : Roll_capture.Capture.t;
  interval : int;  (** rolling interval of every part's controller *)
  mutable partials : t list;  (** in creation order *)
}

val create :
  ?interval:int -> Roll_storage.Database.t -> Roll_capture.Capture.t -> registry
(** A registry maintaining partials against this database and capture
    process. [interval] (default 8) is the rolling-propagation interval of
    each part's controller. @raise Invalid_argument if [interval <= 0]. *)

(** {1 Shape} *)

val shape : View.t -> int -> shape option
(** The partial of source [j] of a view: its single-source atoms and the
    columns the rest of the query sees (join columns, cross-source
    comparison inputs, projection inputs). [None] when no column of the
    source survives into the join or the output. *)

val derive : View.t -> shape list
(** The narrowing policy: the shapes worth materializing for a view, one
    per source that is narrowed by a local filter or a projection.
    Single-source views yield none (nothing to substitute); a source is
    skipped when no column of it survives, or when the partial would be a
    verbatim full-width, unfiltered copy of the table. *)

val signature : registry -> shape -> string
(** Canonical identity of a shape. *)

val output_schema : registry -> shape -> Roll_relation.Schema.t
(** The mirrors' schema for a shape. *)

(** {1 Building partials (for policies)} *)

val register :
  registry ->
  signature:string ->
  policy:policy ->
  durable:bool ->
  ?obs:Roll_obs.Obs.t ->
  ?parts:part list ->
  shape ->
  t
(** Add a new, owner-less partial of the shape to the registry. *)

val find_partial : registry -> string -> t option
(** The partial with this signature, if registered. *)

val new_controller : registry -> t -> recover:bool -> View.t -> Controller.t
(** A rolling controller for a part's view, durable and observed as [t]
    says. With [recover], it is restored from the view's durable state
    when markers exist and created fresh otherwise (a part first derived
    after a crash has no history). *)

val add_part : ?key:int -> t -> Controller.t -> part
(** Append a maintained part: its mirror is created, indexed on the
    probe columns and rebuilt from the controller's contents. *)

val remove_part : t -> part -> unit

val bind :
  registry ->
  durable:bool ->
  ?obs:Roll_obs.Obs.t ->
  Controller.t ->
  (int * t) list ->
  unit
(** Make the owner controller's view an owner of each [(source, partial)]
    pair: index every part on the columns the owner's equi-joins probe at
    that source, and chain a substitution closure for those sources onto
    the owner's context. Partials bound earlier take precedence at a
    source: the closure consults them first. *)

val attach :
  ?durable:bool ->
  ?recover:bool ->
  ?obs:Roll_obs.Obs.t ->
  registry ->
  Controller.t ->
  part list
(** The narrowing policy: {!derive}, find-or-create and {!bind} the
    partials for a view. Each new partial's one part is materialized under
    a deterministic name ([aux_<base>_<hash>], stable across restarts so
    frontier markers resolve). Returns the parts now owned by (possibly
    shared with) this view — register their controllers for
    maintenance. *)

(** {1 Maintenance} *)

val sync : part -> unit
(** Fold the part's applied-but-unmirrored view-delta suffix (up to its
    controller's high-water mark) into the mirror; a no-op for a pumped
    part. Rollback-safe: rows a failed step or wave undo truncates are
    always beyond the last successful high-water mark. *)

val gc : part -> int
(** {!sync}, then prune the part's applied delta rows ({!Controller.gc})
    — in that order, because the mirror reads the delta window the prune
    reclaims. Returns rows removed. *)

val fresh : registry -> t -> bool
(** Whether every part provably equals its slice of the partial applied
    to the base table's current committed state: no captured change to
    the base after any part's mirror time (O(1): the delta's max
    timestamp) and no logged-but-uncaptured change either. *)

val release : registry -> owner:string -> part list
(** Drop [owner] from every partial and remove partials left with no
    owners. Returns their maintained parts so the caller can retire
    them. *)

(** {1 Queries} *)

val maintained : t -> part list
(** The parts with a controller. *)

val entries : registry -> part list
(** Every maintained part, in creation order. *)

val for_owner : registry -> owner:string -> part list
(** The maintained parts of [owner]'s partials. *)

val name : part -> string

val controller : part -> Controller.t
(** @raise Invalid_argument on a pumped part. *)

val lag : registry -> part -> Roll_delta.Time.t
(** How far the part's mirror trails the database clock
    ([now - mirror_as_of]); 0 when fully caught up. Marker commits advance
    the clock, so a nonzero lag does not by itself imply staleness —
    {!fresh} is the authoritative test. *)

val owner_lag : registry -> owner:string -> Roll_delta.Time.t
(** The worst {!lag} over every part of [owner]'s partials. *)
