(** Drain-scoped delta memo: shared maintenance work across sibling views.

    [ComputeDelta]'s net result for a given (canonical query signature,
    normalized time vector, target time, sign) is a mathematically fixed
    timed delta: windows are fixed row sets and base-table history is
    immutable, so the rows it appends to the view delta do not depend on
    when the queries physically execute. That makes the computation
    memoizable — sibling views whose next steps read the same ΔR window,
    and the compensation recursion's own repeated subqueries, can replay
    the first computation's literal rows instead of re-executing.

    A memo is installed into sibling {!Ctx}s by the {!Service} when sharing
    is on; each drain starts from an empty memo ({!clear}), retry rollbacks
    evict the failed step's entries ({!evict_since}), and the memo also
    owns the drain's {!Exec.cache} so physical work below the row memo
    (hash builds, window materializations) is shared through the same
    lifetime.

    A [t] is domain-safe: the map is sharded internally (per-shard tables
    and mutexes), hit/miss counters are atomic, and every entry is tagged
    with the {e owner} slot that inserted it ({!add}), so a rollback can
    evict exactly the failing step's entries even when the step ran on a
    worker domain while siblings were filling the memo concurrently
    ([evict_since ~owner]). Completed entries are always value-correct
    regardless of executing domain: rows are captured only after the
    computation finishes, and its net result is execution-time
    independent. *)

type t

type key = {
  signature : string;  (** {!Pquery.signature} of the (view, query) pair *)
  tau : int array;
      (** the time vector, with components at window positions normalized
          to 0 (they are never read by the recursion) *)
  t_new : int;  (** target time; [-1] marks an [eval_at]-style entry *)
  sign : int;
}

val create : ?enabled:bool -> unit -> t
(** [enabled] defaults to true. A disabled memo never finds or stores
    entries — {!Ctx.create} installs a private disabled one so standalone
    contexts behave exactly as before sharing existed. *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit

val exec_cache : t -> Exec.cache
(** The physical build cache sharing this memo's drain lifetime. *)

val find : t -> key -> Roll_delta.Delta.row array option
(** Counts a hit or miss; {!hits}/{!misses} read the cumulative totals. *)

val add : ?owner:int -> t -> key -> Roll_delta.Delta.row array -> unit
(** [owner] (default 0) tags the entry with the inserting work-item slot —
    {!Ctx.memo_owner} on the maintenance path — so a parallel rollback can
    scope {!evict_since} to one step's entries. *)

val mark : t -> int
(** Current insertion sequence; pair with {!evict_since} around a step so
    a rollback can drop exactly the entries the step produced. *)

val evict_since : t -> owner:int -> int -> unit
(** Drop every entry [owner] added after the given {!mark} — the
    retry-rollback companion to [Delta.truncate]: a re-run step must
    recompute, not replay rows the rollback just discarded. Scoping to
    the owner lets a wave roll back one step without disturbing sibling
    steps' concurrent fills. *)

val clear : t -> unit
(** Drop all entries and clear the build cache (drain-scoped
    invalidation; also used after capture GC and on aborts). Hit/miss
    counters are cumulative and survive clearing. *)

val size : t -> int

val hits : t -> int

val misses : t -> int
