(** Base tables: named multiset relations holding current committed state. *)

type t

val create : name:string -> ?store:Store.t -> Roll_relation.Schema.t -> t
(** With [store], rows and indexes live in the paged store's B-trees
    (adopting any trees an earlier process left in its catalog) instead of
    in memory. *)

val name : t -> string

val schema : t -> Roll_relation.Schema.t

val contents : t -> Roll_relation.Relation.t
(** The live relation. Callers must treat it as read-only; all mutation goes
    through {!Database} commits. On a paged store this materializes a fresh
    copy — prefer the cursors or {!distinct_count} on hot paths. *)

val cardinality : t -> int
(** Total tuple count (multiset size). *)

val distinct_count : t -> int
(** Number of distinct tuples — the planner's cardinality statistic.
    O(1) on both backends, unlike [contents]. *)

val version : t -> int
(** Monotone content version: bumped on every committed change to this
    table. Two reads at the same version saw identical contents, which is
    what per-drain build caches key on (the database's global clock also
    advances on marker commits and so over-invalidates). *)

val mem : t -> Roll_relation.Tuple.t -> bool

val count : t -> Roll_relation.Tuple.t -> int

val apply_change : t -> Roll_relation.Tuple.t -> int -> unit
(** Used by {!Database.commit} only. @raise Invalid_argument if the change
    would make a tuple's multiplicity negative. *)

(** {1 Secondary indexes}

    Indexes over a projection of the table's columns, maintained on every
    committed change. The join executor probes them instead of building a
    per-query hash index, which is what makes small propagation queries
    cheap on large base tables; {!Roll_core.Controller} indexes every
    memory-store column a view equi-joins on.

    An equality probe is the only access an index serves. In memory an
    index is a hash table from projection key to that key's rows and
    their counts, so probes and updates cost O(1) however many copies
    share a key. On the paged store it is a B-tree over projection ++ row,
    and a probe is a range scan over one key prefix. *)

val create_index : t -> columns:int list -> unit
(** Build (and thereafter maintain) an index keyed by the given columns;
    backfills from current contents. Idempotent for an existing column
    list. @raise Invalid_argument on out-of-range columns. *)

val has_index : t -> columns:int list -> bool

val indexed_columns : t -> int list list

val index_keys : t -> columns:int list -> int
(** Number of distinct keys the index holds: O(1) in memory, a scan of
    the index on the paged store. @raise Not_found if no such index. *)

(** {1 Cursors}

    Lazy access paths for the execution pipeline: rows are pulled on demand
    (timestamped with {!Roll_relation.Cursor.no_ts}, since base rows carry
    no delta timestamp), so a table probed through an index — or a scan a
    query abandons early — is never materialized into an array. The table
    must not be mutated while a cursor on it is live. *)

val scan_cursor : t -> Roll_relation.Cursor.t
(** Full-table scan: one row per distinct tuple with its multiset count. *)

val probe_cursor :
  t -> columns:int list -> Roll_relation.Tuple.t -> Roll_relation.Cursor.t
(** Index point probe: one row per distinct tuple whose projection on
    [columns] equals the key, with its multiset count.
    @raise Not_found if no such index. *)
