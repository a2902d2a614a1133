(** The database engine.

    A single-process engine with serializable transactions: transactions
    commit one at a time, each receiving the next commit sequence number, so
    the commit order {e is} the serialization order — the assumption the
    paper makes of the underlying system (Section 2). Queries read current
    committed state.

    A simulated wall clock advances on every commit; the unit-of-work table
    built by the capture process maps CSNs to wall times, enabling the
    "refresh the view to its 5:00 pm state" scenarios of the paper. *)

type t

val create :
  ?wall_start:float ->
  ?wall_tick:float ->
  ?mode:Store.mode ->
  ?dir:string ->
  unit ->
  t
(** [wall_tick] (default 1.0) is how far the simulated wall clock advances
    at each commit.

    [mode] selects the backend (default: {!Store.mode_of_env}, i.e. the
    [ROLL_STORE] environment variable, in-memory when unset). In [Disk]
    mode the store lives under [dir] (default: [ROLL_STORE_DIR], else a
    fresh temporary directory removed at exit). Opening an existing
    directory recovers the WAL segments; create the tables, then call
    {!recover_pending} before committing. *)

val create_table : t -> name:string -> Roll_relation.Schema.t -> Table.t
(** @raise Invalid_argument if the name is taken. *)

val table : t -> string -> Table.t
(** @raise Not_found *)

val find_table : t -> string -> Table.t option

val tables : t -> Table.t list

val wal : t -> Wal.t

val obs : t -> Roll_obs.Obs.t

val set_obs : t -> Roll_obs.Obs.t -> unit
(** Attach an observability handle. When enabled, WAL appends bump the
    WAL record and row-change counters in its registry, and a paged store
    adds one collector of its cache and segment gauges per registry. *)

val now : t -> Roll_delta.Time.t
(** The CSN of the latest committed transaction ([Time.origin] initially).
    All committed state is visible at this time. *)

val wall_now : t -> float

val advance_wall : t -> float -> unit
(** Push the simulated wall clock forward by the given amount (e.g. to model
    an idle period between update bursts). *)

(** {1 Transactions} *)

type txn

val begin_txn : t -> txn

val txn_id : txn -> int

val write : txn -> table:string -> Roll_relation.Tuple.t -> count:int -> unit
(** Buffer a change: [count] copies inserted (or deleted when negative). *)

val insert : txn -> table:string -> Roll_relation.Tuple.t -> unit

val delete : txn -> table:string -> Roll_relation.Tuple.t -> unit

val update :
  txn ->
  table:string ->
  old_tuple:Roll_relation.Tuple.t ->
  new_tuple:Roll_relation.Tuple.t ->
  unit
(** Modeled as a deletion plus an insertion, per Section 2. *)

val commit : t -> txn -> Roll_delta.Time.t
(** Atomically applies the buffered changes, appends the WAL record, and
    returns the transaction's commit sequence number.
    @raise Invalid_argument if a change would drive a multiplicity negative
    or reference an unknown table; no changes are applied in that case. *)

val abort : txn -> unit

val run : t -> (txn -> unit) -> Roll_delta.Time.t
(** [run t f] begins a transaction, runs [f], and commits. *)

val commit_marker : t -> tag:string -> Roll_delta.Time.t
(** Commit an empty transaction carrying a marker record — the mechanism by
    which a propagation query learns its serialization time (Section 5). *)

val stats_commits : t -> int
(** Number of committed transactions (including markers). *)

(** {1 Triggers}

    Hooks for trigger-based change capture, the alternative Section 5
    weighs against log capture. Write triggers fire while the transaction
    is still running — before its serialization order is known, which is
    exactly the timestamping problem the paper describes; commit triggers
    fire at commit, when the order is known. *)

val add_write_trigger : t -> (txn_id:int -> Wal.change -> unit) -> unit
(** Called on every buffered write (insert/delete) of a data transaction,
    at write time. *)

val add_commit_trigger : t -> (Wal.record -> unit) -> unit
(** Called after every commit (data transactions and markers alike) with
    the full commit record. *)

val restore : t -> Wal.record list -> unit
(** Replay previously saved WAL records (see {!Wal_codec}) into a database
    whose tables have been created but which has no commits yet. Restores
    table contents, commit/transaction counters and the wall clock. In disk
    mode the records are also written through to fresh WAL segments.
    @raise Invalid_argument if the database already has commits, a record
    references an unknown table, or CSNs are not increasing. *)

(** {1 Paged store (disk mode)}

    All of the following are no-ops / neutral values on the in-memory
    backend, so engine code calls them unconditionally. *)

val mode : t -> Store.mode

val store : t -> Store.t option

val store_dir : t -> string option

val sync : t -> unit
(** The durability barrier: fsync the WAL segments, then write back dirty
    cached pages and flip the data file's meta snapshot to [now]. *)

val data_csn : t -> Roll_delta.Time.t
(** CSN of the on-disk data snapshot ({!now} in memory mode). *)

val recovery_torn : t -> string option
(** Why the recovered WAL's tail was torn, if it was. *)

val has_pending_recovery : t -> bool

val recover_pending : t -> unit
(** Finish opening an existing disk directory once the schema has been
    recreated: re-applies recovered records above the data snapshot to the
    tables and rehydrates the in-memory log. *)

val wal_base : t -> Roll_delta.Time.t
(** First retained WAL position (= last reclaimed CSN). *)

val base_state : t -> string -> Roll_relation.Relation.t option
(** The table's state at {!wal_base}, when a reclaim has occurred. *)

val reclaim_wal : t -> upto:Roll_delta.Time.t -> int
(** Reclaim the WAL prefix at or below [upto] (clamped to {!data_csn}):
    folds the dropped records into per-table base states and deletes every
    on-disk segment entirely below the cut. Returns the number of segments
    deleted; [0] in memory mode. The caller must ensure every consumer's
    horizon (view gc horizons, capture cursor) has passed [upto]. *)

val set_storage_fault : t -> Roll_util.Fault.t -> unit
(** Inject faults into the disk write path (points ["walseg.record"],
    ["walseg.terminator"], ["walseg.rotate"], ["walseg.manifest"],
    ["walseg.reclaim"], ["walseg.sync"], ["cache.writeback"]). *)

val cold_read_factor : t -> float
(** Scheduler cost hint: 1.0 in memory; on disk, [2.0 - hit_ratio] once the
    block cache has seen enough traffic to judge. *)

val live_segments : t -> int

val resident_pages : t -> int

val storage_json : t -> Roll_util.Json.t
(** Storage status as a JSON object (mode, cache counters, segments). *)
