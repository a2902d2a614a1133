open Roll_relation
module Time = Roll_delta.Time
module Fault = Roll_util.Fault

(* Disk-backed state: the paged store (tables + indexes on pages behind
   the block cache) and the segmented on-disk WAL. The in-memory WAL
   stays authoritative for capture/history; commits write through to
   segments first, so the durable log is never behind the memory image.

   Durability model: WAL segments are the durable truth; the data file
   is a copy-on-write snapshot at [data_csn] (advanced by {!sync}'s
   flush barrier). Recovery replays segments in order; records at or
   below the snapshot CSN rehydrate only the in-memory log, records
   above it are re-applied to the tables. Segment reclaim is clamped to
   [data_csn] — a reclaimed prefix is exactly the part of history the
   snapshot already embodies. *)
type disk = {
  store : Store.t;
  wal_store : Wal_store.t;
  mutable pending : Wal.record list;
      (** recovered records awaiting {!recover_pending} *)
  mutable torn : string option;
  mutable fault : Fault.t;
}

type backend = Mem | Disk of disk

type t = {
  tables : (string, Table.t) Hashtbl.t;
  wal : Wal.t;
  backend : backend;
  (* Per-table state at the WAL base (csn [Wal.first_pos]); empty until
     a reclaim truncates the log. History replays forward from these
     instead of from the origin. *)
  base_states : (string, Relation.t) Hashtbl.t;
  mutable last_csn : Time.t;
  mutable next_txn_id : int;
  mutable wall : float;
  wall_tick : float;
  mutable commits : int;
  mutable write_triggers : (txn_id:int -> Wal.change -> unit) list;
  mutable commit_triggers : (Wal.record -> unit) list;
  mutable obs : Roll_obs.Obs.t;
  mutable wal_counters : (Roll_obs.Metrics.counter * Roll_obs.Metrics.counter) option;
  mutable collected_by : Roll_obs.Metrics.t list;
      (** registries already holding this store's gauge collector *)
}

type txn = {
  id : int;
  db : t;
  mutable writes : Wal.change list;  (** reverse order *)
  mutable open_ : bool;
}

let create ?(wall_start = 0.0) ?(wall_tick = 1.0) ?mode ?dir () =
  let mode =
    match mode with Some m -> m | None -> Store.mode_of_env ()
  in
  let backend, wal, last_csn =
    match mode with
    | Store.Mem -> (Mem, Wal.create (), Time.origin)
    | Store.Disk ->
        let dir =
          match (dir, Sys.getenv_opt "ROLL_STORE_DIR") with
          | Some d, _ -> d
          | None, Some d when d <> "" -> d
          | None, _ -> Store.fresh_dir ()
        in
        let store = Store.open_dir dir in
        let recovery =
          Wal_store.open_dir ~segment_records:(Store.segment_records_of_env ())
            dir
        in
        let _, reclaimed_upto = Wal_store.reclaimed recovery.Wal_store.store in
        let wal = Wal.create () in
        Wal.set_base wal reclaimed_upto;
        ( Disk
            {
              store;
              wal_store = recovery.Wal_store.store;
              pending = recovery.Wal_store.records;
              torn = recovery.Wal_store.torn;
              fault = Fault.none;
            },
          wal,
          reclaimed_upto )
  in
  {
    tables = Hashtbl.create 16;
    wal;
    backend;
    base_states = Hashtbl.create 4;
    last_csn;
    next_txn_id = 1;
    wall = wall_start;
    wall_tick;
    commits = 0;
    write_triggers = [];
    commit_triggers = [];
    obs = Roll_obs.Obs.disabled ();
    wal_counters = None;
    collected_by = [];
  }

let mode t = match t.backend with Mem -> Store.Mem | Disk _ -> Store.Disk

let store t = match t.backend with Mem -> None | Disk d -> Some d.store

let store_dir t =
  match t.backend with Mem -> None | Disk d -> Some (Store.dir d.store)

let create_table t ~name schema =
  if Hashtbl.mem t.tables name then
    invalid_arg ("Database.create_table: table exists: " ^ name);
  let table =
    match t.backend with
    | Mem -> Table.create ~name schema
    | Disk d -> Table.create ~name ~store:d.store schema
  in
  Hashtbl.add t.tables name table;
  table

let table t name =
  match Hashtbl.find_opt t.tables name with
  | Some tbl -> tbl
  | None -> raise Not_found

let find_table t name = Hashtbl.find_opt t.tables name

let tables t =
  Hashtbl.fold (fun _ tbl acc -> tbl :: acc) t.tables []
  |> List.sort (fun a b -> String.compare (Table.name a) (Table.name b))

let wal t = t.wal

let obs t = t.obs

(* Storage gauges ride the metrics registry as collectors so Rollscope
   exports see live cache and segment state without per-op overhead. One
   collector per registry: a service and each of its controllers all
   install the same handle. *)
let register_storage_collectors t =
  let m = Roll_obs.Obs.metrics t.obs in
  match t.backend with
  | Mem -> ()
  | Disk _ when List.memq m t.collected_by -> ()
  | Disk d ->
      if Roll_obs.Obs.enabled t.obs then begin
        t.collected_by <- m :: t.collected_by;
        let cache = Store.cache d.store in
        let gauge name help read =
          Roll_obs.Metrics.sample ~help ~kind:Roll_obs.Metrics.Gauge name
            [ ([], read ()) ]
        in
        Roll_obs.Metrics.register_collector m (fun () ->
            [
              gauge "roll_store_cache_resident_pages"
                "Pages resident in the block cache" (fun () ->
                  float_of_int (Block_cache.resident cache));
              gauge "roll_store_cache_hit_ratio" "Block cache hit ratio"
                (fun () -> Block_cache.hit_ratio cache);
              gauge "roll_store_cache_evictions" "Block cache evictions"
                (fun () -> float_of_int (Block_cache.evictions cache));
              gauge "roll_store_pages" "Pages allocated in the data file"
                (fun () -> float_of_int (Pager.n_pages (Store.pager d.store)));
              gauge "roll_store_free_pages" "Pages on the free list" (fun () ->
                  float_of_int (Pager.free_count (Store.pager d.store)));
              gauge "roll_wal_live_segments" "Live WAL segments on disk"
                (fun () -> float_of_int (Wal_store.live_segments d.wal_store));
              gauge "roll_wal_reclaimed_segments" "WAL segments reclaimed by GC"
                (fun () -> float_of_int (fst (Wal_store.reclaimed d.wal_store)));
            ])
      end

let set_obs t obs =
  t.obs <- obs;
  t.wal_counters <- None;
  register_storage_collectors t

(* WAL writes are far too frequent for per-record spans; they surface as
   registry counters instead (and in the drain spans that caused them). *)
let note_wal_write t ~changes =
  if Roll_obs.Obs.enabled t.obs then begin
    let records, changed_rows =
      match t.wal_counters with
      | Some pair -> pair
      | None ->
          let m = Roll_obs.Obs.metrics t.obs in
          let pair =
            ( Roll_obs.Metrics.counter m
                ~help:"Records appended to the write-ahead log"
                "roll_wal_records_total",
              Roll_obs.Metrics.counter m
                ~help:"Row changes appended to the write-ahead log"
                "roll_wal_changes_total" )
          in
          t.wal_counters <- Some pair;
          pair
    in
    Roll_obs.Metrics.inc records;
    Roll_obs.Metrics.add changed_rows (float_of_int (List.length changes))
  end

let now t = t.last_csn

let wall_now t = t.wall

let advance_wall t dt =
  if dt < 0.0 then invalid_arg "Database.advance_wall: negative";
  t.wall <- t.wall +. dt

let begin_txn t =
  let id = t.next_txn_id in
  t.next_txn_id <- id + 1;
  { id; db = t; writes = []; open_ = true }

let txn_id txn = txn.id

let check_open txn = if not txn.open_ then invalid_arg "Database: closed txn"

let write txn ~table tuple ~count =
  check_open txn;
  if count <> 0 then begin
    let change = { Wal.table; tuple; count } in
    txn.writes <- change :: txn.writes;
    List.iter (fun f -> f ~txn_id:txn.id change) txn.db.write_triggers
  end

let insert txn ~table tuple = write txn ~table tuple ~count:1

let delete txn ~table tuple = write txn ~table tuple ~count:(-1)

let update txn ~table ~old_tuple ~new_tuple =
  delete txn ~table old_tuple;
  insert txn ~table new_tuple

(* Verify that applying [changes] leaves every multiplicity non-negative,
   accounting for several changes to the same tuple in one transaction. *)
let validate t changes =
  let pending = Hashtbl.create 8 in
  let check (c : Wal.change) =
    let tbl =
      match Hashtbl.find_opt t.tables c.table with
      | Some tbl -> tbl
      | None -> invalid_arg ("Database.commit: unknown table " ^ c.table)
    in
    if not (Tuple.conforms (Table.schema tbl) c.tuple) then
      invalid_arg
        (Format.asprintf "Database.commit: %a does not conform to %s" Tuple.pp
           c.tuple c.table);
    let key = (c.table, c.tuple) in
    let before =
      match Hashtbl.find_opt pending key with
      | Some n -> n
      | None -> Table.count tbl c.tuple
    in
    let after = before + c.count in
    if after < 0 then
      invalid_arg
        (Format.asprintf
           "Database.commit: table %s: multiplicity of %a would become %d"
           c.table Tuple.pp c.tuple after);
    Hashtbl.replace pending key after
  in
  List.iter check changes

(* Durable first, memory second: a crash mid-append leaves at worst a
   torn tail on disk and no trace in memory, so the recovered log is
   always a prefix of what this process believed committed. *)
let append_durable t record =
  (match t.backend with
  | Mem -> ()
  | Disk d -> Wal_store.append ~fault:d.fault d.wal_store record);
  Wal.append t.wal record

let commit_record t ~txn_id ~changes ~marker =
  (match t.backend with
  | Disk d when d.pending <> [] ->
      invalid_arg "Database.commit: recovered records pending; call recover_pending"
  | _ -> ());
  let csn = t.last_csn + 1 in
  t.wall <- t.wall +. t.wall_tick;
  let record = { Wal.csn; txn_id; wall = t.wall; changes; marker } in
  append_durable t record;
  note_wal_write t ~changes;
  List.iter
    (fun (c : Wal.change) ->
      Table.apply_change (Hashtbl.find t.tables c.table) c.tuple c.count)
    changes;
  t.last_csn <- csn;
  t.commits <- t.commits + 1;
  List.iter (fun f -> f record) t.commit_triggers;
  csn

let commit t txn =
  check_open txn;
  txn.open_ <- false;
  let changes = List.rev txn.writes in
  validate t changes;
  commit_record t ~txn_id:txn.id ~changes ~marker:None

let abort txn = txn.open_ <- false

let run t f =
  let txn = begin_txn t in
  (try f txn
   with exn ->
     abort txn;
     raise exn);
  commit t txn

let commit_marker t ~tag =
  let id = t.next_txn_id in
  t.next_txn_id <- id + 1;
  commit_record t ~txn_id:id ~changes:[] ~marker:(Some tag)

let add_write_trigger t f = t.write_triggers <- t.write_triggers @ [ f ]

let add_commit_trigger t f = t.commit_triggers <- t.commit_triggers @ [ f ]

let stats_commits t = t.commits

let restore t records =
  if Wal.length t.wal > Wal.first_pos t.wal then
    invalid_arg "Database.restore: database already has commits";
  (match t.backend with
  | Disk d when d.pending <> [] ->
      invalid_arg "Database.restore: recovered records pending; call recover_pending"
  | _ -> ());
  List.iter
    (fun (record : Wal.record) ->
      validate t record.changes;
      append_durable t record;
      List.iter
        (fun (c : Wal.change) ->
          match Hashtbl.find_opt t.tables c.table with
          | Some tbl -> Table.apply_change tbl c.tuple c.count
          | None -> invalid_arg ("Database.restore: unknown table " ^ c.table))
        record.changes;
      t.last_csn <- record.csn;
      t.next_txn_id <- max t.next_txn_id (record.txn_id + 1);
      t.wall <- max t.wall record.wall;
      t.commits <- t.commits + 1)
    records

(* ------------------------------------------------------------------ *)
(* Disk-mode durability: recovery, flush barrier, segment reclaim      *)

let recovery_torn t = match t.backend with Mem -> None | Disk d -> d.torn

let has_pending_recovery t =
  match t.backend with Mem -> false | Disk d -> d.pending <> []

(* Finish opening an existing disk directory, once the schema (tables,
   indexes) has been recreated: records above the data-file snapshot are
   re-applied to the tables; the rest only rehydrate the in-memory log.
   With a reclaimed prefix, per-table base states are reconstructed at
   the WAL base by subtracting the snapshot's own tail. *)
let recover_pending t =
  match t.backend with
  | Mem -> ()
  | Disk d ->
      let records = d.pending in
      d.pending <- [];
      let data_csn = Store.data_csn d.store in
      let base = Wal.first_pos t.wal in
      if base > 0 then
        Hashtbl.iter
          (fun name tbl ->
            let state = Table.contents tbl in
            (* state is at [data_csn]; walk it back to [base]. *)
            List.iter
              (fun (r : Wal.record) ->
                if r.csn > base && r.csn <= data_csn then
                  List.iter
                    (fun (c : Wal.change) ->
                      if String.equal c.table name then
                        Relation.add state c.tuple (-c.count))
                    r.changes)
              records;
            Hashtbl.replace t.base_states name state)
          t.tables;
      List.iter
        (fun (record : Wal.record) ->
          Wal.append t.wal record;
          if record.csn > data_csn then
            List.iter
              (fun (c : Wal.change) ->
                match Hashtbl.find_opt t.tables c.table with
                | Some tbl -> Table.apply_change tbl c.tuple c.count
                | None ->
                    invalid_arg
                      ("Database.recover_pending: unknown table " ^ c.table))
              record.changes;
          t.last_csn <- record.csn;
          t.next_txn_id <- max t.next_txn_id (record.txn_id + 1);
          t.wall <- max t.wall record.wall;
          t.commits <- t.commits + 1)
        records

(* The durability barrier: fsync the WAL, then write back dirty cached
   pages and flip the data file's meta snapshot to [now]. WAL first —
   the snapshot must never describe commits the log does not hold. *)
let sync t =
  match t.backend with
  | Mem -> ()
  | Disk d ->
      Wal_store.sync ~fault:d.fault d.wal_store;
      Store.barrier ~fault:d.fault d.store ~data_csn:t.last_csn

let data_csn t =
  match t.backend with Mem -> t.last_csn | Disk d -> Store.data_csn d.store

let wal_base t = Wal.first_pos t.wal

let base_state t name = Hashtbl.find_opt t.base_states name

(* Reclaim the WAL prefix at or below [upto]: drop the in-memory records
   (folding them into the per-table base states History replays from)
   and delete every on-disk segment entirely below the cut. Clamped to
   the data-file snapshot — reclaiming past it would leave the store
   unrecoverable. Returns the number of segments deleted. No-op on the
   in-memory backend, whose WAL is the only durable artifact. *)
let reclaim_wal t ~upto =
  match t.backend with
  | Mem -> 0
  | Disk d ->
      let upto = min upto (Store.data_csn d.store) in
      let base = Wal.first_pos t.wal in
      if upto <= base then 0
      else begin
        let base_state name =
          match Hashtbl.find_opt t.base_states name with
          | Some state -> state
          | None ->
              let state =
                match Hashtbl.find_opt t.tables name with
                | Some tbl -> Relation.create (Table.schema tbl)
                | None -> invalid_arg ("Database.reclaim_wal: unknown table " ^ name)
              in
              Hashtbl.replace t.base_states name state;
              state
        in
        for pos = base to upto - 1 do
          let record = Wal.get t.wal pos in
          List.iter
            (fun (c : Wal.change) ->
              Relation.add (base_state c.table) c.tuple c.count)
            record.changes
        done;
        Wal.truncate_prefix t.wal ~upto_csn:upto;
        Wal_store.reclaim ~fault:d.fault d.wal_store ~upto
      end

let set_storage_fault t fault =
  match t.backend with Mem -> () | Disk d -> d.fault <- fault

(* Scheduler hint: how much more a step costs when its reads miss the
   cache. 1.0 in memory; on disk, scales with the observed miss ratio
   once the cache has seen enough traffic to judge. *)
let cold_read_factor t =
  match t.backend with
  | Mem -> 1.0
  | Disk d ->
      let cache = Store.cache d.store in
      let total = Block_cache.hits cache + Block_cache.misses cache in
      if total < 256 then 1.0
      else 2.0 -. Block_cache.hit_ratio cache

let live_segments t =
  match t.backend with Mem -> 0 | Disk d -> Wal_store.live_segments d.wal_store

let resident_pages t =
  match t.backend with Mem -> 0 | Disk d -> Store.resident_pages d.store

let storage_json t =
  let module Json = Roll_util.Json in
  match t.backend with
  | Mem ->
      Json.Obj [ ("mode", Json.Str "mem"); ("wal_records", Json.Int (Wal.length t.wal)) ]
  | Disk d ->
      let reclaimed_segments, reclaimed_upto = Wal_store.reclaimed d.wal_store in
      Json.Obj
        [
          ("mode", Json.Str "disk");
          ("store", Store.stats_json d.store);
          ( "wal",
            Json.Obj
              [
                ("live_segments", Json.Int (Wal_store.live_segments d.wal_store));
                ("reclaimed_segments", Json.Int reclaimed_segments);
                ("reclaimed_upto", Json.Int reclaimed_upto);
                ("base", Json.Int (Wal.first_pos t.wal));
                ("records", Json.Int (Wal.length t.wal - Wal.first_pos t.wal));
              ] );
        ]
