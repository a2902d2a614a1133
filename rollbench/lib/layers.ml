(* The traced run: per-layer metrics.

   An untraced set-up and closed loop first give the reference
   throughput. The closed and the open loop then run on two fresh
   instances built with [Service.create ~obs]; the benchmark's own
   bench.* spans wrap
   every public call it makes, and the engine's spans (capture.advance,
   sched.item, propagate.step, compute_delta.node, exec.query /
   exec.operator, apply.roll, checkpoint.write) nest under them. Counts
   come from the roll_* series of the Metrics registry, pages from the
   Pager and bytes from the store directory. Time is normalized per 1k
   committed base transactions so runs of different speed compare. *)

module Database = Roll_storage.Database
module Obs = Roll_obs.Obs
module Trace = Roll_obs.Trace
module Metrics = Roll_obs.Metrics
module Store = Roll_storage.Store
module Pager = Roll_storage.Pager

(* Ring size and harvest threshold: the ring is emptied between
   top-level calls once it is a quarter full, so a single drain's spans
   never wrap it. *)
let capacity = 1 lsl 17

let harvest_at = capacity / 4

(* --- registry reads --- *)

let series_sum ?(pred = fun _ -> true) snapshot name =
  List.fold_left
    (fun acc (sf : Metrics.sample_family) ->
      if String.equal sf.sf_name name then
        List.fold_left
          (fun acc (p : Metrics.point) ->
            if pred p.p_labels then acc +. p.p_value else acc)
          acc sf.points
      else acc)
    0. snapshot

(* A storage gauge: each [Database.set_obs] registers its collectors
   again, so the family can hold the same series more than once. *)
let gauge snapshot name =
  match
    List.find_opt (fun (sf : Metrics.sample_family) -> sf.sf_name = name) snapshot
  with
  | Some { points = p :: _; _ } -> p.p_value
  | _ -> 0.

let series_count snapshot name =
  List.fold_left
    (fun acc (sf : Metrics.sample_family) ->
      if String.equal sf.sf_name name then acc + List.length sf.points else acc)
    0 snapshot

let scheduler_scope labels = List.assoc_opt "scope" labels = Some "scheduler"

let views_only labels = List.mem_assoc "view" labels

(* Page and byte counters of a disk store; zeros in memory. *)
type storage_counts = { page_reads : int; page_writes : int; dir_bytes : int }

let rec tree_bytes path =
  match Sys.is_directory path with
  | true ->
      Array.fold_left
        (fun acc n -> acc + tree_bytes (Filename.concat path n))
        0 (Sys.readdir path)
  | false -> (Unix.stat path).Unix.st_size
  | exception Sys_error _ -> 0

let storage_counts db =
  match (Database.store db, Database.store_dir db) with
  | Some store, Some dir ->
      let pager = Store.pager store in
      {
        page_reads = Pager.page_reads pager;
        page_writes = Pager.page_writes pager;
        dir_bytes = tree_bytes dir;
      }
  | _ -> { page_reads = 0; page_writes = 0; dir_bytes = 0 }

(* Only maintain calls and pumps that did work: idle polls of the open
   loop would otherwise set every percentile. *)
let keep_sample name (s : Trace.span) =
  let did_work key =
    match List.assoc_opt key s.attrs with
    | Some (Trace.Int n) -> n > 0
    | _ -> false
  in
  match name with
  | "bench.commit" -> true
  | "bench.maintain" -> did_work "items"
  | "bench.pump" -> did_work "resolved"
  | _ -> false

(* A commit takes a few microseconds, the clock's resolution, so single
   commit spans are quantized; the median is taken over the mean span of
   each run of [commit_group] consecutive commits. *)
let commit_group = 20

let rate (txns, busy) = float_of_int txns /. busy

(* A traced instance, set up and warmed; its set-up and warm-up spans are
   dropped, they are not part of any measured phase. *)
let traced_instance (w : Workloads.t) ~seed =
  let obs = Obs.create ~trace_capacity:capacity () in
  let inst, _ = Run.setup ~obs w ~seed in
  let tally = Run.tally () in
  Bench.warm inst tally;
  Trace.clear (Obs.trace obs);
  inst.lag <- [];
  (inst, obs, tally)

(* What one traced phase changed: registry series, pager and directory
   counts, and the GC, read around the phase. *)
type phase = {
  elapsed : float;  (** wall seconds, less the benchmark's harvesting *)
  before : Metrics.sample_family list;
  after : Metrics.sample_family list;
  storage : storage_counts;  (** deltas *)
  minor_words : float;
  major_collections : int;
}

let traced_phase acc obs (inst : Run.instance) f =
  let trace = Obs.trace obs in
  let harvest_time = ref 0. in
  let harvest () =
    let t = Unix.gettimeofday () in
    Spans.harvest acc trace;
    harvest_time := !harvest_time +. (Unix.gettimeofday () -. t)
  in
  let on_idle () = if Trace.recorded trace >= harvest_at then harvest () in
  let before = Metrics.snapshot (Obs.metrics obs) in
  let storage_before = storage_counts inst.db in
  let gc_before = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let result = f ~on_idle in
  let elapsed = Unix.gettimeofday () -. t0 in
  Spans.harvest acc trace;
  let gc_after = Gc.quick_stat () in
  let storage_after = storage_counts inst.db in
  let after = Metrics.snapshot (Obs.metrics obs) in
  ( result,
    {
      elapsed = elapsed -. !harvest_time;
      before;
      after;
      storage =
        {
          page_reads = storage_after.page_reads - storage_before.page_reads;
          page_writes = storage_after.page_writes - storage_before.page_writes;
          dir_bytes = storage_after.dir_bytes - storage_before.dir_bytes;
        };
      minor_words = gc_after.Gc.minor_words -. gc_before.Gc.minor_words;
      major_collections =
        gc_after.Gc.major_collections - gc_before.Gc.major_collections;
    } )

let run (w : Workloads.t) ~seed ~seconds =
  (* Untraced reference throughput for the overhead figure. *)
  let untraced_rate =
    let inst, _ = Run.setup w ~seed in
    let tally = Run.tally () in
    Bench.warm inst tally;
    rate (Run.closed inst tally ~rounds:w.closed_rounds)
  in
  Gc.full_major ();
  let closed_inst, closed_obs, closed_tally = traced_instance w ~seed in
  let open_inst, open_obs, open_tally = traced_instance w ~seed in
  let acc = Spans.create ~keep:keep_sample () in
  let closed, pc =
    traced_phase acc closed_obs closed_inst (fun ~on_idle ->
        Run.closed ~on_idle closed_inst closed_tally ~rounds:w.closed_rounds)
  in
  let o, po =
    traced_phase acc open_obs open_inst (fun ~on_idle ->
        Run.open_loop ~on_idle open_inst open_tally ~seconds ~seed)
  in
  let snapshot_hits = Roll_serve.Engine.snapshot_memo_hits open_inst.engine in
  Run.final_gate closed_inst;
  Run.final_gate open_inst;
  (* The phases' wall time, less the gate's oracle re-checks, which no
     span covers by design. *)
  let wall = pc.elapsed +. po.elapsed -. o.paused in
  let closed_txns = fst closed in
  let txns = closed_txns + o.txns in
  let delta ?pred name =
    List.fold_left
      (fun acc p ->
        acc
        +. series_sum ?pred p.after name
        -. series_sum ?pred p.before name)
      0. [ pc; po ]
  in
  let storage f = float_of_int (f pc.storage + f po.storage) in
  let per_ktxn x = Measure.per_ktxn ~txns x in
  let per_txn x = Measure.per_txn ~txns x in
  let ms_per_ktxn name = per_ktxn (1000. *. Spans.total acc name) in
  let quantile = Bench.quantile in
  let hit_frac hits misses =
    let h = delta ~pred:views_only hits and m = delta ~pred:views_only misses in
    Measure.frac h (h +. m)
  in
  let m = Measure.metric in
  let lag = Array.of_list (closed_inst.lag @ open_inst.lag) in
  let maintain = Spans.samples acc "bench.maintain" in
  let drain_total = Spans.total acc "service.drain" in
  let traced_rate = rate closed in
  let metrics =
    [
      m "storage.commit_us_p50" "us"
        (1e6
        *. quantile "commit"
             (Measure.group_means ~group:commit_group
                (Spans.samples acc "bench.commit"))
             0.5);
      m "storage.commit_ms_per_ktxn" "ms/ktxn" (ms_per_ktxn "bench.commit");
      m "storage.cache_hit_ratio" "ratio"
        (gauge pc.after "roll_store_cache_hit_ratio");
      m "storage.cache_evictions_per_ktxn" "count/ktxn"
        (per_ktxn
           (List.fold_left
              (fun acc p ->
                acc
                +. gauge p.after "roll_store_cache_evictions"
                -. gauge p.before "roll_store_cache_evictions")
              0. [ pc; po ]));
      m "storage.page_reads_per_ktxn" "count/ktxn"
        (per_ktxn (storage (fun s -> s.page_reads)));
      m "storage.page_writes_per_ktxn" "count/ktxn"
        (per_ktxn (storage (fun s -> s.page_writes)));
      m "storage.wal_records_per_txn" "count/txn"
        (per_txn (delta "roll_wal_records_total"));
      m "storage.dir_bytes_per_txn" "bytes/txn"
        (per_txn (storage (fun s -> s.dir_bytes)));
      m "checkpoint.ms_per_ktxn" "ms/ktxn" (ms_per_ktxn "checkpoint.write");
      m "capture.advance_ms_per_ktxn" "ms/ktxn" (ms_per_ktxn "capture.advance");
      m "capture.lag_p95_commits" "commits" (quantile "capture lag" lag 0.95);
      m "service.maintain_ms_p50" "ms" (1000. *. quantile "maintain" maintain 0.5);
      m "service.maintain_ms_p95" "ms" (1000. *. quantile "maintain" maintain 0.95);
      m "scheduler.plan_frac" "ratio"
        (Measure.frac (Spans.self acc "service.drain") drain_total);
      m "scheduler.items_per_ktxn" "count/ktxn"
        (per_ktxn (delta ~pred:scheduler_scope "roll_sched_ran_total"));
      m "propagate.step_ms_per_ktxn" "ms/ktxn" (ms_per_ktxn "propagate.step");
      m "propagate.steps_per_ktxn" "count/ktxn"
        (per_ktxn (float_of_int (Spans.count acc "propagate.step")));
      m "executor.operator_ms_per_ktxn" "ms/ktxn"
        (ms_per_ktxn "exec.operator");
      m "executor.rows_read_per_txn" "rows/txn"
        (per_txn (delta ~pred:views_only "roll_rows_read_total"));
      m "executor.rows_scanned_per_txn" "rows/txn"
        (per_txn (delta ~pred:views_only "roll_rows_scanned_total"));
      m "executor.rows_probed_per_txn" "rows/txn"
        (per_txn (delta ~pred:views_only "roll_rows_probed_total"));
      m "executor.hash_builds_per_ktxn" "count/ktxn"
        (per_ktxn (delta ~pred:views_only "roll_hash_builds_total"));
      m "memo.hit_frac" "ratio"
        (hit_frac "roll_memo_hits_total" "roll_memo_misses_total");
      m "memo.shared_builds_per_ktxn" "count/ktxn"
        (per_ktxn (delta ~pred:views_only "roll_shared_builds_total"));
      m "partial.aux_hit_frac" "ratio"
        (hit_frac "roll_aux_hits_total" "roll_aux_misses_total");
      m "partial.hot_hit_frac" "ratio"
        (hit_frac "roll_hot_hits_total" "roll_hot_misses_total");
      m "partial.entries" "count"
        (float_of_int
           (series_count po.after "roll_view_hwm"
           - List.length open_inst.users));
      m "apply.roll_ms_per_ktxn" "ms/ktxn" (ms_per_ktxn "apply.roll");
      m "serve.pump_ms_p50" "ms"
        (1000. *. quantile "pump" (Spans.samples acc "bench.pump") 0.5);
      m "serve.encode_us_per_row" "us/row"
        (Measure.frac (1e6 *. Spans.total acc "bench.encode")
           (float_of_int o.rows_encoded));
      m "serve.bytes_per_read" "bytes/read"
        (Measure.frac (float_of_int o.bytes_encoded)
           (float_of_int o.reads_served));
      m "serve.snapshot_hit_frac" "ratio"
        (Measure.frac (float_of_int snapshot_hits)
           (float_of_int o.reads_served));
      m "serve.queued_frac" "ratio"
        (Measure.frac (float_of_int o.queued)
           (float_of_int (Array.length o.reads)));
      m "gc.minor_mwords_per_ktxn" "Mwords/ktxn"
        (per_ktxn ((pc.minor_words +. po.minor_words) /. 1e6));
      m "gc.major_collections_per_ktxn" "count/ktxn"
        (per_ktxn (float_of_int (pc.major_collections + po.major_collections)));
      m "gen.late_ms_p95" "ms" (1000. *. quantile "generator lateness" o.late 0.95);
      m "gen.backlog_end" "count" (float_of_int o.backlog_end);
      m "gen.idle_frac" "ratio" (Measure.frac o.idle o.elapsed);
      m "trace.overhead_frac" "ratio" (1. -. (traced_rate /. untraced_rate));
      m "trace.uncovered_frac" "ratio"
        (Measure.frac (Spans.uncovered acc ~wall) wall);
    ]
  in
  let accounted = Spans.accounted_frac acc ~wall in
  if Float.abs (accounted -. 1.) > 0.10 then
    raise
      (Run.Gate
         (Printf.sprintf
            "span self times plus uncovered time cover %.3f of the traced \
             phase, not 1 within 10%%"
            accounted));
  let notes =
    [
      Printf.sprintf
        "traced phases: %.3f s wall (%.3f s oracle re-checks excluded), %d \
         txns, root spans %.3f s, clamped %.6f s"
        wall o.paused txns (Spans.roots acc) (Spans.clamped acc);
      Printf.sprintf "sustained txn/s: untraced %.1f, traced %.1f"
        untraced_rate traced_rate;
      Printf.sprintf "maintain calls with work: %d; lag samples: %d"
        (Array.length maintain) (Array.length lag);
    ]
    @ List.map
        (fun (name, count, total, self) ->
          Printf.sprintf "span %-20s %8d calls %10.3f s total %10.3f s self"
            name count total self)
        (Spans.table acc)
  in
  {
    Bench.attempted = closed_tally.attempted + open_tally.attempted;
    failed = Run.failed closed_tally + Run.failed open_tally;
    metrics;
    notes;
  }
