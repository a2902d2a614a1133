(* Machine-readable executor benchmark: runs the defining query and a
   forward delta-window propagation query on the star and TPC-H-lite
   workloads and writes BENCH_executor.json with rows/sec and rows-touched
   figures, so performance can be tracked across revisions without parsing
   the human-readable tables. *)

module Time = Roll_delta.Time
module Database = Roll_storage.Database
module C = Roll_core
module W = Roll_workload
module Json = Roll_util.Json

type measurement = {
  workload : string;
  query : string;
  rows_emitted : int;
  rows_scanned : int;
  rows_probed : int;
  hash_builds : int;
  wall_s : float;
}

let rows_per_sec m =
  if m.wall_s > 0. then float_of_int m.rows_emitted /. m.wall_s else 0.

let json_of_measurement m =
  Json.Obj
    [
      ("workload", Json.Str m.workload);
      ("query", Json.Str m.query);
      ("rows_emitted", Json.Int m.rows_emitted);
      ("rows_scanned", Json.Int m.rows_scanned);
      ("rows_probed", Json.Int m.rows_probed);
      ("hash_builds", Json.Int m.hash_builds);
      ("wall_s", Json.fixed 6 m.wall_s);
      ("rows_per_sec", Json.fixed 1 (rows_per_sec m));
    ]

(* Run [q] with the context's counters reset and read them back. *)
let measure ~workload ~query ctx q =
  let counters = ctx.C.Ctx.counters in
  C.Counters.reset counters;
  let rows, _reads = C.Executor.evaluate ctx q in
  let count c = C.Counters.count counters c in
  {
    workload;
    query;
    rows_emitted = List.length rows;
    rows_scanned = count C.Counters.rows_scanned;
    rows_probed = count C.Counters.rows_probed;
    hash_builds = count C.Counters.hash_builds;
    wall_s = C.Counters.get counters C.Counters.exec_wall;
  }

(* Drive the forward query with the source that saw the most changes. *)
let forward_query ctx n =
  let now = Database.now ctx.C.Ctx.db in
  let lo = max 0 (now - 50) in
  let busiest = ref 0 and busiest_rows = ref (-1) in
  for i = 0 to n - 1 do
    let table = C.View.source_table ctx.C.Ctx.view i in
    let rows =
      Roll_delta.Delta.window_count
        (Roll_capture.Capture.delta ctx.C.Ctx.capture ~table)
        ~lo ~hi:now
    in
    if rows > !busiest_rows then begin
      busiest := i;
      busiest_rows := rows
    end
  done;
  C.Pquery.replace (C.Pquery.all_base n) !busiest
    (C.Pquery.Win { lo; hi = now })

let star_measurements () =
  let w =
    W.Star.create
      { W.Star.default_config with fact_initial = 2000; seed = 99 }
  in
  W.Star.load_initial w;
  W.Star.mixed_txns w ~n:300 ~dim_fraction:0.05;
  let ctx =
    C.Ctx.create ~t_initial:Time.origin (W.Star.db w) (W.Star.capture w)
      (W.Star.view w)
  in
  Roll_capture.Capture.advance (W.Star.capture w);
  let n = C.View.n_sources (W.Star.view w) in
  [
    measure ~workload:"star" ~query:"all_base" ctx (C.Pquery.all_base n);
    measure ~workload:"star" ~query:"forward_window" ctx (forward_query ctx n);
  ]

let tpch_measurements () =
  let w = W.Tpch_lite.create W.Tpch_lite.small_config in
  W.Tpch_lite.load_initial w;
  W.Tpch_lite.churn w ~n:200;
  let ctx =
    C.Ctx.create ~t_initial:Time.origin (W.Tpch_lite.db w)
      (W.Tpch_lite.capture w) (W.Tpch_lite.view w)
  in
  Roll_capture.Capture.advance (W.Tpch_lite.capture w);
  let n = C.View.n_sources (W.Tpch_lite.view w) in
  [
    measure ~workload:"tpch_lite" ~query:"all_base" ctx (C.Pquery.all_base n);
    measure ~workload:"tpch_lite" ~query:"forward_window" ctx
      (forward_query ctx n);
  ]

let run () =
  let measurements = star_measurements () @ tpch_measurements () in
  let path = "BENCH_executor.json" in
  Exp_common.write_json path ~benchmark:"executor"
    [ ("measurements", Json.List (List.map json_of_measurement measurements)) ];
  List.iter
    (fun m ->
      Printf.printf "  %s/%s: %d rows, %.0f rows/sec, %d scanned + %d probed\n"
        m.workload m.query m.rows_emitted (rows_per_sec m) m.rows_scanned
        m.rows_probed)
    measurements;
  Printf.printf "  wrote %s\n" path
