(* Experiment A8 — the paged store under memory pressure: drain a star
   workload ten times the executor benchmark's scale on ROLL_STORE=disk
   with block caches smaller than the data file, and record how the hit
   ratio and drain throughput move as the cache grows. Writes
   BENCH_storage.json; the interesting shape is throughput recovering
   toward the largest-cache point as the working set becomes resident. *)

module Time = Roll_delta.Time
module Database = Roll_storage.Database
module Store = Roll_storage.Store
module Block_cache = Roll_storage.Block_cache
module Pager = Roll_storage.Pager
module C = Roll_core
module W = Roll_workload
module Json = Roll_util.Json

(* ROLL_BENCH_SCALE multiplies the workload's row counts (initial fact
   rows, dimension size, churn transactions) AND the cache grid, so
   `ROLL_BENCH_SCALE=10 bench storage` runs the same experiment on a
   10-100x workload at the same cache-residency fractions — the sweep is
   about relative memory pressure, and scaling the data without the cache
   would just pin every point at the thrashing floor. Unset or 1 is the
   historical scale. *)
let scale =
  match Sys.getenv_opt "ROLL_BENCH_SCALE" with
  | None | Some "" -> 1
  | Some v -> (
      match int_of_string_opt v with
      | Some n when n >= 1 -> n
      | _ -> failwith "bench storage: ROLL_BENCH_SCALE must be a positive int")

(* 10x the scale BENCH_executor.json's star measurements run at. *)
let star_config =
  {
    W.Star.default_config with
    fact_initial = 20_000 * scale;
    dim_size = 400 * scale;
    seed = 99;
  }

let drain_txns = 2_000 * scale

type point = {
  cache_pages : int;
  policy : string;
  data_pages : int;
  hit_ratio : float;
  resident : int;
  evictions : int;
  page_reads : int;
  page_writes : int;
  drain_s : float;
  steps : int;
  rows : int;  (** final view cardinality — must agree across points *)
}

(* One full build-churn-drain cycle against a fresh disk store whose
   cache is capped at [cache_pages]. The store mode and cache size ride
   the environment because the workload builds its own database. *)
let run_point ~cache_pages ~policy =
  Unix.putenv "ROLL_STORE" "disk";
  Unix.putenv "ROLL_CACHE_PAGES" (string_of_int cache_pages);
  Unix.putenv "ROLL_STORE_POLICY" policy;
  let star = W.Star.create star_config in
  W.Star.load_initial star;
  let db = W.Star.db star in
  let service =
    C.Service.create ~default_sla:50 db (W.Star.capture star)
  in
  let ctl =
    C.Service.register service
      ~algorithm:(C.Controller.Rolling (C.Rolling.per_relation [| 16; 64; 64 |]))
      (W.Star.view star)
  in
  W.Star.mixed_txns star ~n:drain_txns ~dim_fraction:0.05;
  let data_now = Database.now db in
  let store =
    match Database.store db with
    | Some s -> s
    | None -> failwith "bench storage: expected a disk-backed database"
  in
  let t0 = Unix.gettimeofday () in
  let steps = C.Service.step_all service ~budget:max_int in
  let drain_s = Unix.gettimeofday () -. t0 in
  C.Controller.refresh_to ctl data_now;
  let rows = Roll_relation.Relation.distinct_count (C.Controller.contents ctl) in
  Database.sync db;
  let pager = Store.pager store in
  let cache = Store.cache store in
  let point =
    {
      cache_pages;
      policy;
      data_pages = Pager.n_pages pager;
      hit_ratio = Block_cache.hit_ratio cache;
      resident = Block_cache.resident cache;
      evictions = Block_cache.evictions cache;
      page_reads = Pager.page_reads pager;
      page_writes = Pager.page_writes pager;
      drain_s;
      steps;
      rows;
    }
  in
  C.Service.shutdown service;
  point

let json_of_point p =
  Json.Obj
    [
      ("cache_pages", Json.Int p.cache_pages);
      ("policy", Json.Str p.policy);
      ("data_pages", Json.Int p.data_pages);
      ("hit_ratio", Json.fixed 4 p.hit_ratio);
      ("resident_pages", Json.Int p.resident);
      ("evictions", Json.Int p.evictions);
      ("page_reads", Json.Int p.page_reads);
      ("page_writes", Json.Int p.page_writes);
      ("drain_s", Json.fixed 4 p.drain_s);
      ("steps", Json.Int p.steps);
      ( "txns_per_sec",
        Json.fixed 1
          (if p.drain_s > 0. then float_of_int drain_txns /. p.drain_s else 0.) );
      ("rows", Json.Int p.rows);
    ]

let run () =
  let saved_store = Sys.getenv_opt "ROLL_STORE" in
  let saved_cache = Sys.getenv_opt "ROLL_CACHE_PAGES" in
  let saved_policy = Sys.getenv_opt "ROLL_STORE_POLICY" in
  let restore () =
    let back name = function
      | Some v -> Unix.putenv name v
      | None -> Unix.putenv name ""
    in
    back "ROLL_STORE" saved_store;
    back "ROLL_CACHE_PAGES" saved_cache;
    back "ROLL_STORE_POLICY" saved_policy
  in
  Fun.protect ~finally:restore (fun () ->
      let points =
        List.map
          (fun (cache_pages, policy) ->
            run_point ~cache_pages:(cache_pages * scale) ~policy)
          [
            (64, "lru");
            (128, "lru");
            (256, "lru");
            (512, "lru");
            (1024, "lru");
            (128, "clock");
          ]
      in
      (* Every point drained the same deterministic workload; diverging
         contents would mean the paged store corrupted the view. *)
      (match points with
      | first :: rest ->
          List.iter
            (fun p ->
              if p.rows <> first.rows then begin
                Printf.printf "!! bench storage: rows diverge across caches\n";
                exit 1
              end)
            rest
      | [] -> ());
      let path = "BENCH_storage.json" in
      Exp_common.write_json path ~benchmark:"storage"
        [
          ("workload", Json.Str "star");
          ("fact_initial", Json.Int star_config.W.Star.fact_initial);
          ("txns", Json.Int drain_txns);
          ("scale", Json.Int scale);
          ("points", Json.List (List.map json_of_point points));
        ];
      List.iter
        (fun p ->
          Printf.printf
            "  cache=%4d (%5s): hit %.3f, %d/%d pages resident, drain %.3fs \
             (%.0f txn/s)\n"
            p.cache_pages p.policy p.hit_ratio p.resident p.data_pages
            p.drain_s
            (if p.drain_s > 0. then float_of_int drain_txns /. p.drain_s
             else 0.))
        points;
      Printf.printf "  wrote %s\n" path)
