(* Cross-view sharing benchmark: four sibling views over one star schema
   (two alias-renamed twins per dimension, all reading the same fact delta
   windows), maintained once with the service's sharing memo and once
   independently over an identically-seeded scenario. Writes
   BENCH_sharing.json with per-mode executor counters so the shared run's
   savings (memoized deltas, shared hash builds, batched steps) can be
   tracked across revisions. Maintained contents must be identical in both
   modes and match the oracle — sharing changes which physical queries run,
   never the result. *)

module Time = Roll_delta.Time
module Database = Roll_storage.Database
module Relation = Roll_relation.Relation
module Tablefmt = Roll_util.Tablefmt
module C = Roll_core
module Json = Roll_util.Json
module W = Roll_workload

let star_config = { W.Star.default_config with n_dimensions = 2; seed = 23 }

(* Per dimension, two views identical up to alias renaming: the canonical
   signature makes each pair one memo identity, while all four share the
   fact table's delta windows and builds. *)
let sibling_views star =
  let db = W.Star.db star in
  let fact = W.Star.fact_table star in
  let mk name ~dim ~fact_alias ~dim_alias =
    let sources = [ (fact, fact_alias); (W.Star.dim_table star dim, dim_alias) ] in
    let b = C.View.binder db sources in
    C.View.create db ~name ~sources
      ~predicate:
        [
          Roll_relation.Predicate.join
            (b fact_alias (Printf.sprintf "d%d_key" dim))
            (b dim_alias "key");
        ]
      ~project:[ b fact_alias "measure"; b dim_alias "key"; b dim_alias "attr" ]
  in
  [
    mk "share_a" ~dim:0 ~fact_alias:"f" ~dim_alias:"d";
    mk "share_b" ~dim:0 ~fact_alias:"ff" ~dim_alias:"dd";
    mk "share_c" ~dim:1 ~fact_alias:"f" ~dim_alias:"d";
    mk "share_d" ~dim:1 ~fact_alias:"g" ~dim_alias:"e";
  ]

type mode_result = {
  label : string;
  queries : int;
  rows_read : int;
  rows_scanned : int;
  rows_probed : int;
  hash_builds : int;
  memo_hits : int;
  memo_misses : int;
  shared_builds : int;
  batched : int;
  propagate_ran : int;
  contents : (string * Relation.t) list;  (** by view name *)
  oracle_ok : bool;
}

let run_mode ~sharing ~label =
  let star = W.Star.create star_config in
  W.Star.load_initial star;
  let db = W.Star.db star in
  let service = C.Service.create ~sharing db (W.Star.capture star) in
  let views = sibling_views star in
  let controllers =
    List.map
      (fun v ->
        ( C.View.name v,
          C.Service.register service
            ~algorithm:(C.Controller.Rolling (C.Rolling.per_relation [| 8; 8 |]))
            v ))
      views
  in
  for _ = 1 to 6 do
    W.Star.mixed_txns star ~n:60 ~dim_fraction:0.2;
    match C.Service.maintain service ~budget:500 with
    | Ok _ -> ()
    | Error (e : C.Service.step_error) ->
        failwith (Printf.sprintf "maintain failed: %s at %s" e.view e.point)
  done;
  C.Service.refresh_all service;
  let history = W.Star.history star in
  let oracle_ok =
    List.for_all2
      (fun v (_, ctl) ->
        Relation.equal
          (C.Oracle.view_at history v (C.Controller.as_of ctl))
          (C.Controller.contents ctl))
      views controllers
  in
  let sum c =
    List.fold_left
      (fun acc (_, ctl) -> acc + C.Counters.count (C.Controller.counters ctl) c)
      0 controllers
  in
  let sched = C.Scheduler.counters (C.Service.scheduler service) in
  let propagate family =
    int_of_float (C.Counters.get_by sched family "propagate")
  in
  {
    label;
    queries = sum C.Counters.queries;
    rows_read = sum C.Counters.rows_read;
    rows_scanned = sum C.Counters.rows_scanned;
    rows_probed = sum C.Counters.rows_probed;
    hash_builds = sum C.Counters.hash_builds;
    memo_hits = sum C.Counters.memo_hits;
    memo_misses = sum C.Counters.memo_misses;
    shared_builds = sum C.Counters.shared_builds;
    batched = propagate C.Counters.sched_batched;
    propagate_ran = propagate C.Counters.sched_ran;
    contents =
      List.map (fun (name, ctl) -> (name, C.Controller.contents ctl)) controllers;
    oracle_ok;
  }

let json_of_mode m contents_identical =
  Json.Obj
    [
      ("mode", Json.Str m.label);
      ("queries", Json.Int m.queries);
      ("rows_read", Json.Int m.rows_read);
      ("rows_scanned", Json.Int m.rows_scanned);
      ("rows_probed", Json.Int m.rows_probed);
      ("hash_builds", Json.Int m.hash_builds);
      ("memo_hits", Json.Int m.memo_hits);
      ("memo_misses", Json.Int m.memo_misses);
      ("shared_builds", Json.Int m.shared_builds);
      ("batched", Json.Int m.batched);
      ("propagate_ran", Json.Int m.propagate_ran);
      ("oracle_ok", Json.Bool m.oracle_ok);
      ("contents_identical", Json.Bool contents_identical);
    ]

let run () =
  let shared = run_mode ~sharing:true ~label:"shared" in
  let independent = run_mode ~sharing:false ~label:"independent" in
  let contents_identical =
    List.for_all2
      (fun (name_s, rel_s) (name_i, rel_i) ->
        String.equal name_s name_i && Relation.equal rel_s rel_i)
      shared.contents independent.contents
  in
  let die what = Printf.printf "!! sharing bench FAILED: %s\n" what; exit 1 in
  if not (shared.oracle_ok && independent.oracle_ok) then die "oracle mismatch";
  if not contents_identical then die "shared and independent contents differ";
  if shared.memo_hits = 0 then die "shared mode recorded no memo hits";
  if shared.queries >= independent.queries then
    die "sharing did not reduce executed queries";
  if shared.rows_read >= independent.rows_read then
    die "sharing did not reduce executor rows";
  Tablefmt.print ~title:"cross-view sharing (4 sibling views, star workload)"
    ~header:
      [
        "mode"; "queries"; "rows read"; "scanned"; "probed"; "hash builds";
        "memo h/m"; "shared"; "batched";
      ]
    (List.map
       (fun m ->
         [
           m.label;
           string_of_int m.queries;
           string_of_int m.rows_read;
           string_of_int m.rows_scanned;
           string_of_int m.rows_probed;
           string_of_int m.hash_builds;
           Printf.sprintf "%d/%d" m.memo_hits m.memo_misses;
           string_of_int m.shared_builds;
           string_of_int m.batched;
         ])
       [ shared; independent ]);
  Printf.printf "  contents identical across modes and vs oracle: ok\n";
  let path = "BENCH_sharing.json" in
  Exp_common.write_json path ~benchmark:"sharing"
    [
      ( "modes",
        Json.List
          (List.map
             (fun m -> json_of_mode m contents_identical)
             [ shared; independent ]) );
    ];
  Printf.printf "  wrote %s\n" path
