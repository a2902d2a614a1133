(* Skew sweep (experiment A10): heavy-light partitioning vs the pure-lazy
   path over the star workload, sweeping [zipf_theta].

   The star view's fact table is the hotset's candidate source (it feeds
   every join atom), partitioned on the first dimension key — the column
   the workload skews. At low theta updates spread across the key domain
   and the partition stays mostly light; at high theta a few heavy keys
   absorb most of the update stream, so their per-key partials and the
   nearly-quiescent light residual replace full-width reads of the fact
   relation in the propagation plans. Both modes drain identically-seeded
   streams and must produce oracle-checked, bit-identical view contents at
   every sweep point. Writes BENCH_skew.json. *)

module Prng = Roll_util.Prng
module Tablefmt = Roll_util.Tablefmt
module Relation = Roll_relation.Relation
module Star = Roll_workload.Star
module C = Roll_core

let thetas = [ 0.2; 0.8; 1.4 ]

let fact_initial = 4_000

let dim_size = 64

let churn_rounds = 24

let txns_per_round = 12

type point = {
  theta : float;
  hotset : bool;
  queries : int;
  rows_read : int;
  rows_per_query : float;
  wall_s : float;
  hot_hits : int;
  hot_misses : int;
  heavy_keys : int;
  view_rows : int;
  oracle_ok : bool;
  contents : Relation.t;
}

let run_point ~hotset ~theta =
  let star =
    Star.create
      {
        Star.default_config with
        n_dimensions = 2;
        dim_size;
        fact_initial;
        zipf_theta = theta;
        seed = 47;
      }
  in
  Star.load_initial star;
  let db = Star.db star and capture = Star.capture star in
  let service = C.Service.create ~hotset ~default_sla:500 db capture in
  let ctl =
    C.Service.register service
      ~algorithm:(C.Controller.Rolling (C.Rolling.uniform 8))
      (Star.view star)
  in
  (* Catch up on the initial load outside the measured window; the second
     drain starts at a quiet point, so the registry can promote whatever
     the load already skewed. *)
  ignore (C.Service.step_all service ~budget:max_int);
  ignore (C.Service.step_all service ~budget:max_int);
  C.Service.refresh_all service;
  (* Propagate cost counts the whole fleet: user view plus every heavy
     partial the hotset maintains — the eager path pays for its own
     upkeep inside the same counters. *)
  let heavies () =
    List.filter
      (fun (part : C.Partial.part) -> part.C.Partial.key <> None)
      (C.Partial.entries (C.Service.partials service))
  in
  let fleet_stats () =
    C.Controller.stats ctl
    :: List.map (fun part -> C.Controller.stats (C.Partial.controller part))
         (heavies ())
  in
  let total f = List.fold_left (fun acc st -> acc + f st) 0 (fleet_stats ()) in
  let q0 = total C.Stats.queries and r0 = total C.Stats.rows_read in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to churn_rounds do
    Star.mixed_txns star ~n:txns_per_round ~dim_fraction:0.3;
    ignore (C.Service.step_all service ~budget:max_int);
    ignore (C.Service.step_all service ~budget:max_int)
  done;
  C.Service.refresh_all service;
  let wall_s = Unix.gettimeofday () -. t0 in
  let queries = total C.Stats.queries - q0 in
  let rows_read = total C.Stats.rows_read - r0 in
  let stats = C.Controller.stats ctl in
  let contents = C.Controller.contents ctl in
  let oracle_ok =
    Relation.equal
      (C.Oracle.view_at (Star.history star) (Star.view star)
         (C.Controller.as_of ctl))
      contents
  in
  let heavy_keys = List.length (heavies ()) in
  let point =
    {
      theta;
      hotset;
      queries;
      rows_read;
      rows_per_query =
        (if queries > 0 then float_of_int rows_read /. float_of_int queries
         else 0.);
      wall_s;
      hot_hits = C.Stats.hot_hits stats;
      hot_misses = C.Stats.hot_misses stats;
      heavy_keys;
      view_rows = Relation.distinct_count contents;
      oracle_ok;
      contents;
    }
  in
  C.Service.shutdown service;
  point

let json_of_point p identical =
  Printf.sprintf
    "    {\"zipf_theta\": %.2f, \"hotset\": %b, \"queries\": %d, \
     \"rows_read\": %d, \"rows_per_query\": %.2f,\n\
     \     \"wall_s\": %.4f, \"hot_hits\": %d, \"hot_misses\": %d, \
     \"heavy_keys\": %d, \"view_rows\": %d, \"oracle_ok\": %b, \
     \"contents_identical\": %b}"
    p.theta p.hotset p.queries p.rows_read p.rows_per_query p.wall_s
    p.hot_hits p.hot_misses p.heavy_keys p.view_rows p.oracle_ok identical

let run () =
  let pairs =
    List.map
      (fun theta ->
        let on = run_point ~hotset:true ~theta in
        let off = run_point ~hotset:false ~theta in
        (on, off))
      thetas
  in
  let die what =
    Printf.printf "!! skew bench FAILED: %s\n" what;
    exit 1
  in
  List.iter
    (fun (on, off) ->
      if not (on.oracle_ok && off.oracle_ok) then
        die (Printf.sprintf "oracle mismatch at theta=%.2f" on.theta);
      if not (Relation.equal on.contents off.contents) then
        die
          (Printf.sprintf "hotset on/off contents differ at theta=%.2f"
             on.theta))
    pairs;
  (* The headline shape: at high skew the partition concentrates on a few
     heavy keys and the substituted plans beat pure-lazy propagate cost;
     at low skew the subsystem must not have promoted a spurious hot set. *)
  let high_on, high_off =
    List.nth pairs (List.length pairs - 1)
  in
  if high_on.heavy_keys = 0 then
    die "no heavy keys at the highest skew";
  if high_on.hot_hits = 0 then
    die "heavy-light substitution never fired at the highest skew";
  if high_on.rows_per_query >= high_off.rows_per_query then
    die
      (Printf.sprintf
         "heavy-light did not beat pure-lazy at theta=%.2f (%.1f vs %.1f \
          rows/query)"
         high_on.theta high_on.rows_per_query high_off.rows_per_query);
  Tablefmt.print ~title:"skew sweep (star, hotset on/off)"
    ~header:
      [
        "theta"; "mode"; "queries"; "rows read"; "rows/query"; "wall s";
        "hot h/m"; "heavy";
      ]
    (List.concat_map
       (fun (on, off) ->
         List.map
           (fun p ->
             [
               Printf.sprintf "%.2f" p.theta;
               (if p.hotset then "hotset" else "lazy");
               string_of_int p.queries;
               string_of_int p.rows_read;
               Printf.sprintf "%.1f" p.rows_per_query;
               Printf.sprintf "%.3f" p.wall_s;
               Printf.sprintf "%d/%d" p.hot_hits p.hot_misses;
               string_of_int p.heavy_keys;
             ])
           [ on; off ])
       pairs);
  Printf.printf
    "  at theta %.2f: %.1f rows/query with the hotset vs %.1f pure-lazy\n"
    high_on.theta high_on.rows_per_query high_off.rows_per_query;
  let path = "BENCH_skew.json" in
  let oc = open_out path in
  output_string oc
    ("{\n  \"benchmark\": \"skew\",\n  " ^ Exp_common.meta_json () ^ ",\n");
  output_string oc
    (Printf.sprintf
       "  \"fact_initial\": %d, \"dim_size\": %d, \"churn_txns\": %d,\n"
       fact_initial dim_size (churn_rounds * txns_per_round));
  output_string oc "  \"points\": [\n";
  output_string oc
    (String.concat ",\n"
       (List.concat_map
          (fun (on, off) ->
            let identical = Relation.equal on.contents off.contents in
            [ json_of_point on identical; json_of_point off identical ])
          pairs));
  output_string oc "\n  ]\n}\n";
  close_out oc;
  Printf.printf "  wrote %s\n" path
