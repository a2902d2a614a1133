(* Higher-order delta benchmark: per-step propagation cost against a
   growing base relation, with the compensation partial materialized as an
   auxiliary view vs. recomputed from the base every step.

   The view is fact(k,v,tag) ⋈ dim(k,w) with a 1%-selective local filter
   on fact (tag >= 990). Every dimension-window forward query reads fact
   as a Base term; without auxiliaries that read scans the whole fact
   table, so per-step cost grows linearly as fact grows 10x. With
   auxiliaries the read probes the maintained mirror of
   π_{k,v}(σ_{tag>=990}(fact)) — about 1% of the base — and per-step cost
   stays flat. Both modes drain an identically-seeded update stream and
   must produce bit-identical view contents that match the oracle at every
   measured size. Per-step cost includes the cost of maintaining the
   auxiliary itself (its controller's queries and rows ride the same
   counters). Writes BENCH_higher_order.json. *)

module Prng = Roll_util.Prng
module Database = Roll_storage.Database
module History = Roll_storage.History
module Capture = Roll_capture.Capture
module Relation = Roll_relation.Relation
module Schema = Roll_relation.Schema
module Value = Roll_relation.Value
module Tuple = Roll_relation.Tuple
module Predicate = Roll_relation.Predicate
module Tablefmt = Roll_util.Tablefmt
module C = Roll_core

(* fact grows 10x across the measured points; dim stays fixed, so the
   change stream the steps process is the same size at every point. *)
let fact_sizes = [ 2_000; 6_000; 20_000 ]

let dim_rows = 200

let key_domain = 200

let tag_domain = 1_000

let hot_tag = 990 (* σ(tag >= 990): the auxiliary holds ~1% of fact *)

let churn_rounds = 30

let txns_per_round = 10

type scenario = {
  db : Database.t;
  capture : Capture.t;
  history : History.t;
  view : C.View.t;
  rng : Prng.t;
  dim_w : int array;
}

let int_col name = { Schema.name; ty = Value.T_int }

let scenario ~fact_rows =
  let db = Database.create () in
  let _ =
    Database.create_table db ~name:"fact"
      (Schema.make [ int_col "k"; int_col "v"; int_col "tag" ])
  in
  let _ =
    Database.create_table db ~name:"dim"
      (Schema.make [ int_col "k"; int_col "w" ])
  in
  let capture = Capture.create db in
  Capture.attach capture ~table:"fact";
  Capture.attach capture ~table:"dim";
  let history = History.create db in
  let b = C.View.binder db [ ("fact", "f"); ("dim", "d") ] in
  let view =
    C.View.create db ~name:"hot"
      ~sources:[ ("fact", "f"); ("dim", "d") ]
      ~predicate:
        [
          Predicate.join (b "f" "k") (b "d" "k");
          Predicate.cmp Predicate.Ge
            (Predicate.Col (b "f" "tag"))
            (Predicate.Const (Value.Int hot_tag));
        ]
      ~project:[ b "f" "k"; b "f" "v"; b "d" "w" ]
  in
  let rng = Prng.create ~seed:31 in
  let dim_w = Array.init key_domain (fun _ -> Prng.int rng tag_domain) in
  ignore
    (Database.run db (fun txn ->
         Array.iteri
           (fun k w -> Database.insert txn ~table:"dim" (Tuple.ints [ k; w ]))
           dim_w));
  let batch = 200 in
  let loaded = ref 0 in
  while !loaded < fact_rows do
    let n = min batch (fact_rows - !loaded) in
    ignore
      (Database.run db (fun txn ->
           for _ = 1 to n do
             Database.insert txn ~table:"fact"
               (Tuple.ints
                  [
                    Prng.int rng key_domain;
                    Prng.int rng tag_domain;
                    Prng.int rng tag_domain;
                  ])
           done));
    loaded := !loaded + n
  done;
  { db; capture; history; view; rng; dim_w }

(* The measured stream: mostly dimension updates (whose forward queries
   read fact as a Base term — the substitution site), with enough fact
   churn that the auxiliary does real maintenance work along the way. *)
let churn_txn s =
  if Prng.int s.rng 10 = 0 then
    ignore
      (Database.run s.db (fun txn ->
           Database.insert txn ~table:"fact"
             (Tuple.ints
                [
                  Prng.int s.rng key_domain;
                  Prng.int s.rng tag_domain;
                  Prng.int s.rng tag_domain;
                ])))
  else begin
    let k = Prng.int s.rng key_domain in
    let w' = Prng.int s.rng tag_domain in
    ignore
      (Database.run s.db (fun txn ->
           Database.delete txn ~table:"dim" (Tuple.ints [ k; s.dim_w.(k) ]);
           Database.insert txn ~table:"dim" (Tuple.ints [ k; w' ])));
    s.dim_w.(k) <- w'
  end

type point = {
  fact_rows : int;
  aux : bool;
  queries : int;  (** propagate queries during the measured churn *)
  rows_read : int;  (** executor rows, user view + auxiliaries *)
  rows_per_query : float;
  wall_s : float;
  aux_hits : int;
  aux_misses : int;
  view_rows : int;
  oracle_ok : bool;
  contents : Relation.t;
}

let run_point ~aux ~fact_rows =
  let s = scenario ~fact_rows in
  let service = C.Service.create ~auxiliary:aux s.db s.capture in
  let ctl =
    C.Service.register service
      ~algorithm:(C.Controller.Rolling (C.Rolling.uniform 8))
      s.view
  in
  (* Catch up on the initial load outside the measured window, leaving
     the auxiliary fresh. *)
  ignore (C.Service.step_all service ~budget:max_int);
  C.Service.refresh_all service;
  let aux_stats =
    List.filter_map
      (fun (part : C.Partial.part) ->
        if part.C.Partial.key = None then
          Some (C.Controller.stats (C.Partial.controller part))
        else None)
      (C.Partial.entries (C.Service.partials service))
  in
  let stats = C.Controller.stats ctl in
  let total f = List.fold_left (fun acc st -> acc + f st) (f stats) aux_stats in
  let q0 = total C.Stats.queries and r0 = total C.Stats.rows_read in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to churn_rounds do
    for _ = 1 to txns_per_round do
      churn_txn s
    done;
    ignore (C.Service.step_all service ~budget:max_int)
  done;
  C.Service.refresh_all service;
  let wall_s = Unix.gettimeofday () -. t0 in
  let queries = C.Stats.queries stats + List.fold_left (fun a st -> a + C.Stats.queries st) 0 aux_stats - q0 in
  let rows_read = total C.Stats.rows_read - r0 in
  let contents = C.Controller.contents ctl in
  let oracle_ok =
    Relation.equal
      (C.Oracle.view_at s.history s.view (C.Controller.as_of ctl))
      contents
  in
  let point =
    {
      fact_rows;
      aux;
      queries;
      rows_read;
      rows_per_query =
        (if queries > 0 then float_of_int rows_read /. float_of_int queries
         else 0.);
      wall_s;
      aux_hits = C.Stats.aux_hits stats;
      aux_misses = C.Stats.aux_misses stats;
      view_rows = Relation.distinct_count contents;
      oracle_ok;
      contents;
    }
  in
  C.Service.shutdown service;
  point

let json_of_point p identical =
  Printf.sprintf
    "    {\"fact_rows\": %d, \"aux\": %b, \"queries\": %d, \"rows_read\": \
     %d, \"rows_per_query\": %.2f,\n\
     \     \"wall_s\": %.4f, \"aux_hits\": %d, \"aux_misses\": %d, \
     \"view_rows\": %d, \"oracle_ok\": %b, \"contents_identical\": %b}"
    p.fact_rows p.aux p.queries p.rows_read p.rows_per_query p.wall_s
    p.aux_hits p.aux_misses p.view_rows p.oracle_ok identical

let run () =
  let pairs =
    List.map
      (fun fact_rows ->
        let on = run_point ~aux:true ~fact_rows in
        let off = run_point ~aux:false ~fact_rows in
        (on, off))
      fact_sizes
  in
  let die what =
    Printf.printf "!! higher_order bench FAILED: %s\n" what;
    exit 1
  in
  List.iter
    (fun (on, off) ->
      if not (on.oracle_ok && off.oracle_ok) then
        die (Printf.sprintf "oracle mismatch at fact_rows=%d" on.fact_rows);
      if not (Relation.equal on.contents off.contents) then
        die
          (Printf.sprintf "aux on/off contents differ at fact_rows=%d"
             on.fact_rows);
      if on.aux_hits = 0 then
        die
          (Printf.sprintf "no mirror substitution at fact_rows=%d"
             on.fact_rows))
    pairs;
  (* The headline shape: per-step cost grows with the base when the
     partial is recomputed every step, and flattens when it is maintained
     as an auxiliary view. *)
  let rpq sel = List.map (fun pair -> (sel pair).rows_per_query) pairs in
  let growth = function
    | first :: _ as xs when first > 0. ->
        List.fold_left max first xs /. first
    | _ -> 0.
  in
  let on_growth = growth (rpq fst) and off_growth = growth (rpq snd) in
  if off_growth < 3.0 then
    die
      (Printf.sprintf
         "baseline per-step cost did not grow with the base (%.2fx over a \
          10x base)"
         off_growth);
  if on_growth > off_growth /. 2.0 then
    die
      (Printf.sprintf
         "auxiliary per-step cost did not flatten (%.2fx vs baseline %.2fx)"
         on_growth off_growth);
  Tablefmt.print
    ~title:"higher-order deltas (fact ⋈ dim, 1%-selective fact filter)"
    ~header:
      [
        "fact rows"; "mode"; "queries"; "rows read"; "rows/query"; "wall s";
        "aux h/m";
      ]
    (List.concat_map
       (fun (on, off) ->
         List.map
           (fun p ->
             [
               string_of_int p.fact_rows;
               (if p.aux then "aux" else "base");
               string_of_int p.queries;
               string_of_int p.rows_read;
               Printf.sprintf "%.1f" p.rows_per_query;
               Printf.sprintf "%.3f" p.wall_s;
               Printf.sprintf "%d/%d" p.aux_hits p.aux_misses;
             ])
           [ on; off ])
       pairs);
  Printf.printf
    "  per-step growth over a %dx base: %.2fx with auxiliaries, %.2fx \
     without\n"
    (List.fold_left max 1 fact_sizes / List.fold_left min max_int fact_sizes)
    on_growth off_growth;
  let path = "BENCH_higher_order.json" in
  let oc = open_out path in
  output_string oc
    ("{\n  \"benchmark\": \"higher_order\",\n  " ^ Exp_common.meta_json ()
   ^ ",\n");
  output_string oc
    (Printf.sprintf
       "  \"dim_rows\": %d, \"hot_tag\": %d, \"churn_txns\": %d, \
        \"on_growth\": %.2f, \"off_growth\": %.2f,\n"
       dim_rows hot_tag (churn_rounds * txns_per_round) on_growth off_growth);
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
