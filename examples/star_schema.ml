(* Star schema (Section 3.4): the fact table churns constantly while
   dimensions barely move. Rolling propagation gives each relation its own
   propagation interval — the paper's n independent tuning knobs — and this
   example shows why that matters by comparing three configurations on the
   same workload:

     - Propagate with a small uniform interval,
     - Propagate with a large uniform interval,
     - RollingPropagate with a small fact interval and large dimension
       intervals.

     dune exec examples/star_schema.exe
*)

module Time = Roll_delta.Time
module Database = Roll_storage.Database
module Tablefmt = Roll_util.Tablefmt
module Summary = Roll_util.Summary
module C = Roll_core
module Star = Roll_workload.Star

let config =
  { Star.default_config with n_dimensions = 2; dim_size = 150; fact_initial = 800 }

let run_workload star =
  Star.load_initial star;
  Star.mixed_txns star ~n:400 ~dim_fraction:0.02

type outcome = {
  label : string;
  queries : int;
  rows_read : int;
  avg_txn_rows : float;
  max_txn_rows : float;
}

let measure label algorithm =
  let star = Star.create config in
  run_workload star;
  let ctx =
    C.Ctx.create ~t_initial:Time.origin (Star.db star) (Star.capture star)
      (Star.view star)
  in
  C.Ctx.keep_footprints ctx;
  let target = Database.now (Star.db star) in
  (match algorithm with
  | `Uniform interval ->
      let p = C.Propagate.create ctx ~t_initial:Time.origin in
      C.Propagate.run_until p ~target ~interval
  | `Rolling intervals ->
      let r = C.Rolling.create ctx ~t_initial:Time.origin in
      C.Rolling.run_until r ~target ~policy:(C.Rolling.per_relation intervals));
  let per_txn = Summary.create () in
  List.iter
    (fun (fp : C.Ctx.footprint) ->
      let rows = List.fold_left (fun acc (_, n) -> acc + n) 0 fp.reads in
      Summary.add per_txn (float_of_int rows))
    (C.Ctx.footprints ctx);
  {
    label;
    queries = C.Counters.count ctx.C.Ctx.counters C.Counters.queries;
    rows_read = C.Counters.count ctx.C.Ctx.counters C.Counters.rows_read;
    avg_txn_rows = Summary.mean per_txn;
    max_txn_rows = Summary.max_value per_txn;
  }

let () =
  print_endline "Star-schema maintenance: 400 txns, ~2% dimension updates.";
  print_endline "All three runs propagate the same change history.";
  let outcomes =
    [
      measure "Propagate, uniform 10" (`Uniform 10);
      measure "Propagate, uniform 80" (`Uniform 80);
      measure "Rolling, fact=10 dims=200" (`Rolling [| 10; 200; 200 |]);
    ]
  in
  Tablefmt.print ~title:"propagation cost by configuration"
    ~header:[ "configuration"; "queries"; "rows read"; "avg rows/txn"; "max rows/txn" ]
    (List.map
       (fun o ->
         [
           o.label;
           string_of_int o.queries;
           string_of_int o.rows_read;
           Printf.sprintf "%.0f" o.avg_txn_rows;
           Printf.sprintf "%.0f" o.max_txn_rows;
         ])
       outcomes);
  print_newline ();
  print_endline
    "Uniform small intervals pay base-table scans per tiny step; uniform";
  print_endline
    "large intervals make huge transactions. Per-relation intervals keep";
  print_endline
    "fact steps small while dimensions are swept rarely - fewer rows read";
  print_endline "with bounded transaction sizes."
