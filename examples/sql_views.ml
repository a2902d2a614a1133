(* SQL-defined views over the order-processing (chain) workload, plus an
   aggregate view maintained from the same timestamped view delta.

     dune exec examples/sql_views.exe
*)

open Roll_relation
module Time = Roll_delta.Time
module Database = Roll_storage.Database
module Tablefmt = Roll_util.Tablefmt
module C = Roll_core
module Chain = Roll_workload.Chain

let () =
  let chain = Chain.create { Chain.default_config with initial_orders = 150 } in
  Chain.load_initial chain;
  let db = Chain.db chain in

  (* The same view the workload builds, but written in SQL. *)
  let view =
    Roll_dsl.Sql.parse_view db ~name:"big_orders_sql"
      "SELECT c.region, o.okey, o.total, l.qty \
       FROM customer c \
       JOIN orders o ON c.ckey = o.ckey AND o.total > 40 \
       JOIN lineitem l ON o.okey = l.okey"
  in
  Format.printf "%a@.@." C.View.pp view;

  let ctx = C.Ctx.create db (Chain.capture chain) view in
  let apply = C.Apply.create_materialized ctx in
  let rolling = C.Rolling.create ctx ~t_initial:(C.Apply.as_of apply) in

  (* An aggregate over the SPJ view, maintained from the same timestamped
     delta (summary-delta method, Sections 2 and 6). It starts empty at the
     materialization time, so it reports the net change per region since
     then. *)
  let agg =
    C.Aggregate.create ctx (C.Aggregate.simple ~group_by:[ 0 ] ~sums:[ 3 ])
      ~t_initial:(C.Apply.as_of apply)
  in

  Chain.run chain ~n:250;
  let target = Database.now db in
  C.Rolling.run_until rolling ~target
    ~policy:(C.Rolling.per_relation [| 300; 10; 10 |]);
  C.Apply.roll_to apply ~hwm:(C.Rolling.hwm rolling) target;
  C.Aggregate.roll_to agg ~hwm:(C.Rolling.hwm rolling) target;

  Format.printf "view rows after 250 more order transactions: %d@."
    (Relation.distinct_count (C.Apply.contents apply));

  (* Report the aggregate, noting it covers changes since materialization
     (the delta-maintained part). *)
  let rows = ref [] in
  Relation.iter
    (fun tuple _ ->
      match (Tuple.get tuple 0, Tuple.get tuple 1, Tuple.get tuple 2) with
      | Value.Int region, Value.Int count, Value.Int qty ->
          rows := [ string_of_int region; string_of_int count; string_of_int qty ] :: !rows
      | _ -> ())
    (C.Aggregate.contents agg);
  Tablefmt.print ~title:"net change per region since materialization"
    ~header:[ "region"; "line count"; "qty sum" ]
    (List.sort compare !rows);
  Format.printf "@.stats: %a@." C.Counters.pp ctx.C.Ctx.counters
