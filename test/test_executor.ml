(* Join-executor tests: the planner-based evaluator against the
   nested-loop oracle, timestamp/count semantics, NULL keys, self-joins,
   cartesian products, theta joins, and window guards. *)

open Test_support.Helpers
open Roll_relation
module Time = Roll_delta.Time
module C = Roll_core

let qtest = QCheck_alcotest.to_alcotest

(* Evaluate the all-base query and compare with the oracle's view_at. *)
let check_against_oracle s =
  let ctx = ctx_of s in
  let rows, _ = C.Executor.evaluate ctx (C.Pquery.all_base (C.View.n_sources s.view)) in
  let got = Relation.create (C.View.output_schema s.view) in
  List.iter (fun (tuple, count, _) -> Relation.add got tuple count) rows;
  let expected = C.Oracle.view_at s.history s.view (Database.now s.db) in
  Alcotest.check relation "executor = oracle" expected got

let test_vs_oracle_two_table () =
  let s = two_table () in
  random_txns (Prng.create ~seed:21) s 60;
  check_against_oracle s

let test_vs_oracle_three_table () =
  let s = three_table () in
  random_txns (Prng.create ~seed:22) s 60;
  check_against_oracle s

let prop_executor_matches_oracle =
  QCheck.Test.make ~name:"executor matches nested-loop oracle" ~count:40
    QCheck.small_int
    (fun seed ->
      let s = if seed mod 2 = 0 then two_table () else three_table () in
      random_txns (Prng.create ~seed) s 40;
      let ctx = ctx_of s in
      let rows, _ =
        C.Executor.evaluate ctx (C.Pquery.all_base (C.View.n_sources s.view))
      in
      let got = Relation.create (C.View.output_schema s.view) in
      List.iter (fun (tuple, count, _) -> Relation.add got tuple count) rows;
      Relation.equal got (C.Oracle.view_at s.history s.view (Database.now s.db)))

let int_col name = { Schema.name; ty = Value.T_int }

(* A view with no join atoms: cartesian product. *)
let cartesian_scenario () =
  let db = Database.create () in
  let _ = Database.create_table db ~name:"x" (Schema.make [ int_col "a" ]) in
  let _ = Database.create_table db ~name:"y" (Schema.make [ int_col "b" ]) in
  let capture = Capture.create db in
  Capture.attach capture ~table:"x";
  Capture.attach capture ~table:"y";
  let b = C.View.binder db [ ("x", "x"); ("y", "y") ] in
  let view =
    C.View.create db ~name:"prod"
      ~sources:[ ("x", "x"); ("y", "y") ]
      ~predicate:[]
      ~project:[ b "x" "a"; b "y" "b" ]
  in
  { db; capture; history = History.create db; view }

let test_cartesian () =
  let s = cartesian_scenario () in
  ignore
    (Database.run s.db (fun txn ->
         Database.insert txn ~table:"x" (Tuple.ints [ 1 ]);
         Database.insert txn ~table:"x" (Tuple.ints [ 2 ]);
         Database.insert txn ~table:"y" (Tuple.ints [ 10 ]);
         Database.insert txn ~table:"y" (Tuple.ints [ 20 ]);
         Database.insert txn ~table:"y" (Tuple.ints [ 30 ])));
  let ctx = ctx_of s in
  let rows, _ = C.Executor.evaluate ctx (C.Pquery.all_base 2) in
  Alcotest.(check int) "2x3 product" 6 (List.length rows)

(* Self-join: same table twice. *)
let selfjoin_scenario () =
  let db = Database.create () in
  let _ = Database.create_table db ~name:"e" (Schema.make [ int_col "id"; int_col "mgr" ]) in
  let capture = Capture.create db in
  Capture.attach capture ~table:"e";
  let b = C.View.binder db [ ("e", "emp"); ("e", "boss") ] in
  let view =
    C.View.create db ~name:"emp_boss"
      ~sources:[ ("e", "emp"); ("e", "boss") ]
      ~predicate:[ Predicate.join (b "emp" "mgr") (b "boss" "id") ]
      ~project:[ b "emp" "id"; b "boss" "id" ]
  in
  { db; capture; history = History.create db; view }

let test_self_join () =
  let s = selfjoin_scenario () in
  ignore
    (Database.run s.db (fun txn ->
         Database.insert txn ~table:"e" (Tuple.ints [ 1; 1 ]);
         Database.insert txn ~table:"e" (Tuple.ints [ 2; 1 ]);
         Database.insert txn ~table:"e" (Tuple.ints [ 3; 2 ])));
  let ctx = ctx_of s in
  let rows, _ = C.Executor.evaluate ctx (C.Pquery.all_base 2) in
  let got = Relation.create (C.View.output_schema s.view) in
  List.iter (fun (tuple, count, _) -> Relation.add got tuple count) rows;
  let expected =
    Relation.of_list (C.View.output_schema s.view)
      [ (Tuple.ints [ 1; 1 ], 1); (Tuple.ints [ 2; 1 ], 1); (Tuple.ints [ 3; 2 ], 1) ]
  in
  Alcotest.check relation "manager join" expected got

let test_null_join_keys () =
  let s = two_table () in
  ignore
    (Database.run s.db (fun txn ->
         Database.insert txn ~table:"r" (Tuple.make [ Value.Null; Value.Int 1 ]);
         Database.insert txn ~table:"s" (Tuple.make [ Value.Null; Value.Int 2 ]);
         Database.insert txn ~table:"r" (Tuple.ints [ 1; 5 ]);
         Database.insert txn ~table:"s" (Tuple.ints [ 1; 6 ])));
  let ctx = ctx_of s in
  let rows, _ = C.Executor.evaluate ctx (C.Pquery.all_base 2) in
  (* NULL keys must not join with each other (SQL semantics). *)
  Alcotest.(check int) "only the non-null match" 1 (List.length rows)

let test_timestamps_min_rule () =
  let s = two_table () in
  ignore (Database.run s.db (fun txn -> Database.insert txn ~table:"r" (Tuple.ints [ 1; 7 ])));
  ignore (Database.run s.db (fun txn -> Database.insert txn ~table:"s" (Tuple.ints [ 1; 8 ])));
  let ctx = ctx_of s in
  Roll_capture.Capture.advance s.capture;
  (* Both deltas windowed: the row's ts must be the min of the two. *)
  let q =
    [| C.Pquery.Win { lo = 0; hi = 2 }; C.Pquery.Win { lo = 0; hi = 2 } |]
  in
  (match C.Executor.evaluate ctx q with
  | [ (_, count, ts) ], _ ->
      Alcotest.(check int) "count" 1 count;
      Alcotest.(check int) "min ts" 1 ts
  | rows, _ -> Alcotest.failf "expected one row, got %d" (List.length rows));
  (* Base x delta: ts comes from the delta side. *)
  let q2 = [| C.Pquery.Base; C.Pquery.Win { lo = 0; hi = 2 } |] in
  match C.Executor.evaluate ctx q2 with
  | [ (_, _, ts) ], _ -> Alcotest.(check int) "delta-side ts" 2 ts
  | rows, _ -> Alcotest.failf "expected one row, got %d" (List.length rows)

let test_count_products () =
  let s = two_table () in
  ignore
    (Database.run s.db (fun txn ->
         (* Duplicate rows: 2 copies x 3 copies = 6. *)
         Database.insert txn ~table:"r" (Tuple.ints [ 1; 0 ]);
         Database.insert txn ~table:"r" (Tuple.ints [ 1; 0 ]);
         Database.insert txn ~table:"s" (Tuple.ints [ 1; 0 ]);
         Database.insert txn ~table:"s" (Tuple.ints [ 1; 0 ]);
         Database.insert txn ~table:"s" (Tuple.ints [ 1; 0 ])));
  let ctx = ctx_of s in
  let rows, _ = C.Executor.evaluate ctx (C.Pquery.all_base 2) in
  let total = List.fold_left (fun acc (_, c, _) -> acc + c) 0 rows in
  Alcotest.(check int) "multiset product" 6 total

let test_window_guard () =
  let s = two_table () in
  ignore (Database.run s.db (fun txn -> Database.insert txn ~table:"r" (Tuple.ints [ 1; 1 ])));
  let ctx = ctx_of s in
  ctx.C.Ctx.auto_capture <- false;
  (* Capture has seen nothing: any window is beyond its high-water mark. *)
  Alcotest.(check bool) "window beyond capture hwm rejected" true
    (try
       ignore (C.Executor.evaluate ctx [| C.Pquery.Win { lo = 0; hi = 1 }; C.Pquery.Base |]);
       false
     with Invalid_argument _ -> true)

let test_execute_stats_and_marker () =
  let s = two_table () in
  random_txns (Prng.create ~seed:30) s 10;
  let ctx = ctx_of s in
  C.Ctx.keep_footprints ctx;
  let before = Database.now s.db in
  let t_exec =
    C.Executor.execute ctx ~sign:1 [| C.Pquery.Win { lo = 0; hi = before }; C.Pquery.Base |]
  in
  Alcotest.(check int) "marker consumed a csn" (before + 1) t_exec;
  Alcotest.(check int) "one query recorded" 1 (C.Counters.count ctx.C.Ctx.counters C.Counters.queries);
  match C.Ctx.footprints ctx with
  | [ fp ] ->
      Alcotest.(check int) "exec time" t_exec fp.C.Ctx.exec;
      Alcotest.(check int) "two resources read" 2 (List.length fp.C.Ctx.reads);
      Alcotest.(check bool) "delta resource named" true
        (List.exists (fun (r, _) -> r = "\xce\x94r") fp.C.Ctx.reads)
  | _ -> Alcotest.fail "expected one footprint"

let test_execute_sign () =
  let s = two_table () in
  ignore (Database.run s.db (fun txn -> Database.insert txn ~table:"r" (Tuple.ints [ 1; 1 ])));
  ignore (Database.run s.db (fun txn -> Database.insert txn ~table:"s" (Tuple.ints [ 1; 1 ])));
  let ctx = ctx_of s in
  let now = Database.now s.db in
  ignore (C.Executor.execute ctx ~sign:(-1) [| C.Pquery.Win { lo = 0; hi = now }; C.Pquery.Base |]);
  match Roll_delta.Delta.to_list ctx.C.Ctx.out with
  | [ row ] -> Alcotest.(check int) "negated count" (-1) row.Roll_delta.Delta.count
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

let test_materialize () =
  let s = two_table () in
  random_txns (Prng.create ~seed:31) s 30;
  let ctx = ctx_of s in
  let materialized, t_exec = C.Executor.materialize ctx in
  Alcotest.check relation "materialized = oracle"
    (C.Oracle.view_at s.history s.view (t_exec - 1))
    materialized;
  Alcotest.(check bool) "t_exec current" true (t_exec = Database.now s.db)

let suite =
  [
    Alcotest.test_case "vs oracle, 2-way" `Quick test_vs_oracle_two_table;
    Alcotest.test_case "vs oracle, 3-way" `Quick test_vs_oracle_three_table;
    qtest prop_executor_matches_oracle;
    Alcotest.test_case "cartesian product" `Quick test_cartesian;
    Alcotest.test_case "self-join" `Quick test_self_join;
    Alcotest.test_case "NULL join keys do not match" `Quick test_null_join_keys;
    Alcotest.test_case "minimum-timestamp rule" `Quick test_timestamps_min_rule;
    Alcotest.test_case "multiset count products" `Quick test_count_products;
    Alcotest.test_case "window beyond capture rejected" `Quick test_window_guard;
    Alcotest.test_case "execute records stats and marker" `Quick test_execute_stats_and_marker;
    Alcotest.test_case "execute applies sign" `Quick test_execute_sign;
    Alcotest.test_case "materialize" `Quick test_materialize;
  ]

let test_explain () =
  let s = three_table () in
  (* Enough churn that every base table clearly outweighs a 2-commit
     window. *)
  random_txns (Prng.create ~seed:32) s 150;
  let ctx = ctx_of s in
  Roll_capture.Capture.advance s.capture;
  let base_plan = C.Executor.explain ctx (C.Pquery.all_base 3) in
  Alcotest.(check bool) "mentions a hash join" true
    (String.length base_plan > 0
    && Test_support.Helpers.contains base_plan "hash-join");
  let now = Database.now s.db in
  let delta_plan =
    (* A short window: far fewer rows than any base table, so the planner
       must let it drive the join. *)
    C.Executor.explain ctx
      (C.Pquery.replace (C.Pquery.all_base 3) 2
         (C.Pquery.Win { lo = now - 2; hi = now }))
  in
  (* The delta window should drive the join (scanned first). *)
  (match String.index_opt delta_plan '\n' with
  | Some i ->
      let rest = String.sub delta_plan (i + 1) (String.length delta_plan - i - 1) in
      Alcotest.(check bool) "delta scanned first" true
        (Test_support.Helpers.contains
           (String.sub rest 0 (min 40 (String.length rest)))
           "scan \xce\x94")
  | None -> Alcotest.fail "plan has no lines");
  (* Explain commits nothing. *)
  Alcotest.(check int) "no commits from explain" now (Database.now s.db)

let test_explain_cartesian () =
  let s = cartesian_scenario () in
  ignore
    (Database.run s.db (fun txn ->
         Database.insert txn ~table:"x" (Tuple.ints [ 1 ]);
         Database.insert txn ~table:"y" (Tuple.ints [ 2 ])));
  let ctx = ctx_of s in
  Roll_capture.Capture.advance s.capture;
  Alcotest.(check bool) "nested loop shown" true
    (Test_support.Helpers.contains
       (C.Executor.explain ctx (C.Pquery.all_base 2))
       "nested-loop")

let suite =
  suite
  @ [
      Alcotest.test_case "explain plans" `Quick test_explain;
      Alcotest.test_case "explain cartesian" `Quick test_explain_cartesian;
    ]
