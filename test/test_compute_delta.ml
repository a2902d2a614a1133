(* ComputeDelta (Figure 4) tests: Theorem 4.1 under heavy concurrency,
   query-count structure, error conditions, and the Section 3.3 timestamp
   examples reproduced literally. *)

open Test_support.Helpers
open Roll_relation
module Time = Roll_delta.Time
module Delta = Roll_delta.Delta
module C = Roll_core

let qtest = QCheck_alcotest.to_alcotest

(* Theorem 4.1 as a property: for random histories, interval choices and
   injected concurrent updates, the output is a timed delta table. *)
let prop_theorem_4_1 =
  QCheck.Test.make ~name:"theorem 4.1: ComputeDelta yields a timed delta"
    ~count:30
    QCheck.(pair small_int (int_range 0 3))
    (fun (seed, burst) ->
      let s = if seed mod 2 = 0 then two_table () else three_table () in
      let rng = Prng.create ~seed in
      random_txns rng s (10 + Prng.int rng 30);
      let lo = Prng.int rng (Database.now s.db / 2) in
      let hi = Prng.int_in rng ~lo:(lo + 1) ~hi:(Database.now s.db) in
      let ctx = ctx_of s in
      inject_updates (Prng.create ~seed:(seed + 1000)) s ctx ~per_execute:burst;
      C.Compute_delta.view_delta ctx ~lo ~hi;
      match C.Oracle.check_timed_view_delta s.history s.view ctx.C.Ctx.out ~lo ~hi with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

let test_no_updates_no_delta () =
  let s = two_table () in
  random_txns (Prng.create ~seed:40) s 10;
  let now = Database.now s.db in
  (* Consume some CSNs without touching the view's tables. *)
  for _ = 1 to 5 do
    ignore (Database.commit_marker s.db ~tag:"noise")
  done;
  let ctx = ctx_of s in
  C.Compute_delta.view_delta ctx ~lo:now ~hi:(Database.now s.db);
  Alcotest.(check int) "empty delta" 0 (Delta.length ctx.C.Ctx.out)

let test_future_target_rejected () =
  let s = two_table () in
  let ctx = ctx_of s in
  Alcotest.check_raises "future target"
    (Invalid_argument "ComputeDelta: target time has not elapsed yet")
    (fun () -> C.Compute_delta.view_delta ctx ~lo:0 ~hi:(Database.now s.db + 1))

let test_arity_mismatch_rejected () =
  let s = two_table () in
  let ctx = ctx_of s in
  Alcotest.check_raises "vector arity"
    (Invalid_argument "ComputeDelta: timestamp vector arity mismatch")
    (fun () -> C.Compute_delta.run ctx (C.Pquery.all_base 2) [| 0 |] 0)

(* Without concurrent updates, ComputeDelta for a 2-way view issues exactly
   the four queries of Equation 3. *)
let test_equation_3_query_structure () =
  let s = two_table () in
  random_txns (Prng.create ~seed:41) s 15;
  let ctx = ctx_of s in
  C.Ctx.keep_footprints ctx;
  (* Observe the full Figure 4 structure, without the empty-window skip. *)
  ctx.C.Ctx.skip_empty_windows <- false;
  C.Compute_delta.view_delta ctx ~lo:0 ~hi:(Database.now s.db);
  Alcotest.(check int) "four queries (Equation 3)" 4 (C.Counters.count ctx.C.Ctx.counters C.Counters.queries);
  let descriptions =
    List.map (fun (fp : C.Ctx.footprint) -> fp.description) (C.Ctx.footprints ctx)
  in
  (* Two positive forward queries, two negative compensations. *)
  let signs = List.map (fun d -> d.[0]) descriptions in
  Alcotest.(check (list char)) "signs" [ '+'; '-'; '+'; '-' ] signs

let count_queries n =
  (* Query count for an n-way view without concurrent updates. *)
  let db = Database.create () in
  let schema = Schema.make [ { Schema.name = "k"; ty = Value.T_int } ] in
  for i = 0 to n - 1 do
    ignore (Database.create_table db ~name:(Printf.sprintf "t%d" i) schema)
  done;
  let capture = Roll_capture.Capture.create db in
  for i = 0 to n - 1 do
    Roll_capture.Capture.attach capture ~table:(Printf.sprintf "t%d" i)
  done;
  let sources = List.init n (fun i -> (Printf.sprintf "t%d" i, Printf.sprintf "a%d" i)) in
  let b = C.View.binder db sources in
  let view =
    C.View.create db ~name:"v" ~sources
      ~predicate:
        (List.init (n - 1) (fun i ->
             Predicate.join
               (b (Printf.sprintf "a%d" i) "k")
               (b (Printf.sprintf "a%d" (i + 1)) "k")))
      ~project:[ b "a0" "k" ]
  in
  ignore (Database.run db (fun txn -> Database.insert txn ~table:"t0" (Tuple.ints [ 1 ])));
  let ctx = C.Ctx.create db capture view in
  ctx.C.Ctx.skip_empty_windows <- false;
  C.Compute_delta.view_delta ctx ~lo:0 ~hi:(Database.now db);
  C.Counters.count ctx.C.Ctx.counters C.Counters.queries

(* The recursion produces Sum_{i=1..n} 2^(i-1)... = 2^n - 1 plus the extra
   compensations of compensations; what matters here is determinism and
   growth, pinned as a regression. *)
let test_query_count_growth () =
  let q1 = count_queries 1 in
  let q2 = count_queries 2 in
  let q3 = count_queries 3 in
  let q4 = count_queries 4 in
  Alcotest.(check int) "n=1 needs one query" 1 q1;
  Alcotest.(check int) "n=2 needs four" 4 q2;
  Alcotest.(check bool) "monotone growth" true (q2 < q3 && q3 < q4)

(* Section 3.3, deletion example: r1 deleted from R1 at t_a, r2 deleted
   from R2 at t_b > t_a; the net view delta must delete r1r2 at t_a. *)
let test_section_3_3_deletions () =
  let s = two_table () in
  ignore
    (Database.run s.db (fun txn ->
         Database.insert txn ~table:"r" (Tuple.ints [ 1; 10 ]);
         Database.insert txn ~table:"s" (Tuple.ints [ 1; 20 ])));
  let t0 = Database.now s.db in
  ignore (Database.run s.db (fun txn -> Database.delete txn ~table:"r" (Tuple.ints [ 1; 10 ])));
  let t_a = Database.now s.db in
  ignore (Database.run s.db (fun txn -> Database.delete txn ~table:"s" (Tuple.ints [ 1; 20 ])));
  let ctx = ctx_of s in
  C.Compute_delta.view_delta ctx ~lo:t0 ~hi:(Database.now s.db);
  let net = Delta.net_effect ctx.C.Ctx.out ~lo:t0 ~hi:t_a in
  Alcotest.(check int) "deletion effective at t_a" (-1)
    (Relation.count net (Tuple.ints [ 1; 10; 20 ]))

(* Section 3.3, insertion example: x1 inserted at t_a, x2 at t_b > t_a; the
   insertion of x1x2 must take effect at t_b (not t_a). *)
let test_section_3_3_insertions () =
  let s = two_table () in
  let t0 = Database.now s.db in
  ignore (Database.run s.db (fun txn -> Database.insert txn ~table:"r" (Tuple.ints [ 2; 11 ])));
  let t_a = Database.now s.db in
  ignore (Database.run s.db (fun txn -> Database.insert txn ~table:"s" (Tuple.ints [ 2; 22 ])));
  let t_b = Database.now s.db in
  let ctx = ctx_of s in
  C.Compute_delta.view_delta ctx ~lo:t0 ~hi:t_b;
  let tuple = Tuple.ints [ 2; 11; 22 ] in
  let at_ta = Delta.net_effect ctx.C.Ctx.out ~lo:t0 ~hi:t_a in
  Alcotest.(check int) "not yet there at t_a" 0 (Relation.count at_ta tuple);
  let at_tb = Delta.net_effect ctx.C.Ctx.out ~lo:t0 ~hi:t_b in
  Alcotest.(check int) "inserted at t_b" 1 (Relation.count at_tb tuple)

(* A single-relation "join" degenerates to copying the delta window; no
   compensation is ever needed. *)
let test_single_relation_view () =
  let db = Database.create () in
  let schema = Schema.make [ { Schema.name = "k"; ty = Value.T_int } ] in
  let _ = Database.create_table db ~name:"t" schema in
  let capture = Roll_capture.Capture.create db in
  Roll_capture.Capture.attach capture ~table:"t";
  let b = C.View.binder db [ ("t", "t") ] in
  let view =
    C.View.create db ~name:"copy" ~sources:[ ("t", "t") ] ~predicate:[]
      ~project:[ b "t" "k" ]
  in
  ignore (Database.run db (fun txn -> Database.insert txn ~table:"t" (Tuple.ints [ 7 ])));
  let ctx = C.Ctx.create db capture view in
  C.Compute_delta.view_delta ctx ~lo:0 ~hi:(Database.now db);
  Alcotest.(check int) "one query" 1 (C.Counters.count ctx.C.Ctx.counters C.Counters.queries);
  Alcotest.(check int) "one row" 1 (Delta.length ctx.C.Ctx.out)

(* Consecutive ComputeDelta runs over adjacent intervals compose into a
   delta for the union interval (the basis for Propagate). *)
let test_adjacent_intervals_compose () =
  let s = two_table () in
  let rng = Prng.create ~seed:42 in
  random_txns rng s 20;
  let mid = Database.now s.db in
  random_txns rng s 20;
  let hi = Database.now s.db in
  let ctx = ctx_of s in
  C.Compute_delta.view_delta ctx ~lo:0 ~hi:mid;
  C.Compute_delta.view_delta ctx ~lo:mid ~hi;
  check_ok (C.Oracle.check_timed_view_delta s.history s.view ctx.C.Ctx.out ~lo:0 ~hi)

(* The empty-window skip is a pure optimization: same delta with and
   without it. *)
let test_skip_ablation_equivalence () =
  let run skip =
    let s = two_table () in
    random_txns (Prng.create ~seed:43) s 25;
    let ctx = ctx_of s in
    ctx.C.Ctx.skip_empty_windows <- skip;
    C.Compute_delta.view_delta ctx ~lo:0 ~hi:(Database.now s.db);
    (ctx, Database.now s.db)
  in
  let ctx_skip, t = run true in
  let ctx_full, _ = run false in
  for b = 1 to t do
    if
      not
        (Relation.equal
           (Delta.net_effect ctx_skip.C.Ctx.out ~lo:0 ~hi:b)
           (Delta.net_effect ctx_full.C.Ctx.out ~lo:0 ~hi:b))
    then Alcotest.failf "prefix %d differs with skip on/off" b
  done;
  Alcotest.(check bool) "skip saves queries" true
    (C.Counters.count ctx_skip.C.Ctx.counters C.Counters.queries < C.Counters.count ctx_full.C.Ctx.counters C.Counters.queries)

let suite =
  [
    qtest prop_theorem_4_1;
    Alcotest.test_case "empty-window skip is equivalent" `Quick
      test_skip_ablation_equivalence;
    Alcotest.test_case "quiet interval yields empty delta" `Quick test_no_updates_no_delta;
    Alcotest.test_case "future target rejected" `Quick test_future_target_rejected;
    Alcotest.test_case "arity mismatch rejected" `Quick test_arity_mismatch_rejected;
    Alcotest.test_case "Equation 3 query structure" `Quick test_equation_3_query_structure;
    Alcotest.test_case "query count growth with n" `Quick test_query_count_growth;
    Alcotest.test_case "Section 3.3 deletion timing" `Quick test_section_3_3_deletions;
    Alcotest.test_case "Section 3.3 insertion timing" `Quick test_section_3_3_insertions;
    Alcotest.test_case "single-relation view" `Quick test_single_relation_view;
    Alcotest.test_case "adjacent intervals compose" `Quick test_adjacent_intervals_compose;
  ]
