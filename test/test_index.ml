(* Secondary indexes: the hash index against a multiset model, maintenance
   under churn, executor index probing (same results, smaller footprints),
   auto-indexed controllers, and a propagation step that reads its window
   rather than its tables. *)

open Test_support.Helpers
open Roll_relation
module Time = Roll_delta.Time
module Table = Roll_storage.Table
module C = Roll_core

let qtest = QCheck_alcotest.to_alcotest

(* Every stored copy under [key], one list element per copy. *)
let probe_copies table ~columns key =
  Cursor.to_list (Table.probe_cursor table ~columns key)
  |> List.concat_map (fun (r : Cursor.row) -> List.init r.count (fun _ -> r.tuple))

let test_index_backfill_and_probe () =
  let s = two_table () in
  ignore
    (Database.run s.db (fun txn ->
         Database.insert txn ~table:"r" (Tuple.ints [ 1; 10 ]);
         Database.insert txn ~table:"r" (Tuple.ints [ 1; 20 ]);
         Database.insert txn ~table:"r" (Tuple.ints [ 2; 30 ]);
         (* duplicate copy *)
         Database.insert txn ~table:"r" (Tuple.ints [ 1; 10 ])));
  let table = Database.table s.db "r" in
  Table.create_index table ~columns:[ 0 ];
  Alcotest.(check bool) "has index" true (Table.has_index table ~columns:[ 0 ]);
  Alcotest.(check bool) "no other index" false (Table.has_index table ~columns:[ 1 ]);
  let probe k = probe_copies table ~columns:[ 0 ] (Tuple.ints [ k ]) in
  Alcotest.(check int) "key 1 copies" 3 (List.length (probe 1));
  Alcotest.(check int) "key 2 copies" 1 (List.length (probe 2));
  Alcotest.(check int) "key 9 absent" 0 (List.length (probe 9));
  Alcotest.(check int) "two keys held" 2 (Table.index_keys table ~columns:[ 0 ])

let test_index_maintained_by_commits () =
  let s = two_table () in
  let table = Database.table s.db "r" in
  Table.create_index table ~columns:[ 0 ];
  ignore (Database.run s.db (fun txn -> Database.insert txn ~table:"r" (Tuple.ints [ 5; 1 ])));
  ignore (Database.run s.db (fun txn -> Database.insert txn ~table:"r" (Tuple.ints [ 5; 2 ])));
  ignore (Database.run s.db (fun txn -> Database.delete txn ~table:"r" (Tuple.ints [ 5; 1 ])));
  let probe = probe_copies table ~columns:[ 0 ] (Tuple.ints [ 5 ]) in
  Alcotest.(check int) "one row left" 1 (List.length probe);
  Alcotest.check tuple "the right one" (Tuple.ints [ 5; 2 ]) (List.hd probe)

(* The index always agrees with the table contents, under random churn. *)
let prop_index_consistent =
  QCheck.Test.make ~name:"index agrees with contents under churn" ~count:25
    QCheck.small_int
    (fun seed ->
      let s = two_table () in
      let table = Database.table s.db "r" in
      Table.create_index table ~columns:[ 0 ];
      random_txns (Prng.create ~seed) s 60;
      let ok = ref true in
      for k = 0 to 8 do
        let probed = List.length (probe_copies table ~columns:[ 0 ] (Tuple.ints [ k ])) in
        let scanned =
          Relation.fold
            (fun tuple c acc ->
              if Value.equal (Tuple.get tuple 0) (Value.Int k) then acc + c else acc)
            (Table.contents table) 0
        in
        if probed <> scanned then ok := false
      done;
      !ok)

(* The memory index against a multiset model. Keys are Zipf-skewed, so a
   hot key holds many rows and many copies of one row; inserts add up to
   three copies, and deletes take a row down by one or all of its copies,
   often emptying a key. The index is created part-way, so both backfill
   and upkeep run. After every change each key's probe equals the table's
   rows under that key, with counts, and the index holds exactly the keys
   that still have rows. *)
let prop_hash_index_matches_model =
  QCheck.Test.make ~name:"hash index matches a multiset model" ~count:40
    QCheck.small_int
    (fun seed ->
      let rng = Prng.create ~seed in
      let n_keys = 12 in
      let zipf = Roll_util.Zipf.create ~n:n_keys ~theta:1.4 in
      let table =
        Table.create ~name:"t" (Schema.make [ int_col "k"; int_col "v" ])
      in
      let index_at = Prng.int rng 50 in
      let sorted rows = List.sort (fun (a, _) (b, _) -> Tuple.compare a b) rows in
      let agrees () =
        let live = Relation.to_list (Table.contents table) in
        let under k =
          List.filter (fun (t, _) -> Value.equal (Tuple.get t 0) (Value.Int k)) live
        in
        let probed k =
          Cursor.to_list (Table.probe_cursor table ~columns:[ 0 ] (Tuple.ints [ k ]))
          |> List.map (fun (r : Cursor.row) -> (r.tuple, r.count))
          |> sorted
        in
        let live_keys =
          List.length (List.sort_uniq compare (List.map (fun (t, _) -> Tuple.get t 0) live))
        in
        List.for_all (fun k -> probed k = under k) (List.init n_keys Fun.id)
        && Table.index_keys table ~columns:[ 0 ] = live_keys
      in
      let ok = ref true in
      for step = 0 to 199 do
        if step = index_at then Table.create_index table ~columns:[ 0 ];
        let live = Relation.to_list (Table.contents table) in
        (if live <> [] && Prng.chance rng 0.45 then
           let tuple, c = List.nth live (Prng.int rng (List.length live)) in
           let n = if Prng.bool rng then c else 1 + Prng.int rng c in
           Table.apply_change table tuple (-n)
         else
           let k = Roll_util.Zipf.sample zipf rng in
           Table.apply_change table (Tuple.ints [ k; Prng.int rng 3 ]) (1 + Prng.int rng 3));
        if step >= index_at && not (agrees ()) then ok := false
      done;
      !ok)

let test_index_validation () =
  let s = two_table () in
  let table = Database.table s.db "r" in
  Alcotest.(check bool) "bad column rejected" true
    (try
       Table.create_index table ~columns:[ 7 ];
       false
     with Invalid_argument _ -> true);
  (* Idempotent creation. *)
  Table.create_index table ~columns:[ 0 ];
  Table.create_index table ~columns:[ 0 ];
  Alcotest.(check int) "one index" 1 (List.length (Table.indexed_columns table))

let test_executor_uses_index () =
  (* A wide key space: probes fetch a few matching rows; a hash join has to
     materialize the whole table. *)
  let module W = Roll_workload.Nway in
  let run_with_index indexed =
    let w = W.create (W.config ~key_range:200 ~initial_rows:400 ~seed:180 ~n:2 ()) in
    W.load_initial w;
    W.churn w ~n:30;
    if indexed then
      Table.create_index (Database.table (W.db w) "t1") ~columns:[ 0 ];
    let ctx = C.Ctx.create ~t_initial:Time.origin (W.db w) (W.capture w) (W.view w) in
    Roll_capture.Capture.advance (W.capture w);
    let now = Database.now (W.db w) in
    let q =
      C.Pquery.replace (C.Pquery.all_base 2) 0 (C.Pquery.Win { lo = now - 5; hi = now })
    in
    let plan = C.Executor.explain ctx q in
    let rows, reads = C.Executor.evaluate ctx q in
    let net = Relation.create (C.View.output_schema (W.view w)) in
    List.iter (fun (t, c, _) -> Relation.add net t c) rows;
    (plan, net, List.assoc "t1" reads)
  in
  let plan_no, net_no, touched_no = run_with_index false in
  let plan_ix, net_ix, touched_ix = run_with_index true in
  Alcotest.(check bool) "hash join without index" true (contains plan_no "hash-join t1");
  Alcotest.(check bool) "index probe with index" true (contains plan_ix "index-probe t1");
  Alcotest.check relation "same results" net_no net_ix;
  Alcotest.(check bool)
    (Printf.sprintf "probing touches fewer rows (%d < %d)" touched_ix touched_no)
    true
    (touched_ix < touched_no)

(* A plain [Service.register] indexes every column the view equi-joins on
   when the store is in memory, and adds no paged index on disk; either
   way the view stays equal to the oracle. *)
let test_auto_indexed_controller_correct () =
  let join_columns = [ ("a", 0); ("b", 0); ("b", 1); ("c", 0) ] in
  List.iter
    (fun (mode, indexed) ->
      let s = three_table ~mode () in
      random_txns (Prng.create ~seed:181) s 30;
      let service = C.Service.create s.db s.capture in
      let controller =
        C.Service.register service s.view
          ~algorithm:(C.Controller.Rolling (C.Rolling.per_relation [| 3; 6; 10 |]))
      in
      List.iter
        (fun (table, column) ->
          Alcotest.(check bool)
            (Printf.sprintf "index on %s.%d" table column)
            indexed
            (Table.has_index (Database.table s.db table) ~columns:[ column ]))
        join_columns;
      if not indexed then
        List.iter
          (fun (table, _) ->
            Alcotest.(check int) (table ^ " has no index") 0
              (List.length (Table.indexed_columns (Database.table s.db table))))
          join_columns;
      random_txns (Prng.create ~seed:182) s 40;
      let t = C.Controller.refresh_latest controller in
      Alcotest.check relation "registered view = oracle"
        (C.Oracle.view_at s.history s.view t)
        (C.Controller.contents controller))
    [ (Roll_storage.Store.Mem, true); (Roll_storage.Store.Disk, false) ]

(* A memory-store service over a 3 000-fact star: after one fact commits,
   the drain reads the fact's window and its one dimension partner, not
   the 1 000-row dimension or the 3 000-row fact table. *)
let test_step_reads_window_not_table () =
  let db = Database.create ~mode:Roll_storage.Store.Mem () in
  let _ =
    Database.create_table db ~name:"fact"
      (Schema.make [ int_col "id"; int_col "dkey"; int_col "measure" ])
  in
  let _ =
    Database.create_table db ~name:"dim" (Schema.make [ int_col "key"; int_col "attr" ])
  in
  let capture = Roll_capture.Capture.create db in
  Roll_capture.Capture.attach capture ~table:"fact";
  Roll_capture.Capture.attach capture ~table:"dim";
  ignore
    (Database.run db (fun txn ->
         for k = 0 to 999 do
           Database.insert txn ~table:"dim" (Tuple.ints [ k; k mod 7 ])
         done));
  for batch = 0 to 29 do
    ignore
      (Database.run db (fun txn ->
           for i = 0 to 99 do
             let id = (batch * 100) + i in
             Database.insert txn ~table:"fact" (Tuple.ints [ id; id * 7 mod 1000; id mod 97 ])
           done))
  done;
  let b = C.View.binder db [ ("fact", "f"); ("dim", "d") ] in
  let view =
    C.View.create db ~name:"star"
      ~sources:[ ("fact", "f"); ("dim", "d") ]
      ~predicate:[ Predicate.join (b "f" "dkey") (b "d" "key") ]
      ~project:[ b "f" "id"; b "f" "measure"; b "d" "attr" ]
  in
  let service = C.Service.create db capture in
  let ctl =
    C.Service.register service view ~algorithm:(C.Controller.Rolling (C.Rolling.uniform 1))
  in
  let rows_read () =
    C.Counters.count (C.Controller.ctx ctl).C.Ctx.counters C.Counters.rows_read
  in
  let before = rows_read () in
  let t =
    Database.run db (fun txn -> Database.insert txn ~table:"fact" (Tuple.ints [ 5000; 42; 1 ]))
  in
  let rec drain n =
    if n = 0 then Alcotest.fail "drain made no progress"
    else if C.Controller.hwm ctl < t then begin
      (match C.Service.maintain service ~budget:64 with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "step error");
      drain (n - 1)
    end
  in
  drain 100;
  let read = rows_read () - before in
  Alcotest.(check bool) (Printf.sprintf "one-fact drain read %d rows (< 100)" read) true (read < 100);
  C.Service.refresh_all service;
  Alcotest.check relation "view = oracle"
    (C.Oracle.view_at (Roll_storage.History.create db) view (C.Controller.as_of ctl))
    (C.Controller.contents ctl)

(* Full theorem check with indexes on: the probed fast path must not change
   any timestamps or counts. *)
let prop_indexed_rolling_timed_delta =
  QCheck.Test.make ~name:"indexed rolling still a timed delta" ~count:15
    QCheck.small_int
    (fun seed ->
      let s = two_table () in
      Table.create_index (Database.table s.db "r") ~columns:[ 0 ];
      Table.create_index (Database.table s.db "s") ~columns:[ 0 ];
      random_txns (Prng.create ~seed) s 25;
      let ctx = ctx_of s in
      inject_updates (Prng.create ~seed:(seed + 8)) s ctx ~per_execute:2;
      let r = C.Rolling.create ctx ~t_initial:Time.origin in
      let target = Database.now s.db in
      C.Rolling.run_until r ~target ~policy:(C.Rolling.per_relation [| 3; 7 |]);
      match
        C.Oracle.check_timed_view_delta s.history s.view ctx.C.Ctx.out
          ~lo:Time.origin ~hi:(C.Rolling.hwm r)
      with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

let suite =
  [
    Alcotest.test_case "backfill and probe" `Quick test_index_backfill_and_probe;
    Alcotest.test_case "maintained by commits" `Quick test_index_maintained_by_commits;
    qtest prop_index_consistent;
    Alcotest.test_case "validation and idempotence" `Quick test_index_validation;
    Alcotest.test_case "executor uses index" `Quick test_executor_uses_index;
    Alcotest.test_case "auto-indexed controller" `Quick test_auto_indexed_controller_correct;
    qtest prop_indexed_rolling_timed_delta;
    Alcotest.test_case "propagation reads its window, not its tables" `Quick
      test_step_reads_window_not_table;
    qtest prop_hash_index_matches_model;
  ]
