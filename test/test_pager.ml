(* The paged store, bottom-up: pager pages and meta snapshots, block-cache
   residency and write-back, the page-addressed B-tree against a model,
   segmented WAL rotation/torn tails/reclaim, and finally whole-database
   crash recovery at every storage fault point plus the service-level
   segment GC. Everything runs against explicit temp files/dirs, so the
   suite is independent of ROLL_STORE. *)

open Test_support.Helpers
module Fault = Roll_util.Fault
module Relation = Roll_relation.Relation
module Tuple = Roll_relation.Tuple
module Schema = Roll_relation.Schema
module Predicate = Roll_relation.Predicate
module Pager = Roll_storage.Pager
module Block_cache = Roll_storage.Block_cache
module Paged_btree = Roll_storage.Paged_btree
module Wal_store = Roll_storage.Wal_store
module Store = Roll_storage.Store
module Wal = Roll_storage.Wal

let tmp_path suffix =
  let path = Filename.temp_file "rolltest" suffix in
  Sys.remove path;
  path

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter
        (fun name -> remove_tree (Filename.concat path name))
        (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_dir f =
  let dir = tmp_path ".db" in
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

let with_file f =
  let path = tmp_path ".pages" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let corrupt_byte path ~off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "?") 0 1);
  Unix.close fd

(* --- pager --- *)

let test_pager_round_trip () =
  with_file @@ fun path ->
  let p = Pager.create ~page_size:512 path in
  let a = Pager.alloc p and b = Pager.alloc p in
  Pager.write p a (Bytes.of_string "alpha");
  Pager.write p b (Bytes.of_string (String.make 400 'b'));
  Pager.barrier p ~data_csn:7 ~catalog:"cat v1";
  Pager.close p;
  let p2 = Pager.create ~page_size:512 path in
  Alcotest.(check int) "data_csn survives" 7 (Pager.data_csn p2);
  Alcotest.(check string) "catalog survives" "cat v1" (Pager.catalog p2);
  Alcotest.(check string) "page a survives" "alpha"
    (Bytes.to_string (Pager.read p2 a));
  Alcotest.(check string) "page b survives" (String.make 400 'b')
    (Bytes.to_string (Pager.read p2 b));
  (* A freed durable page waits on [pending_free] until the next barrier
     commits a snapshot that no longer references it. *)
  Pager.free p2 a;
  Alcotest.(check int) "pending free counted" 1 (Pager.free_count p2);
  let c = Pager.alloc p2 in
  Alcotest.(check bool) "alloc extends rather than reuse pending" true (c <> a);
  Pager.barrier p2 ~data_csn:8 ~catalog:"cat v2";
  let d = Pager.alloc p2 in
  Alcotest.(check int) "freed page reused after the barrier" a d;
  (* A fresh page never made durable recycles immediately. *)
  Pager.free p2 d;
  Alcotest.(check int) "fresh page recycles without a barrier" d
    (Pager.alloc p2);
  Pager.close p2

let test_pager_corruption_and_meta_fallback () =
  with_file @@ fun path ->
  let p = Pager.create ~page_size:512 path in
  let a = Pager.alloc p in
  Pager.write p a (Bytes.of_string "payload");
  Pager.barrier p ~data_csn:1 ~catalog:"epoch one";
  (* epoch 2 lands in the alternate meta slot (slot 0). *)
  Pager.barrier p ~data_csn:2 ~catalog:"epoch two";
  Pager.close p;
  (* Flip one payload byte of page [a]: the CRC must catch it. *)
  corrupt_byte path ~off:((a * 512) + 8);
  let p2 = Pager.create ~page_size:512 path in
  Alcotest.check_raises "corrupt page detected"
    (Pager.Corrupt (Printf.sprintf "page %d: CRC mismatch" a)) (fun () ->
      ignore (Pager.read p2 a));
  Pager.close p2;
  (* Tear the newer meta slot (epoch 2 lives in page 0): reopen falls
     back to epoch one — crash-during-meta-flip semantics. *)
  corrupt_byte path ~off:8;
  let p3 = Pager.create ~page_size:512 path in
  Alcotest.(check string) "older snapshot wins over a torn meta" "epoch one"
    (Pager.catalog p3);
  Alcotest.(check int) "and its csn" 1 (Pager.data_csn p3);
  Pager.close p3

(* --- block cache --- *)

let test_block_cache () =
  with_file @@ fun path ->
  let p = Pager.create ~page_size:512 path in
  let cache = Block_cache.create ~capacity:4 p in
  let pages =
    List.init 10 (fun i ->
        let id = Pager.alloc p in
        Block_cache.write cache id
          (Bytes.of_string (Printf.sprintf "page-%d" i));
        (id, Printf.sprintf "page-%d" i))
  in
  Alcotest.(check bool) "residency capped" true
    (Block_cache.resident cache <= 4);
  Alcotest.(check bool) "evictions happened" true
    (Block_cache.evictions cache > 0);
  Alcotest.(check bool) "dirty evictions wrote back" true
    (Block_cache.writebacks cache > 0);
  (* Every page is readable through the cache, evicted or not. *)
  List.iter
    (fun (id, expect) ->
      Alcotest.(check string) "cached read" expect
        (Bytes.to_string (Block_cache.read cache id)))
    pages;
  Block_cache.flush cache;
  Alcotest.(check int) "flush leaves nothing dirty" 0
    (Block_cache.dirty_count cache);
  Pager.barrier p ~data_csn:1 ~catalog:"";
  Pager.close p;
  (* Everything is readable straight off the pager after the barrier. *)
  let p2 = Pager.create ~page_size:512 path in
  List.iter
    (fun (id, expect) ->
      Alcotest.(check string) "durable read" expect
        (Bytes.to_string (Pager.read p2 id)))
    pages;
  Pager.close p2;
  (* The CLOCK policy also bounds residency and serves the same bytes. *)
  let p3 = Pager.create ~page_size:512 path in
  let clock = Block_cache.create ~policy:Block_cache.Clock ~capacity:3 p3 in
  List.iter
    (fun (id, expect) ->
      Alcotest.(check string) "clock read" expect
        (Bytes.to_string (Block_cache.read clock id)))
    (pages @ List.rev pages);
  Alcotest.(check bool) "clock residency capped" true
    (Block_cache.resident clock <= 3);
  Alcotest.(check bool) "clock saw hits" true (Block_cache.hits clock > 0);
  Pager.close p3

(* --- paged B-tree vs. a model --- *)

let tuple_of i = Tuple.ints [ i mod 23; i ]

let test_paged_btree_model () =
  with_file @@ fun path ->
  let pager = Pager.create ~page_size:512 path in
  (* A tiny cache, so splits constantly spill through eviction. *)
  let cache = Block_cache.create ~capacity:8 pager in
  let ctx = Paged_btree.make_ctx pager cache in
  let tree = Paged_btree.create ctx in
  let model : (Tuple.t, int) Hashtbl.t = Hashtbl.create 64 in
  let model_count key =
    match Hashtbl.find_opt model key with Some n -> n | None -> 0
  in
  let rng = Prng.create ~seed:42 in
  for step = 1 to 2_000 do
    let key = tuple_of (Prng.int rng 400) in
    let current = model_count key in
    let delta =
      if current > 0 && Prng.chance rng 0.4 then -(1 + Prng.int rng current)
      else 1 + Prng.int rng 3
    in
    let prev = Paged_btree.add tree key delta in
    Alcotest.(check int) "add returns the previous count" current prev;
    let next = current + delta in
    if next = 0 then Hashtbl.remove model key
    else Hashtbl.replace model key next;
    if step mod 500 = 0 then Paged_btree.check_invariants tree
  done;
  let expected =
    Hashtbl.fold (fun k n acc -> (k, n) :: acc) model []
    |> List.sort (fun (a, _) (b, _) -> Tuple.compare a b)
  in
  let actual = List.of_seq (Paged_btree.seq tree) in
  Alcotest.(check int) "same cardinality" (List.length expected)
    (List.length actual);
  List.iter2
    (fun (ek, en) (k, n) ->
      Alcotest.check tuple "keys in order" ek k;
      Alcotest.(check int) "counts agree" en n)
    expected actual;
  (* seq_from starts at the first key >= the probe. *)
  let mid = tuple_of 200 in
  let expected_mid =
    List.filter (fun (k, _) -> Tuple.compare k mid >= 0) expected
  in
  Alcotest.(check int) "seq_from length" (List.length expected_mid)
    (List.length (List.of_seq (Paged_btree.seq_from tree mid)));
  (* Point lookups. *)
  List.iter
    (fun (k, n) -> Alcotest.(check int) "get" n (Paged_btree.get tree k))
    expected;
  Alcotest.(check int) "absent key" 0 (Paged_btree.get tree (tuple_of 401));
  (* Reachable tree pages plus the free lists account for every data page:
     COW never leaks a page. *)
  let live = List.length (Paged_btree.reachable tree) in
  Alcotest.(check int) "reachable + free covers the file"
    (Pager.n_pages pager - 2)
    (live + Pager.free_count pager);
  Paged_btree.clear tree;
  Alcotest.(check bool) "clear empties" true (Paged_btree.is_empty tree);
  Pager.close pager

(* --- segmented WAL --- *)

let mk_record csn =
  {
    Wal.csn;
    txn_id = csn;
    wall = float_of_int csn;
    changes =
      [ { Wal.table = "r"; tuple = Tuple.ints [ csn; csn * 2 ]; count = 1 } ];
    marker = None;
  }

let csns (recovery : Wal_store.recovery) =
  List.map (fun (r : Wal.record) -> r.Wal.csn) recovery.Wal_store.records

let test_wal_store_rotation_and_recovery () =
  with_dir @@ fun dir ->
  let r = Wal_store.open_dir ~segment_records:4 dir in
  let store = r.Wal_store.store in
  for csn = 1 to 10 do
    Wal_store.append store (mk_record csn)
  done;
  Wal_store.sync store;
  Alcotest.(check int) "10 records, 4 per segment: 3 live" 3
    (Wal_store.live_segments store);
  (* Reopen: ordered replay across segments. *)
  let r2 = Wal_store.open_dir ~segment_records:4 dir in
  Alcotest.(check (list int)) "all records, in order"
    (List.init 10 (fun i -> i + 1))
    (csns r2);
  Alcotest.(check bool) "no torn tail" true (r2.Wal_store.torn = None);
  (* A torn tail in the active segment: record body, no terminator. *)
  let active, _, _ =
    List.hd (List.rev (Wal_store.segments r2.Wal_store.store))
  in
  let oc = open_out_gen [ Open_append ] 0o644 (Filename.concat dir active) in
  output_string oc "R 11 11 0x1.6p+3\nC \"r\" 1 2\n";
  close_out oc;
  let r3 = Wal_store.open_dir ~segment_records:4 dir in
  Alcotest.(check (list int)) "torn record dropped"
    (List.init 10 (fun i -> i + 1))
    (csns r3);
  Alcotest.(check bool) "torn tail reported" true (r3.Wal_store.torn <> None);
  (* A deleted manifest is survivable: the directory scan is authoritative. *)
  Sys.remove (Filename.concat dir "MANIFEST");
  let r4 = Wal_store.open_dir ~segment_records:4 dir in
  Alcotest.(check int) "segments adopted from the scan" 10
    (List.length r4.Wal_store.records);
  (* A hole in the middle is corruption, not a torn tail. *)
  let first_seg, _, _ = List.hd (Wal_store.segments r4.Wal_store.store) in
  Sys.remove (Filename.concat dir first_seg);
  Alcotest.(check bool) "missing middle segment refuses to load" true
    (match Wal_store.open_dir ~segment_records:4 dir with
    | exception Wal_store.Corrupt _ -> true
    | _ -> false)

let test_wal_store_reclaim () =
  with_dir @@ fun dir ->
  let r = Wal_store.open_dir ~segment_records:4 dir in
  let store = r.Wal_store.store in
  for csn = 1 to 10 do
    Wal_store.append store (mk_record csn)
  done;
  (* Only segments entirely below the cut go: [1-4] for upto=7 (segment
     [5-8] still holds csn 8), then [5-8] once upto reaches 8. *)
  Alcotest.(check int) "upto=7 deletes one segment" 1
    (Wal_store.reclaim store ~upto:7);
  Alcotest.(check int) "upto=8 deletes the second" 1
    (Wal_store.reclaim store ~upto:8);
  Alcotest.(check int) "only the active segment lives" 1
    (Wal_store.live_segments store);
  Alcotest.(check (pair int int)) "reclaim ledger" (2, 8)
    (Wal_store.reclaimed store);
  (* Reopen: the ledger survives, replay starts after the cut. *)
  let r2 = Wal_store.open_dir ~segment_records:4 dir in
  Alcotest.(check (list int)) "only the tail remains" [ 9; 10 ] (csns r2);
  Alcotest.(check (pair int int)) "ledger survives reopen" (2, 8)
    (Wal_store.reclaimed r2.Wal_store.store)

(* Both reclaim crash windows: before the manifest commit nothing is
   reclaimed yet and replay is total; after the commit but before the
   unlinks, stale segments overlap the ledger and recovery must skip
   and delete them rather than report a CSN gap. *)
let test_wal_store_reclaim_crash_windows () =
  let filled dir =
    let r = Wal_store.open_dir ~segment_records:4 dir in
    let store = r.Wal_store.store in
    for csn = 1 to 10 do
      Wal_store.append store (mk_record csn)
    done;
    store
  in
  with_dir (fun dir ->
      let store = filled dir in
      (try
         ignore
           (Wal_store.reclaim
              ~fault:(Fault.crash_at "walseg.manifest" ~hit:1)
              store ~upto:8)
       with Fault.Crash _ -> ());
      let r2 = Wal_store.open_dir ~segment_records:4 dir in
      Alcotest.(check (list int)) "crash before manifest commit loses nothing"
        (List.init 10 (fun i -> i + 1))
        (csns r2);
      Alcotest.(check (pair int int)) "ledger untouched" (0, 0)
        (Wal_store.reclaimed r2.Wal_store.store));
  with_dir (fun dir ->
      let store = filled dir in
      (try
         ignore
           (Wal_store.reclaim
              ~fault:(Fault.crash_at "walseg.reclaim" ~hit:1)
              store ~upto:8)
       with Fault.Crash _ -> ());
      let r2 = Wal_store.open_dir ~segment_records:4 dir in
      Alcotest.(check (list int)) "stale segments skipped" [ 9; 10 ] (csns r2);
      Alcotest.(check (pair int int)) "ledger survived the crash" (2, 8)
        (Wal_store.reclaimed r2.Wal_store.store);
      let wal_files =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun n -> Wal_store.segment_number n <> None)
      in
      Alcotest.(check int) "stale segment files deleted" 1
        (List.length wal_files))

(* --- whole-database crash recovery on the paged store --- *)

let r_schema = Schema.make [ int_col "k"; int_col "v" ]

let disk_db dir =
  let db = Database.create ~mode:Store.Disk ~dir () in
  let _ = Database.create_table db ~name:"r" r_schema in
  db

(* Deterministic little history: txn [i] inserts (i mod 5, i) and every
   third txn also deletes the row from two txns ago. *)
let commit_txn db i =
  Database.run db (fun txn ->
      Database.insert txn ~table:"r" (Tuple.ints [ i mod 5; i ]);
      if i mod 3 = 0 && i > 2 then
        Database.delete txn ~table:"r" (Tuple.ints [ (i - 2) mod 5; i - 2 ]))

let expected_relation upto =
  let r = Relation.create r_schema in
  for i = 1 to upto do
    Relation.add r (Tuple.ints [ i mod 5; i ]) 1;
    if i mod 3 = 0 && i > 2 then
      Relation.add r (Tuple.ints [ (i - 2) mod 5; i - 2 ]) (-1)
  done;
  r

let crash_then_recover ~point ~hit =
  with_dir @@ fun dir ->
  Unix.putenv "ROLL_SEGMENT_RECORDS" "4";
  Fun.protect ~finally:(fun () -> Unix.putenv "ROLL_SEGMENT_RECORDS" "")
  @@ fun () ->
  let db = disk_db dir in
  Database.set_storage_fault db (Fault.crash_at point ~hit);
  let committed = ref 0 in
  let crashed = ref false in
  (try
     for i = 1 to 40 do
       ignore (commit_txn db i);
       committed := i;
       (* Periodic flush barriers move data_csn, so recovery exercises
          both the below-snapshot and above-snapshot replay paths — and
          they are the only reach of the sync/write-back fault points. *)
       if i mod 10 = 0 then Database.sync db
     done
   with Fault.Crash _ -> crashed := true);
  Alcotest.(check bool)
    (Printf.sprintf "%s#%d fired within 40 txns" point hit)
    true !crashed;
  (* The crashed process is abandoned; reopen the directory cold. *)
  let db2 = disk_db dir in
  Alcotest.(check bool) "recovery pending on reopen" true
    (Database.has_pending_recovery db2);
  Database.recover_pending db2;
  (* Durable-first append: the recovered log is exactly the commits that
     returned before the crash. *)
  Alcotest.(check int)
    (Printf.sprintf "crash at %s: durable history = committed prefix" point)
    !committed (Database.now db2);
  Alcotest.check relation
    (Printf.sprintf "crash at %s: recovered contents" point)
    (expected_relation !committed)
    (Table.contents (Database.table db2 "r"));
  (* The recovered database keeps working and stays durable. *)
  for i = !committed + 1 to !committed + 4 do
    ignore (commit_txn db2 i)
  done;
  Database.sync db2;
  let db3 = disk_db dir in
  Database.recover_pending db3;
  Alcotest.check relation "round two: recovered after more commits"
    (expected_relation (!committed + 4))
    (Table.contents (Database.table db3 "r"))

let test_crash_recovery_all_points () =
  (* walseg.record/terminator crash mid-append (the latter leaves a torn
     tail); walseg.rotate and walseg.manifest crash the segment-rotation
     boundary; walseg.sync dies at the WAL fsync; cache.writeback dies
     between dirty-page write-back and the meta flip. *)
  List.iter
    (fun (point, hit) -> crash_then_recover ~point ~hit)
    [
      ("walseg.record", 3);
      ("walseg.terminator", 5);
      ("walseg.rotate", 2);
      ("walseg.manifest", 3);
      ("walseg.sync", 1);
      ("cache.writeback", 1);
    ]

let test_torn_tail_reported () =
  with_dir @@ fun dir ->
  let db = disk_db dir in
  Database.set_storage_fault db (Fault.crash_at "walseg.terminator" ~hit:4);
  (try
     for i = 1 to 10 do
       ignore (commit_txn db i)
     done
   with Fault.Crash _ -> ());
  let db2 = disk_db dir in
  Alcotest.(check bool) "torn tail surfaced to the reopened database" true
    (Database.recovery_torn db2 <> None);
  Database.recover_pending db2;
  Alcotest.check relation "torn record dropped, prefix intact"
    (expected_relation 3)
    (Table.contents (Database.table db2 "r"))

(* A crash inside [reclaim_wal]'s post-manifest window, through the
   whole database stack: the reopened store must tolerate the stale
   segments and replay the surviving history. *)
let test_db_reclaim_crash_recovers () =
  with_dir @@ fun dir ->
  Unix.putenv "ROLL_SEGMENT_RECORDS" "4";
  Fun.protect ~finally:(fun () -> Unix.putenv "ROLL_SEGMENT_RECORDS" "")
  @@ fun () ->
  let db = disk_db dir in
  for i = 1 to 20 do
    ignore (commit_txn db i)
  done;
  Database.sync db;
  Database.set_storage_fault db (Fault.crash_at "walseg.reclaim" ~hit:1);
  let crashed = ref false in
  (try ignore (Database.reclaim_wal db ~upto:10) with Fault.Crash _ -> crashed := true);
  Alcotest.(check bool) "crash fired in the reclaim window" true !crashed;
  let db2 = disk_db dir in
  Database.recover_pending db2;
  Alcotest.(check int) "durable history intact" 20 (Database.now db2);
  Alcotest.check relation "contents intact across the reclaim crash"
    (expected_relation 20)
    (Table.contents (Database.table db2 "r"))

(* --- service-level segment GC --- *)

let disk_scenario dir =
  let db = Database.create ~mode:Store.Disk ~dir () in
  let _ = Database.create_table db ~name:"r" r_schema in
  let _ =
    Database.create_table db ~name:"s"
      (Schema.make [ int_col "k"; int_col "w" ])
  in
  let capture = Capture.create db in
  Capture.attach capture ~table:"r";
  Capture.attach capture ~table:"s";
  let b = C.View.binder db [ ("r", "r"); ("s", "s") ] in
  let view =
    C.View.create db ~name:"rs"
      ~sources:[ ("r", "r"); ("s", "s") ]
      ~predicate:[ Predicate.join (b "r" "k") (b "s" "k") ]
      ~project:[ b "r" "k"; b "r" "v"; b "s" "w" ]
  in
  { db; capture; history = History.create db; view }

let test_service_gc_reclaims_segments () =
  with_dir @@ fun dir ->
  Unix.putenv "ROLL_SEGMENT_RECORDS" "8";
  Fun.protect ~finally:(fun () -> Unix.putenv "ROLL_SEGMENT_RECORDS" "")
  @@ fun () ->
  let s = disk_scenario dir in
  let service = C.Service.create ~gc_threshold:1 s.db s.capture in
  let ctl =
    C.Service.register service
      ~algorithm:(C.Controller.Rolling (C.Rolling.uniform 3))
      s.view
  in
  let rng = Prng.create ~seed:11 in
  random_txns rng s 60;
  (match C.Service.maintain service ~budget:10_000 with
  | Ok _ -> ()
  | Error (e : C.Service.step_error) ->
      Alcotest.failf "maintain failed: %s at %s" e.view e.point);
  let before = Database.live_segments s.db in
  Alcotest.(check bool) "many live segments before gc" true (before > 2);
  (* Segment reclaim is clamped to the durable data snapshot, so nothing
     can go before a flush barrier lands. *)
  Alcotest.(check int) "no reclaim before a sync" 0
    (C.Service.reclaim_wal service);
  Database.sync s.db;
  (* Roll the stored view forward so the applied delta is prunable, then
     gc: the horizon advances and the WAL prefix becomes reclaimable. *)
  C.Service.refresh_all service;
  ignore (C.Service.gc_all service);
  Alcotest.(check bool) "gc deleted wal segments" true
    (Database.live_segments s.db < before);
  Alcotest.(check bool) "wal base advanced" true (Database.wal_base s.db > 0);
  Alcotest.(check bool) "reclaim visible in storage_json" true
    (contains (Roll_util.Json.to_string (Database.storage_json s.db)) "\"reclaimed_segments\"");
  (* History now replays from the reclaimed base state: the oracle must
     still agree with the controller, and must refuse reclaimed times. *)
  random_txns rng s 30;
  (match C.Service.maintain service ~budget:10_000 with
  | Ok _ -> ()
  | Error (e : C.Service.step_error) ->
      Alcotest.failf "maintain failed: %s at %s" e.view e.point);
  C.Controller.refresh_to ctl (C.Controller.hwm ctl);
  Alcotest.check relation "post-reclaim contents match the oracle"
    (C.Oracle.view_at s.history s.view (C.Controller.as_of ctl))
    (C.Controller.contents ctl);
  let base = Database.wal_base s.db in
  Alcotest.(check bool) "history refuses reclaimed times" true
    (match History.state_at s.history ~table:"r" (base - 1) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  C.Service.shutdown service

let suite =
  [
    Alcotest.test_case "pager pages round-trip and recycle" `Quick
      test_pager_round_trip;
    Alcotest.test_case "pager detects corruption, falls back across metas"
      `Quick test_pager_corruption_and_meta_fallback;
    Alcotest.test_case "block cache bounds residency and writes back" `Quick
      test_block_cache;
    Alcotest.test_case "paged btree matches a model under eviction" `Quick
      test_paged_btree_model;
    Alcotest.test_case "wal segments rotate, recover, tolerate torn tails"
      `Quick test_wal_store_rotation_and_recovery;
    Alcotest.test_case "wal segment reclaim and ledger" `Quick
      test_wal_store_reclaim;
    Alcotest.test_case "wal reclaim crash windows recover" `Quick
      test_wal_store_reclaim_crash_windows;
    Alcotest.test_case "database survives a crash mid-reclaim" `Quick
      test_db_reclaim_crash_recovers;
    Alcotest.test_case "disk crash recovery at every storage fault point"
      `Quick test_crash_recovery_all_points;
    Alcotest.test_case "torn tail reported and dropped" `Quick
      test_torn_tail_reported;
    Alcotest.test_case "service gc reclaims wal segments" `Quick
      test_service_gc_reclaims_segments;
  ]
