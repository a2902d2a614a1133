(* Crash-recovery: fault-point instrumentation, WAL-backed frontier
   recovery round trips, torn-checkpoint fallback, and the randomized
   oracle-equivalence harness (Test_support.Fault_harness). *)

open Test_support.Helpers
module Harness = Test_support.Fault_harness
module Fault = Roll_util.Fault
module Wal_codec = Roll_storage.Wal_codec

let with_temp_file f =
  let path = Filename.temp_file "rollfault" ".ckpt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let rolling_algo = C.Controller.Rolling (C.Rolling.uniform 6)

let durable_frontier s =
  Harness.durable_frontier 0 s.db s.view

let recover_fresh ?checkpoint s ~algorithm =
  let s2 = Harness.restart two_table s.db in
  (s2, C.Controller.recover ?checkpoint s2.db s2.capture s2.view ~algorithm)

let check_matches_durable msg durable ctl2 ~vectors =
  Alcotest.(check int) (msg ^ ": hwm") durable.C.Frontier.hwm (C.Controller.hwm ctl2);
  Alcotest.(check int) (msg ^ ": as_of") durable.C.Frontier.as_of (C.Controller.as_of ctl2);
  if vectors then
    Alcotest.(check (array int)) (msg ^ ": tfwd") durable.C.Frontier.tfwd
      (C.Controller.frontier ctl2).C.Frontier.tfwd

let finish_and_check s2 ctl2 =
  ignore (C.Controller.refresh_latest ctl2);
  Alcotest.check relation "final contents match oracle"
    (C.Oracle.view_at s2.history s2.view (C.Controller.as_of ctl2))
    (C.Controller.contents ctl2)

(* Kill the process between propagation (delta rows derived from the WAL)
   and apply: the durable frontier still carries the old apply position,
   and recovery restores exactly it. *)
let test_crash_between_propagate_and_apply () =
  let s = two_table () in
  let rng = Prng.create ~seed:200 in
  random_txns rng s 10;
  let ctl =
    C.Controller.create ~durable:true s.db s.capture s.view ~algorithm:rolling_algo
  in
  random_txns rng s 20;
  C.Controller.propagate_until ctl (Database.now s.db);
  (C.Controller.ctx ctl).C.Ctx.fault <- Fault.crash_at "apply.roll" ~hit:1;
  (try
     ignore (C.Controller.refresh_latest ctl);
     Alcotest.fail "expected crash before apply"
   with Fault.Crash ("apply.roll", 1) -> ());
  let durable = durable_frontier s in
  Alcotest.(check bool) "apply never became durable" true
    (durable.C.Frontier.as_of < durable.C.Frontier.hwm);
  let s2, ctl2 = recover_fresh s ~algorithm:rolling_algo in
  check_matches_durable "recovered" durable ctl2 ~vectors:true;
  (* Memory indexes die with the process; recovery builds them again. *)
  if Database.store s2.db = None then
    List.iter
      (fun table ->
        Alcotest.(check bool) (table ^ ".k indexed after recovery") true
          (Table.has_index (Database.table s2.db table) ~columns:[ 0 ]))
      [ "r"; "s" ];
  finish_and_check s2 ctl2

(* Kill the process between a forward query and its compensation: the
   half-done step was never recorded, so recovery lands on the frontier of
   the last complete step, and re-runs the step's work without
   double-counting the crashed attempt's emissions (they died with the
   process). *)
let test_crash_between_forward_and_compensation () =
  let s = two_table () in
  let rng = Prng.create ~seed:201 in
  random_txns rng s 25;
  let ctl =
    C.Controller.create ~durable:true s.db s.capture s.view ~algorithm:rolling_algo
  in
  random_txns rng s 15;
  (C.Controller.ctx ctl).C.Ctx.fault <- Fault.crash_at "rolling.post_forward" ~hit:3;
  let before_crash = ref (C.Controller.frontier ctl) in
  (try
     while C.Controller.propagate_step ctl do
       before_crash := C.Controller.frontier ctl
     done;
     Alcotest.fail "expected crash mid-step"
   with Fault.Crash ("rolling.post_forward", 3) -> ());
  let durable = durable_frontier s in
  Alcotest.(check (array int)) "durable frontier is the last completed step's"
    !before_crash.C.Frontier.tfwd durable.C.Frontier.tfwd;
  let s2, ctl2 = recover_fresh s ~algorithm:rolling_algo in
  check_matches_durable "recovered" durable ctl2 ~vectors:true;
  check_ok
    (C.Oracle.check_timed_view_delta s2.history s2.view
       (C.Controller.ctx ctl2).C.Ctx.out
       ~lo:(C.Controller.as_of ctl2) ~hi:(C.Controller.hwm ctl2));
  finish_and_check s2 ctl2

(* A clean checkpoint short-circuits recovery: resume from the snapshot,
   then replay only the trajectory recorded after it. *)
let test_recover_from_checkpoint () =
  let s = two_table () in
  let rng = Prng.create ~seed:202 in
  random_txns rng s 20;
  let ctl =
    C.Controller.create ~durable:true s.db s.capture s.view ~algorithm:rolling_algo
  in
  random_txns rng s 12;
  C.Controller.propagate_until ctl (Database.now s.db);
  ignore (C.Controller.refresh_latest ctl);
  with_temp_file (fun path ->
      C.Controller.checkpoint ctl path;
      (* Keep going after the snapshot, then die mid-step. *)
      random_txns rng s 12;
      (C.Controller.ctx ctl).C.Ctx.fault <-
        Fault.crash_at "rolling.post_forward" ~hit:2;
      (try
         while C.Controller.propagate_step ctl do () done;
         Alcotest.fail "expected crash"
       with Fault.Crash _ -> ());
      let durable = durable_frontier s in
      let s2, ctl2 = recover_fresh ~checkpoint:path s ~algorithm:rolling_algo in
      check_matches_durable "recovered via checkpoint" durable ctl2 ~vectors:true;
      finish_and_check s2 ctl2)

(* A crash mid-checkpoint leaves a torn file; resume refuses it (even when
   the cut lands exactly on a row boundary, thanks to the trailer) and
   recovery falls back to WAL-only replay. *)
let test_torn_checkpoint_falls_back () =
  let s = two_table () in
  let rng = Prng.create ~seed:203 in
  random_txns rng s 25;
  let ctl =
    C.Controller.create ~durable:true s.db s.capture s.view ~algorithm:rolling_algo
  in
  random_txns rng s 15;
  C.Controller.propagate_until ctl (Database.now s.db);
  ignore (C.Controller.refresh_latest ctl);
  with_temp_file (fun path ->
      (* The crash fires before writing the 4th row: the file ends cleanly
         at a row boundary but without the trailer. *)
      (C.Controller.ctx ctl).C.Ctx.fault <- Fault.crash_at "ckpt.row" ~hit:4;
      (try
         C.Controller.checkpoint ctl path;
         Alcotest.fail "expected crash mid-checkpoint"
       with Fault.Crash ("ckpt.row", 4) -> ());
      let durable = durable_frontier s in
      (* The torn snapshot is rejected outright... *)
      let s_probe = Harness.restart two_table s.db in
      Alcotest.(check bool) "torn checkpoint rejected" true
        (try
           ignore (C.Checkpoint.resume s_probe.db s_probe.capture s_probe.view path);
           false
         with Wal_codec.Corrupt _ -> true);
      (* ...and recover falls back to the WAL. *)
      let s2, ctl2 = recover_fresh ~checkpoint:path s ~algorithm:rolling_algo in
      check_matches_durable "recovered after fallback" durable ctl2 ~vectors:true;
      finish_and_check s2 ctl2)

(* Two crashes in a row: recovery is itself crash-safe state, because it
   re-records a fresh frontier marker. *)
let test_double_crash () =
  let s = two_table () in
  let rng = Prng.create ~seed:204 in
  random_txns rng s 20;
  let ctl =
    C.Controller.create ~durable:true s.db s.capture s.view ~algorithm:rolling_algo
  in
  random_txns rng s 10;
  (C.Controller.ctx ctl).C.Ctx.fault <- Fault.crash_at "rolling.pre_advance" ~hit:2;
  (try
     while C.Controller.propagate_step ctl do () done;
     Alcotest.fail "expected first crash"
   with Fault.Crash _ -> ());
  let s2, ctl2 = recover_fresh s ~algorithm:rolling_algo in
  random_txns (Prng.create ~seed:205) s2 10;
  (C.Controller.ctx ctl2).C.Ctx.fault <- Fault.crash_at "exec.emit" ~hit:3;
  (try
     while C.Controller.propagate_step ctl2 do () done;
     Alcotest.fail "expected second crash"
   with Fault.Crash _ -> ());
  let durable = Harness.durable_frontier 0 s2.db s2.view in
  let s3, ctl3 = recover_fresh s2 ~algorithm:rolling_algo in
  check_matches_durable "second recovery" durable ctl3 ~vectors:true;
  finish_and_check s3 ctl3

(* Recovery of the uniform and deferred algorithms restarts at the durable
   high-water mark. *)
let test_recover_uniform_and_deferred () =
  List.iter
    (fun algorithm ->
      let s = two_table () in
      let rng = Prng.create ~seed:206 in
      random_txns rng s 18;
      let ctl =
        C.Controller.create ~durable:true s.db s.capture s.view ~algorithm
      in
      random_txns rng s 12;
      (C.Controller.ctx ctl).C.Ctx.fault <- Fault.crash_at "exec.query" ~hit:5;
      (try
         while C.Controller.propagate_step ctl do () done;
         Alcotest.fail "expected crash"
       with Fault.Crash _ -> ());
      let durable = durable_frontier s in
      let s2, ctl2 = recover_fresh s ~algorithm in
      check_matches_durable "recovered" durable ctl2 ~vectors:false;
      finish_and_check s2 ctl2)
    [
      C.Controller.Uniform 4;
      C.Controller.Deferred (C.Rolling_deferred.uniform 5);
    ]

(* Recovering with no durable state at all is an error, not a silent
   cold start. *)
let test_recover_requires_durable_state () =
  let s = two_table () in
  random_txns (Prng.create ~seed:207) s 10;
  (* Maintenance ran, but never durably. *)
  let ctl = C.Controller.create s.db s.capture s.view ~algorithm:rolling_algo in
  ignore (C.Controller.refresh_latest ctl);
  let s2 = Harness.restart two_table s.db in
  Alcotest.(check bool) "refused" true
    (try
       ignore (C.Controller.recover s2.db s2.capture s2.view ~algorithm:rolling_algo);
       false
     with Invalid_argument _ -> true)

(* The randomized harness: 100 seeded runs, each crashing at a randomly
   chosen reachable fault site and verifying oracle equivalence after
   recovery. Fixed seeds; see HACKING.md. *)
let test_fuzz_100_seeds () =
  let points = Harness.run_seeds ~txns:10 ~first:0 ~count:100 () in
  (* The harness must actually exercise a spread of crash sites, not keep
     hitting one. *)
  if List.length points < 5 then
    Alcotest.failf "only %d distinct crash sites exercised: %s"
      (List.length points)
      (String.concat ", " points)

(* The same harness over views with one partial policy attached: 100
   seeded runs on the filtered scenario per policy, each crashing at a
   random reachable site — in the user controller, a part's controller,
   capture or, under partitioning (whose zipf-skewed updates flip their
   head mid-run so both promotions and demotions happen), inside the
   [hotset.promote] and [hotset.demote] migration windows — and verifying
   after recovery that the user view, every part's contents and mirror,
   and the union of the parts stay oracle-exact (no tuple lost or
   double-counted across a crashed handoff). Also asserts the fleet as a
   whole exercised substitution (not just fallback). *)
let test_fuzz_100_seeds_partial policy () =
  let points =
    Harness.run_seeds_partial policy ~txns:10 ~first:0 ~count:100 ()
  in
  if List.length points < 5 then
    Alcotest.failf "only %d distinct crash sites exercised: %s"
      (List.length points)
      (String.concat ", " points)

(* Mid-migration crash coverage for the hotset handoff windows. The two
   fault points sit on opposite sides of their durable markers: a promote
   crash lands {e after} the promote marker (the key must recover heavy,
   with the light residual rebuilt minus the key), a demote crash lands
   {e before} the retire marker (the key must recover still heavy, and
   the in-memory fold into the light residual must die with the process —
   no row lost or double-counted either way). The randomized partitioning
   fuzz above reaches these windows too, but only on the seeds whose
   uniform site draw lands there; these two are deterministic. *)

let hot_registry s =
  C.Hotset.create ~capacity:8 ~max_heavy:3 ~enter:0.2 ~exit_:0.10
    (C.Partial.create ~interval:4 s.db s.capture)

let skewed_inserts rng zipf s n ~key =
  for _ = 1 to n do
    let k = match key with Some k -> k () | None -> Roll_util.Zipf.sample zipf rng in
    ignore
      (Database.run s.db (fun txn ->
           Database.insert txn ~table:"r"
             (Roll_relation.Tuple.ints [ k; Prng.int rng 5; Prng.int rng 5 ])))
  done

let test_crash_mid_promote () =
  let s = filtered () in
  let rng = Prng.create ~seed:208 in
  let zipf = Roll_util.Zipf.create ~n:8 ~theta:1.4 in
  random_txns rng s 10;
  let ctl =
    C.Controller.create ~durable:true s.db s.capture s.view
      ~algorithm:rolling_algo
  in
  let reg = hot_registry s in
  ignore (C.Hotset.attach ~durable:true reg ctl);
  skewed_inserts rng zipf s 120 ~key:None;
  Capture.advance s.capture;
  C.Hotset.set_fault reg (Fault.crash_at "hotset.promote" ~hit:1);
  (try
     ignore (C.Hotset.rebalance reg);
     Alcotest.fail "expected crash mid-promotion"
   with Fault.Crash ("hotset.promote", 1) -> ());
  (* Exactly one promote marker became durable before the crash; the
     in-memory half of the handoff died with the process. *)
  let s2 = Harness.restart filtered s.db in
  let ctl2 =
    C.Controller.recover s2.db s2.capture s2.view ~algorithm:rolling_algo
  in
  let reg2 = hot_registry s2 in
  let recovered = C.Hotset.attach ~durable:true ~recover:true reg2 ctl2 in
  Alcotest.(check int) "exactly the marked key recovers heavy" 1
    (List.length recovered);
  Harness.check_partial 208 ~life:"promote-crash recovered" s2 ctl2
    ~hotset:reg2 (C.Hotset.registry reg2);
  finish_and_check s2 ctl2

let test_crash_mid_demote () =
  let s = filtered () in
  let rng = Prng.create ~seed:209 in
  let zipf = Roll_util.Zipf.create ~n:8 ~theta:1.4 in
  random_txns rng s 10;
  let ctl =
    C.Controller.create ~durable:true s.db s.capture s.view
      ~algorithm:rolling_algo
  in
  let reg = hot_registry s in
  ignore (C.Hotset.attach ~durable:true reg ctl);
  skewed_inserts rng zipf s 120 ~key:None;
  Capture.advance s.capture;
  let promoted, _ = C.Hotset.rebalance reg in
  Alcotest.(check bool) "skew promoted the head" true (promoted <> []);
  let key (part : C.Partial.part) = Option.get part.C.Partial.key in
  let old_heavy = List.map key promoted in
  (* Flood the tail so every head key's share collapses below exit, then
     crash inside the first demotion — after its fold into the light
     residual, before its retire marker. *)
  skewed_inserts rng zipf s 2000 ~key:(Some (fun () -> 4 + Prng.int rng 4));
  Capture.advance s.capture;
  freshen_parts (C.Hotset.registry reg) ~owner:"rsf";
  C.Hotset.set_fault reg (Fault.crash_at "hotset.demote" ~hit:1);
  (try
     ignore (C.Hotset.rebalance reg);
     Alcotest.fail "expected crash mid-demotion"
   with Fault.Crash ("hotset.demote", 1) -> ());
  (* No retire marker committed: every pre-flood heavy key recovers still
     heavy, and the crashed fold must not double-count its rows. *)
  let s2 = Harness.restart filtered s.db in
  let ctl2 =
    C.Controller.recover s2.db s2.capture s2.view ~algorithm:rolling_algo
  in
  let reg2 = hot_registry s2 in
  let recovered = C.Hotset.attach ~durable:true ~recover:true reg2 ctl2 in
  let recovered_keys = List.map key recovered in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "crashed demotion left key %d durably heavy" k)
        true
        (List.mem k recovered_keys))
    old_heavy;
  Harness.check_partial 209 ~life:"demote-crash recovered" s2 ctl2
    ~hotset:reg2 (C.Hotset.registry reg2);
  (* The interrupted migration completes cleanly on the recovered state:
     the re-seeded sketch still reads the head below exit. *)
  Capture.advance s2.capture;
  freshen_parts (C.Hotset.registry reg2) ~owner:"rsf";
  let _, demoted = C.Hotset.rebalance reg2 in
  Alcotest.(check bool) "interrupted demotion completes after recovery" true
    (demoted <> []);
  Harness.check_partial 209 ~life:"demote completed" s2 ctl2 ~hotset:reg2
    (C.Hotset.registry reg2);
  finish_and_check s2 ctl2

let suite =
  [
    Alcotest.test_case "crash between propagate and apply" `Quick
      test_crash_between_propagate_and_apply;
    Alcotest.test_case "crash between forward query and compensation" `Quick
      test_crash_between_forward_and_compensation;
    Alcotest.test_case "recover from checkpoint" `Quick test_recover_from_checkpoint;
    Alcotest.test_case "torn checkpoint falls back to WAL" `Quick
      test_torn_checkpoint_falls_back;
    Alcotest.test_case "double crash" `Quick test_double_crash;
    Alcotest.test_case "recover uniform and deferred" `Quick
      test_recover_uniform_and_deferred;
    Alcotest.test_case "recover requires durable state" `Quick
      test_recover_requires_durable_state;
    Alcotest.test_case "fuzz: 100 seeded crash-recovery runs" `Quick
      test_fuzz_100_seeds;
    Alcotest.test_case "fuzz: 100 seeded aux crash-recovery runs" `Quick
      (test_fuzz_100_seeds_partial Harness.Narrowing);
    Alcotest.test_case "crash mid-promotion handoff" `Quick
      test_crash_mid_promote;
    Alcotest.test_case "crash mid-demotion handoff" `Quick
      test_crash_mid_demote;
    Alcotest.test_case "fuzz: 100 seeded hotset crash-recovery runs" `Quick
      (test_fuzz_100_seeds_partial Harness.Partitioning);
  ]
