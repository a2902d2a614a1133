(* Discrete-event lock simulator tests: serialization of conflicting
   transactions, concurrency of compatible ones, fairness, and the
   contention-scenario builders. *)

module Des = Roll_sim.Des
module Contention = Roll_sim.Contention
module Prng = Roll_util.Prng
module Summary = Roll_util.Summary

let txn ?(label = "t") ~arrival ~duration locks = { Des.label; arrival; duration; locks }

let x resource = { Des.resource; mode = Des.Exclusive }

let s resource = { Des.resource; mode = Des.Shared }

let stats_for result label =
  match List.assoc_opt label result.Des.classes with
  | Some st -> st
  | None -> Alcotest.failf "no class %s" label

let test_exclusive_serializes () =
  let result =
    Des.run
      [
        txn ~label:"a" ~arrival:0.0 ~duration:10.0 [ x "r" ];
        txn ~label:"b" ~arrival:1.0 ~duration:10.0 [ x "r" ];
      ]
  in
  Alcotest.(check (float 1e-9)) "makespan serial" 20.0 result.Des.makespan;
  let b = stats_for result "b" in
  Alcotest.(check (float 1e-9)) "b waited" 9.0 (Summary.mean b.Des.wait);
  Alcotest.(check (float 1e-9)) "b response" 19.0 (Summary.mean b.Des.response)

let test_shared_run_concurrently () =
  let result =
    Des.run
      [
        txn ~label:"a" ~arrival:0.0 ~duration:10.0 [ s "r" ];
        txn ~label:"b" ~arrival:1.0 ~duration:10.0 [ s "r" ];
      ]
  in
  Alcotest.(check (float 1e-9)) "overlapping" 11.0 result.Des.makespan;
  Alcotest.(check (float 1e-9)) "no wait" 0.0
    (Summary.mean (stats_for result "b").Des.wait)

let test_shared_blocks_exclusive () =
  let result =
    Des.run
      [
        txn ~label:"reader" ~arrival:0.0 ~duration:10.0 [ s "r" ];
        txn ~label:"writer" ~arrival:1.0 ~duration:2.0 [ x "r" ];
      ]
  in
  Alcotest.(check (float 1e-9)) "writer waits for reader" 9.0
    (Summary.mean (stats_for result "writer").Des.wait)

let test_disjoint_resources_parallel () =
  let result =
    Des.run
      [
        txn ~label:"a" ~arrival:0.0 ~duration:5.0 [ x "r1" ];
        txn ~label:"b" ~arrival:0.0 ~duration:5.0 [ x "r2" ];
      ]
  in
  Alcotest.(check (float 1e-9)) "parallel" 5.0 result.Des.makespan

let test_multi_lock_atomic_acquisition () =
  (* c needs both r1 and r2; a holds r1, b holds r2 with staggered ends.
     c starts only when both are free. *)
  let result =
    Des.run
      [
        txn ~label:"a" ~arrival:0.0 ~duration:4.0 [ x "r1" ];
        txn ~label:"b" ~arrival:0.0 ~duration:8.0 [ x "r2" ];
        txn ~label:"c" ~arrival:1.0 ~duration:1.0 [ x "r1"; x "r2" ];
      ]
  in
  Alcotest.(check (float 1e-9)) "c waits for the slower holder" 7.0
    (Summary.mean (stats_for result "c").Des.wait)

let test_no_overtaking_conflicting_waiter () =
  (* w1 (X) waits behind a reader; a later reader r2 conflicts with w1 and
     must not overtake it indefinitely. *)
  let result =
    Des.run
      [
        txn ~label:"r1" ~arrival:0.0 ~duration:10.0 [ s "v" ];
        txn ~label:"w" ~arrival:1.0 ~duration:1.0 [ x "v" ];
        txn ~label:"r2" ~arrival:2.0 ~duration:1.0 [ s "v" ];
      ]
  in
  (* r2 must run after w (no starvation of the writer): w at 10..11, r2 at 11..12 *)
  Alcotest.(check (float 1e-9)) "writer not starved" 9.0
    (Summary.mean (stats_for result "w").Des.wait);
  Alcotest.(check (float 1e-9)) "r2 behind writer" 9.0
    (Summary.mean (stats_for result "r2").Des.wait)

let test_nonconflicting_overtakes () =
  (* A transaction on an unrelated resource may start even while others
     wait. *)
  let result =
    Des.run
      [
        txn ~label:"hold" ~arrival:0.0 ~duration:10.0 [ x "r" ];
        txn ~label:"blocked" ~arrival:1.0 ~duration:1.0 [ x "r" ];
        txn ~label:"free" ~arrival:2.0 ~duration:1.0 [ x "elsewhere" ];
      ]
  in
  Alcotest.(check (float 1e-9)) "free runs immediately" 0.0
    (Summary.mean (stats_for result "free").Des.wait)

let test_empty_run () =
  let result = Des.run [] in
  Alcotest.(check (float 0.0)) "empty makespan" 0.0 result.Des.makespan;
  Alcotest.(check int) "no classes" 0 (List.length result.Des.classes)

(* --- Contention builders --- *)

let test_propagation_txns_built_from_footprints () =
  let footprints =
    [
      { Roll_core.Ctx.exec = 1; description = "q1"; reads = [ ("r", 100) ]; emitted = 10 };
      { Roll_core.Ctx.exec = 2; description = "q2"; reads = [ ("s", 50) ]; emitted = 0 };
    ]
  in
  let txns =
    Contention.propagation_txns Contention.default_costs footprints ~start:5.0
      ~spacing:2.0
  in
  Alcotest.(check int) "one txn per footprint" 2 (List.length txns);
  (match txns with
  | [ t1; t2 ] ->
      Alcotest.(check (float 1e-9)) "arrivals spaced" 5.0 t1.Des.arrival;
      Alcotest.(check (float 1e-9)) "arrivals spaced" 7.0 t2.Des.arrival;
      Alcotest.(check bool) "bigger footprint, longer txn" true
        (t1.Des.duration > t2.Des.duration);
      Alcotest.(check bool) "locks view delta exclusively" true
        (List.exists
           (fun (l : Des.request) -> l.resource = "delta:view" && l.mode = Des.Exclusive)
           t1.Des.locks)
  | _ -> assert false);
  let mono =
    Contention.monolithic_refresh Contention.default_costs footprints ~start:0.0
      ~tables:[ "r"; "s" ]
  in
  let total = List.fold_left (fun acc t -> acc +. t.Des.duration) 0.0 txns in
  Alcotest.(check bool) "monolith as long as the sum (minus per-txn base)" true
    (mono.Des.duration > total -. (2.0 *. Contention.default_costs.Contention.base_cost) -. 1e-9)

let test_poisson_streams () =
  let rng = Prng.create ~seed:7 in
  let updates =
    Contention.update_stream rng ~tables:[ "r"; "s" ] ~rate:10.0 ~until:100.0
      ~mean_duration:0.01
  in
  Alcotest.(check bool) "roughly rate*until arrivals" true
    (List.length updates > 700 && List.length updates < 1300);
  List.iter
    (fun (t : Des.txn_spec) ->
      if t.arrival < 0.0 || t.arrival >= 100.0 then Alcotest.fail "arrival out of range";
      if t.duration <= 0.0 then Alcotest.fail "non-positive duration")
    updates;
  let readers =
    Contention.reader_stream rng ~resource:"view" ~rate:5.0 ~until:50.0
      ~mean_duration:0.1
  in
  List.iter
    (fun (t : Des.txn_spec) ->
      match t.locks with
      | [ { Des.resource = "view"; mode = Des.Shared } ] -> ()
      | _ -> Alcotest.fail "reader locks")
    readers

(* The headline contention shape: one monolithic refresh blocks updaters for
   a long time; the same work as many small transactions interleaves. *)
let test_small_txns_reduce_update_waits () =
  let footprints =
    List.init 50 (fun i ->
        { Roll_core.Ctx.exec = i; description = "q"; reads = [ ("r", 2000) ]; emitted = 100 })
  in
  let model = Contention.default_costs in
  let updates rng_seed =
    Contention.update_stream (Prng.create ~seed:rng_seed) ~tables:[ "r" ]
      ~rate:20.0 ~until:15.0 ~mean_duration:0.005
  in
  let monolithic =
    Des.run
      (Contention.monolithic_refresh model footprints ~start:1.0 ~tables:[ "r" ]
      :: updates 1)
  in
  let rolling =
    Des.run
      (Contention.propagation_txns model footprints ~start:1.0 ~spacing:0.25
      @ updates 1)
  in
  let wait r = Summary.max_value (stats_for r "update").Des.wait in
  Alcotest.(check bool)
    (Printf.sprintf "monolithic max wait (%.3f) > rolling (%.3f)"
       (wait monolithic) (wait rolling))
    true
    (wait monolithic > wait rolling)

let suite =
  [
    Alcotest.test_case "exclusive serializes" `Quick test_exclusive_serializes;
    Alcotest.test_case "shared runs concurrently" `Quick test_shared_run_concurrently;
    Alcotest.test_case "shared blocks exclusive" `Quick test_shared_blocks_exclusive;
    Alcotest.test_case "disjoint resources parallel" `Quick test_disjoint_resources_parallel;
    Alcotest.test_case "multi-lock atomic acquisition" `Quick
      test_multi_lock_atomic_acquisition;
    Alcotest.test_case "writer not starved" `Quick test_no_overtaking_conflicting_waiter;
    Alcotest.test_case "non-conflicting overtakes" `Quick test_nonconflicting_overtakes;
    Alcotest.test_case "empty run" `Quick test_empty_run;
    Alcotest.test_case "footprint-driven txns" `Quick
      test_propagation_txns_built_from_footprints;
    Alcotest.test_case "poisson streams" `Quick test_poisson_streams;
    Alcotest.test_case "small txns reduce waits" `Quick
      test_small_txns_reduce_update_waits;
  ]

(* Who-blocks-whom under parallel waves: items with disjoint windows over
   distinct views share no exclusive resource, so the model predicts zero
   mutual blocking — a wave's makespan is its slowest item, not the sum. *)
let wave_fp table : Roll_core.Ctx.footprint =
  {
    exec = 0;
    description = "wave step";
    reads = [ (table, 100); ("delta:" ^ table, 10) ];
    emitted = 5;
  }

let test_wave_items_never_block_each_other () =
  let items = [ ("v_a", wave_fp "a"); ("v_b", wave_fp "b"); ("v_c", wave_fp "c") ] in
  let txns = Contention.wave_txns Contention.default_costs items ~start:0.0 in
  let result = Des.run ~validate:true txns in
  List.iter
    (fun (view, _) ->
      Alcotest.(check (float 1e-9))
        (view ^ " never waits") 0.0
        (Summary.mean (stats_for result ("wave:" ^ view)).Des.wait))
    items;
  let item_duration = (List.hd txns).Des.duration in
  Alcotest.(check (float 1e-9)) "makespan is one item, not three"
    item_duration result.Des.makespan

(* The single-writer apply is the only maintenance transaction that can
   block a wave item — and it blocks exactly the item maintaining the same
   view (apply reads that view's delta while the step writes it). An
   updater blocks exactly the items reading the table it writes. *)
let test_wave_single_writer_and_updater_block () =
  let items = [ ("v_a", wave_fp "a"); ("v_b", wave_fp "b"); ("v_c", wave_fp "c") ] in
  let wave = Contention.wave_txns Contention.default_costs items ~start:0.01 in
  let apply =
    txn ~label:"apply" ~arrival:0.0 ~duration:0.05
      [ x "v_a"; s "delta:v_a" ]
  in
  let updater =
    txn ~label:"update" ~arrival:0.0 ~duration:0.02 [ x "b"; x "delta:b" ]
  in
  let result = Des.run ~validate:true (apply :: updater :: wave) in
  let wait view = Summary.mean (stats_for result ("wave:" ^ view)).Des.wait in
  Alcotest.(check (float 1e-9)) "same-view item waits out the apply" 0.04
    (wait "v_a");
  Alcotest.(check (float 1e-9)) "same-table item waits out the updater" 0.01
    (wait "v_b");
  Alcotest.(check (float 1e-9)) "disjoint item never waits" 0.0 (wait "v_c")

(* The simulator validates itself: conflicting intervals never overlap,
   even on large random workloads. *)
let test_validated_random_workload () =
  let rng = Prng.create ~seed:9 in
  let txns =
    Contention.update_stream rng ~tables:[ "a"; "b"; "c" ] ~rate:60.0
      ~until:20.0 ~mean_duration:0.02
    @ Contention.reader_stream rng ~resource:"a" ~rate:30.0 ~until:20.0
        ~mean_duration:0.05
  in
  let result = Des.run ~validate:true txns in
  Alcotest.(check bool) "ran to completion" true (result.Des.makespan > 0.0);
  (* Percentiles are available on validated runs. *)
  match List.assoc_opt "update" result.Des.classes with
  | Some st ->
      let p95 = Summary.percentile st.Des.wait 0.95 in
      Alcotest.(check bool) "p95 >= mean-ish sanity" true
        (p95 >= 0.0 && p95 >= Summary.mean st.Des.wait -. 1e-9)
  | None -> Alcotest.fail "no update class"

(* Readsim, the rolld serving-path fluid model: below drain capacity the
   hwm lag is bounded and reads barely wait; past capacity the lag grows
   and recent-target reads wait for the drain — the BENCH_serve knee. *)
let test_readsim_knee () =
  let module R = Roll_sim.Readsim in
  let base = { R.default_config with R.duration = 20.0; clients = 500 } in
  (* capacity = drain_rate * step_commits = 250 commits/s *)
  let below = R.run { base with R.update_rate = 100.0 } in
  let above = R.run { base with R.update_rate = 600.0 } in
  Alcotest.(check bool) "below capacity: not saturated" false below.R.saturated;
  Alcotest.(check bool) "above capacity: saturated" true above.R.saturated;
  Alcotest.(check bool) "reads happened in both regimes" true
    (below.R.reads > 0 && above.R.reads > 0);
  Alcotest.(check bool) "bounded lag below capacity" true
    (below.R.lag_mean < 10.0);
  Alcotest.(check bool) "lag grows past capacity" true
    (above.R.lag_mean > 10.0 *. below.R.lag_mean);
  Alcotest.(check bool) "waits jump at the knee" true
    (above.R.wait_p95 > 10.0 *. Float.max below.R.wait_p95 0.001);
  Alcotest.(check bool) "staleness grows past capacity" true
    (above.R.staleness_p95 > below.R.staleness_p95);
  Alcotest.(check bool) "queued readers only when behind" true
    (above.R.queued > below.R.queued)

let test_readsim_validation () =
  let module R = Roll_sim.Readsim in
  Alcotest.check_raises "non-positive dt rejected"
    (Invalid_argument "Readsim.run: non-positive duration or dt") (fun () ->
      ignore (R.run { R.default_config with R.dt = 0.0 }))

let suite =
  suite
  @ [
      Alcotest.test_case "wave items never block each other" `Quick
        test_wave_items_never_block_each_other;
      Alcotest.test_case "single-writer apply and updaters block waves" `Quick
        test_wave_single_writer_and_updater_block;
      Alcotest.test_case "self-validation on random workload" `Quick
        test_validated_random_workload;
      Alcotest.test_case "readsim: the serving knee" `Quick test_readsim_knee;
      Alcotest.test_case "readsim: config validation" `Quick
        test_readsim_validation;
    ]
