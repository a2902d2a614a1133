(* Propagate (Figure 5) tests: Theorem 4.2, interval behaviour, idling,
   and capture-lag interaction. *)

open Test_support.Helpers
module Time = Roll_delta.Time
module C = Roll_core

let qtest = QCheck_alcotest.to_alcotest

let prop_theorem_4_2 =
  QCheck.Test.make ~name:"theorem 4.2: Propagate prefix is a timed delta"
    ~count:25
    QCheck.(triple small_int (int_range 1 10) (int_range 0 3))
    (fun (seed, interval, burst) ->
      let s = if seed mod 2 = 0 then two_table () else three_table () in
      random_txns (Prng.create ~seed) s 25;
      let ctx = ctx_of s in
      inject_updates (Prng.create ~seed:(seed + 99)) s ctx ~per_execute:burst;
      let p = C.Propagate.create ctx ~t_initial:Time.origin in
      (* A few steps; the delta must be valid after each one. *)
      let ok = ref true in
      for _ = 1 to 6 do
        (match C.Propagate.step p ~interval with `Advanced _ | `Idle -> ());
        let hwm = C.Propagate.hwm p in
        match
          C.Oracle.check_timed_view_delta_sampled
            ~sample:(fun t -> t mod 3 = 0)
            s.history s.view ctx.C.Ctx.out ~lo:Time.origin ~hi:hwm
        with
        | Ok () -> ()
        | Error msg ->
            ok := false;
            print_endline msg
      done;
      !ok)

let test_step_clamps_to_now () =
  let s = two_table () in
  random_txns (Prng.create ~seed:50) s 5;
  let ctx = ctx_of s in
  let p = C.Propagate.create ctx ~t_initial:Time.origin in
  (match C.Propagate.step p ~interval:1000 with
  | `Advanced t -> Alcotest.(check int) "clamped to creation-time now" 5 t
  | `Idle -> Alcotest.fail "should advance");
  ()

let test_idle_when_caught_up () =
  let s = two_table () in
  random_txns (Prng.create ~seed:51) s 5;
  let ctx = ctx_of s in
  let p = C.Propagate.create ctx ~t_initial:Time.origin in
  (* Each step consumes CSNs (markers), so "now" recedes; run until idle. *)
  let rec drain n =
    if n > 100 then Alcotest.fail "never idled";
    match C.Propagate.step p ~interval:50 with
    | `Advanced _ -> drain (n + 1)
    | `Idle -> ()
  in
  drain 0;
  Alcotest.(check bool) "hwm reached now" true (C.Propagate.hwm p >= 5)

let test_bad_interval () =
  let s = two_table () in
  let ctx = ctx_of s in
  let p = C.Propagate.create ctx ~t_initial:Time.origin in
  Alcotest.check_raises "zero interval"
    (Invalid_argument "Propagate.step: interval must be positive") (fun () ->
      ignore (C.Propagate.step p ~interval:0))

let test_run_until_future_rejected () =
  let s = two_table () in
  let ctx = ctx_of s in
  let p = C.Propagate.create ctx ~t_initial:Time.origin in
  Alcotest.check_raises "future target"
    (Invalid_argument "Propagate.run_until: target in the future") (fun () ->
      C.Propagate.run_until p ~target:(Database.now s.db + 10) ~interval:2)

(* The interval is a pure tuning knob: interval=1 and interval=big yield
   equivalent deltas (same net effect at every prefix). *)
let test_interval_independence () =
  let run interval =
    let s = two_table () in
    random_txns (Prng.create ~seed:52) s 30;
    let target = Database.now s.db in
    let ctx = ctx_of s in
    let p = C.Propagate.create ctx ~t_initial:Time.origin in
    C.Propagate.run_until p ~target ~interval;
    (s, ctx, target)
  in
  let _, ctx1, target = run 1 in
  let _, ctx2, _ = run 1000 in
  for t = 1 to target do
    let a = Roll_delta.Delta.net_effect ctx1.C.Ctx.out ~lo:0 ~hi:t in
    let b = Roll_delta.Delta.net_effect ctx2.C.Ctx.out ~lo:0 ~hi:t in
    if not (Roll_relation.Relation.equal a b) then
      Alcotest.failf "prefix %d differs between interval=1 and interval=1000" t
  done

(* Small intervals mean more, smaller queries: the tuning trade-off the
   paper describes (Section 3.3). *)
let test_interval_query_tradeoff () =
  let queries_with interval =
    let s = two_table () in
    random_txns (Prng.create ~seed:53) s 40;
    let ctx = ctx_of s in
    let p = C.Propagate.create ctx ~t_initial:Time.origin in
    C.Propagate.run_until p ~target:(Database.now s.db) ~interval;
    C.Counters.count ctx.C.Ctx.counters C.Counters.queries
  in
  let small = queries_with 2 in
  let large = queries_with 40 in
  Alcotest.(check bool) "small intervals issue more queries" true (small > large)

let test_capture_lag_blocks_nothing_lost () =
  let s = two_table () in
  random_txns (Prng.create ~seed:54) s 20;
  let ctx = ctx_of s in
  (* Manual capture control: the driver advances capture itself before
     every propagation query (compensation windows reach each query's own
     execution time, so capture must keep up — exactly the paper's
     "propagate waits for DPropR" protocol). *)
  ctx.C.Ctx.auto_capture <- false;
  ctx.C.Ctx.on_execute <- (fun () -> Roll_capture.Capture.advance s.capture);
  Roll_capture.Capture.advance s.capture;
  let target = Roll_capture.Capture.hwm s.capture in
  let p = C.Propagate.create ctx ~t_initial:Time.origin in
  C.Propagate.run_until p ~target ~interval:5;
  check_ok
    (C.Oracle.check_timed_view_delta s.history s.view ctx.C.Ctx.out
       ~lo:Time.origin ~hi:target)

let suite =
  [
    qtest prop_theorem_4_2;
    Alcotest.test_case "step clamps to current time" `Quick test_step_clamps_to_now;
    Alcotest.test_case "idles when caught up" `Quick test_idle_when_caught_up;
    Alcotest.test_case "rejects non-positive interval" `Quick test_bad_interval;
    Alcotest.test_case "rejects future target" `Quick test_run_until_future_rejected;
    Alcotest.test_case "interval-independent results" `Quick test_interval_independence;
    Alcotest.test_case "interval tunes query count" `Quick test_interval_query_tradeoff;
    Alcotest.test_case "works under manual capture" `Quick test_capture_lag_blocks_nothing_lost;
  ]
