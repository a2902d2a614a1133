(* RollingPropagate tests: Theorem 4.3 for the corrected algorithm (any n,
   any schedule), the geometry brick-tiling invariant after every step, and
   the deferred Figure 10 variant for two-way views. *)

open Test_support.Helpers
module Time = Roll_delta.Time
module C = Roll_core

let qtest = QCheck_alcotest.to_alcotest

let prop_theorem_4_3 =
  QCheck.Test.make ~name:"theorem 4.3: rolling prefix is a timed delta"
    ~count:25
    QCheck.(quad small_int (int_range 1 6) (int_range 1 9) (int_range 0 3))
    (fun (seed, d0, d1, burst) ->
      let s = if seed mod 2 = 0 then two_table () else three_table () in
      random_txns (Prng.create ~seed) s 25;
      let ctx = ctx_of ~geometry:true ~t_initial:Time.origin s in
      inject_updates (Prng.create ~seed:(seed + 7)) s ctx ~per_execute:burst;
      let r = C.Rolling.create ctx ~t_initial:Time.origin in
      let policy i = if i = 0 then d0 else d1 in
      let ok = ref true in
      for _ = 1 to 8 do
        (match C.Rolling.step r ~policy with `Advanced _ | `Idle -> ());
        let hwm = C.Rolling.hwm r in
        (match C.Geometry.check (Option.get ctx.C.Ctx.geometry) ~hwm with
        | Ok () -> ()
        | Error msg ->
            ok := false;
            print_endline ("geometry: " ^ msg));
        match
          C.Oracle.check_timed_view_delta_sampled
            ~sample:(fun t -> t mod 4 = 0)
            s.history s.view ctx.C.Ctx.out ~lo:Time.origin ~hi:hwm
        with
        | Ok () -> ()
        | Error msg ->
            ok := false;
            print_endline msg
      done;
      !ok)

(* Correctness must not depend on the step schedule: drive frontiers in a
   random relation order via step_relation. *)
let prop_schedule_independence =
  QCheck.Test.make ~name:"any step_relation schedule is correct" ~count:20
    QCheck.small_int
    (fun seed ->
      let s = three_table () in
      let rng = Prng.create ~seed in
      random_txns rng s 20;
      let ctx = ctx_of s in
      inject_updates (Prng.create ~seed:(seed + 3)) s ctx ~per_execute:1;
      let r = C.Rolling.create ctx ~t_initial:Time.origin in
      for _ = 1 to 15 do
        let i = Prng.int rng 3 in
        match C.Rolling.step_relation r i ~interval:(1 + Prng.int rng 6) with
        | `Advanced _ | `Idle -> ()
      done;
      match
        C.Oracle.check_timed_view_delta s.history s.view ctx.C.Ctx.out
          ~lo:Time.origin ~hi:(C.Rolling.hwm r)
      with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

let test_hwm_is_min_frontier () =
  let s = three_table () in
  random_txns (Prng.create ~seed:60) s 20;
  let ctx = ctx_of s in
  let r = C.Rolling.create ctx ~t_initial:Time.origin in
  ignore (C.Rolling.step_relation r 0 ~interval:5);
  ignore (C.Rolling.step_relation r 1 ~interval:3);
  Alcotest.(check int) "tfwd 0" 5 (C.Rolling.tfwd r 0);
  Alcotest.(check int) "tfwd 1" 3 (C.Rolling.tfwd r 1);
  Alcotest.(check int) "tfwd 2 untouched" 0 (C.Rolling.tfwd r 2);
  Alcotest.(check int) "hwm = min" 0 (C.Rolling.hwm r);
  ignore (C.Rolling.step_relation r 2 ~interval:4);
  Alcotest.(check int) "hwm = min after" 3 (C.Rolling.hwm r)

let test_hwm_monotone () =
  let s = two_table () in
  random_txns (Prng.create ~seed:61) s 30;
  let ctx = ctx_of s in
  inject_updates (Prng.create ~seed:62) s ctx ~per_execute:2;
  let r = C.Rolling.create ctx ~t_initial:Time.origin in
  let prev = ref (C.Rolling.hwm r) in
  for _ = 1 to 20 do
    (match C.Rolling.step r ~policy:(C.Rolling.uniform 3) with
    | `Advanced _ | `Idle -> ());
    let h = C.Rolling.hwm r in
    if h < !prev then Alcotest.fail "hwm went backwards";
    prev := h
  done

let test_step_picks_smallest_frontier () =
  let s = two_table () in
  random_txns (Prng.create ~seed:63) s 20;
  let ctx = ctx_of s in
  let r = C.Rolling.create ctx ~t_initial:Time.origin in
  (match C.Rolling.step r ~policy:(C.Rolling.per_relation [| 4; 2 |]) with
  | `Advanced (i, _) -> Alcotest.(check int) "first pick is relation 0" 0 i
  | `Idle -> Alcotest.fail "should advance");
  match C.Rolling.step r ~policy:(C.Rolling.per_relation [| 4; 2 |]) with
  | `Advanced (i, _) -> Alcotest.(check int) "then the one left behind" 1 i
  | `Idle -> Alcotest.fail "should advance"

let test_idle_when_caught_up () =
  let s = two_table () in
  random_txns (Prng.create ~seed:64) s 10;
  let ctx = ctx_of s in
  let r = C.Rolling.create ctx ~t_initial:Time.origin in
  let rec drain n =
    if n > 200 then Alcotest.fail "never idled";
    match C.Rolling.step r ~policy:(C.Rolling.uniform 50) with
    | `Advanced _ -> drain (n + 1)
    | `Idle -> ()
  in
  drain 0

let test_bad_interval () =
  let s = two_table () in
  random_txns (Prng.create ~seed:65) s 3;
  let ctx = ctx_of s in
  let r = C.Rolling.create ctx ~t_initial:Time.origin in
  Alcotest.check_raises "zero interval"
    (Invalid_argument "Rolling.step_relation: interval must be positive")
    (fun () -> ignore (C.Rolling.step_relation r 0 ~interval:0))

let test_star_schema_policy () =
  (* A fact axis stepped with a small interval and dimensions with a large
     one: the realistic configuration from Section 3.4. *)
  let star = Roll_workload.Star.create Roll_workload.Star.default_config in
  Roll_workload.Star.load_initial star;
  Roll_workload.Star.mixed_txns star ~n:60 ~dim_fraction:0.05;
  let ctx =
    C.Ctx.create ~t_initial:Time.origin (Roll_workload.Star.db star)
      (Roll_workload.Star.capture star)
      (Roll_workload.Star.view star)
  in
  let r = C.Rolling.create ctx ~t_initial:Time.origin in
  let target = Database.now (Roll_workload.Star.db star) in
  C.Rolling.run_until r ~target
    ~policy:(C.Rolling.per_relation [| 10; 100; 100 |]);
  check_ok
    (C.Oracle.check_timed_view_delta_sampled
       ~sample:(fun t -> t mod 25 = 0)
       (Roll_workload.Star.history star)
       (Roll_workload.Star.view star)
       ctx.C.Ctx.out ~lo:Time.origin ~hi:(C.Rolling.hwm r))

(* --- Deferred (Figure 10) variant --- *)

let prop_deferred_two_way =
  QCheck.Test.make ~name:"deferred Figure 10 correct for 2-way" ~count:25
    QCheck.(triple small_int (int_range 1 6) (int_range 1 9))
    (fun (seed, d0, d1) ->
      let s = two_table () in
      random_txns (Prng.create ~seed) s 25;
      let ctx = ctx_of s in
      inject_updates (Prng.create ~seed:(seed + 5)) s ctx ~per_execute:2;
      let r = C.Rolling_deferred.create ctx ~t_initial:Time.origin in
      for _ = 1 to 10 do
        match C.Rolling_deferred.step r ~policy:(C.Rolling_deferred.per_relation [| d0; d1 |]) with
        | `Advanced _ | `Idle -> ()
      done;
      match
        C.Oracle.check_timed_view_delta s.history s.view ctx.C.Ctx.out
          ~lo:Time.origin ~hi:(C.Rolling_deferred.hwm r)
      with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

(* Section 3.4's claim: with skewed per-relation intervals, the deferred
   process issues fewer propagation queries than Propagate does at the
   granularity of its finest interval. *)
let test_deferred_fewer_queries_than_propagate () =
  let scenario () =
    let s = two_table () in
    random_txns (Prng.create ~seed:66) s 60;
    s
  in
  let deferred =
    let s = scenario () in
    let ctx = ctx_of s in
    let r = C.Rolling_deferred.create ctx ~t_initial:Time.origin in
    C.Rolling_deferred.run_until r ~target:(Database.now s.db)
      ~policy:(C.Rolling_deferred.per_relation [| 20; 4 |]);
    C.Counters.count ctx.C.Ctx.counters C.Counters.queries
  in
  let propagate =
    let s = scenario () in
    let ctx = ctx_of s in
    let p = C.Propagate.create ctx ~t_initial:Time.origin in
    C.Propagate.run_until p ~target:(Database.now s.db) ~interval:4;
    C.Counters.count ctx.C.Ctx.counters C.Counters.queries
  in
  Alcotest.(check bool)
    (Printf.sprintf "deferred (%d) < propagate (%d)" deferred propagate)
    true (deferred < propagate)

let test_deferred_outstanding_tracking () =
  let s = two_table () in
  random_txns (Prng.create ~seed:67) s 20;
  let ctx = ctx_of s in
  let r = C.Rolling_deferred.create ctx ~t_initial:Time.origin in
  (* First step advances relation 0 and leaves its query outstanding. *)
  (match C.Rolling_deferred.step r ~policy:(C.Rolling_deferred.uniform 3) with
  | `Advanced (i, _) -> Alcotest.(check int) "relation 0 first" 0 i
  | `Idle -> Alcotest.fail "should advance");
  Alcotest.(check int) "one outstanding query" 1 (C.Rolling_deferred.outstanding r);
  Alcotest.(check int) "tcomp pinned to its start" 0 (C.Rolling_deferred.tcomp r 0)

let suite =
  [
    qtest prop_theorem_4_3;
    qtest prop_schedule_independence;
    Alcotest.test_case "hwm is min frontier" `Quick test_hwm_is_min_frontier;
    Alcotest.test_case "hwm monotone" `Quick test_hwm_monotone;
    Alcotest.test_case "step picks smallest frontier" `Quick test_step_picks_smallest_frontier;
    Alcotest.test_case "idles when caught up" `Quick test_idle_when_caught_up;
    Alcotest.test_case "rejects non-positive interval" `Quick test_bad_interval;
    Alcotest.test_case "star-schema per-relation policy" `Quick test_star_schema_policy;
    qtest prop_deferred_two_way;
    Alcotest.test_case "deferred beats Propagate on queries" `Quick
      test_deferred_fewer_queries_than_propagate;
    Alcotest.test_case "deferred outstanding tracking" `Quick test_deferred_outstanding_tracking;
  ]
