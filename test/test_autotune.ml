(* Adaptive interval policy: hot relations get small intervals, quiet ones
   large; the policy plugs into rolling propagation and stays correct. *)

open Test_support.Helpers
module Time = Roll_delta.Time
module C = Roll_core
module Star = Roll_workload.Star

let star_with_ctx () =
  let star = Star.create { Star.default_config with fact_initial = 200 } in
  Star.load_initial star;
  Star.mixed_txns star ~n:150 ~dim_fraction:0.03;
  let ctx =
    C.Ctx.create ~t_initial:Time.origin (Star.db star) (Star.capture star)
      (Star.view star)
  in
  (star, ctx)

let test_intervals_reflect_density () =
  let _, ctx = star_with_ctx () in
  let tuner = C.Autotune.create ~target_rows:50 ctx in
  let fact = C.Autotune.interval_for tuner 0 in
  let dim = C.Autotune.interval_for tuner 1 in
  Alcotest.(check bool)
    (Printf.sprintf "fact interval (%d) < dimension interval (%d)" fact dim)
    true (fact < dim);
  Alcotest.(check bool) "fact density higher" true
    (C.Autotune.density tuner 0 > C.Autotune.density tuner 1)

let test_target_scales_interval () =
  let _, ctx = star_with_ctx () in
  let small = C.Autotune.create ~target_rows:10 ctx in
  let large = C.Autotune.create ~target_rows:500 ctx in
  Alcotest.(check bool) "bigger budget, wider interval" true
    (C.Autotune.interval_for large 0 > C.Autotune.interval_for small 0)

let test_bounds_respected () =
  let _, ctx = star_with_ctx () in
  let tuner = C.Autotune.create ~min_interval:7 ~max_interval:9 ~target_rows:50 ctx in
  for i = 0 to 2 do
    let v = C.Autotune.interval_for tuner i in
    if v < 7 || v > 9 then Alcotest.failf "interval %d out of bounds" v
  done

(* Regression: a cold-start tuner (nothing captured yet) must not hand out
   max_interval — the relation's rate is unknown and a maximal first window
   on a hot relation would dwarf the row budget. It steps at min_interval
   until it has observed something. *)
let test_cold_start_means_min () =
  let s = two_table () in
  let ctx = ctx_of s in
  let tuner =
    C.Autotune.create ~min_interval:3 ~max_interval:123 ~target_rows:10 ctx
  in
  Alcotest.(check int) "cold start: min interval" 3
    (C.Autotune.interval_for tuner 0);
  let default_min = C.Autotune.create ~max_interval:123 ~target_rows:10 ctx in
  Alcotest.(check int) "default min interval is 1" 1
    (C.Autotune.interval_for default_min 0)

(* Once a span has been observed, a relation with no captured changes in it
   really is quiet and gets the maximal stride. *)
let test_quiet_relation_means_max () =
  let s = two_table () in
  (* Change only r; s stays quiet over a nonzero observed span. *)
  for i = 0 to 4 do
    ignore
      (Database.run s.db (fun txn ->
           Database.insert txn ~table:"r" (Roll_relation.Tuple.ints [ i; i ])))
  done;
  let ctx = ctx_of s in
  let tuner = C.Autotune.create ~max_interval:123 ~target_rows:10 ctx in
  Alcotest.(check int) "quiet relation: max interval" 123
    (C.Autotune.interval_for tuner 1);
  Alcotest.(check bool) "busy relation: bounded interval" true
    (C.Autotune.interval_for tuner 0 < 123)

let test_validation () =
  let s = two_table () in
  let ctx = ctx_of s in
  Alcotest.(check bool) "bad target" true
    (try
       ignore (C.Autotune.create ~target_rows:0 ctx);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad bounds" true
    (try
       ignore (C.Autotune.create ~min_interval:5 ~max_interval:4 ~target_rows:1 ctx);
       false
     with Invalid_argument _ -> true)

let test_adaptive_rolling_correct () =
  let star, ctx = star_with_ctx () in
  let tuner = C.Autotune.create ~target_rows:40 ctx in
  let r = C.Rolling.create ctx ~t_initial:Time.origin in
  let target = Database.now (Star.db star) in
  C.Rolling.run_until r ~target ~policy:(C.Autotune.policy tuner);
  check_ok
    (C.Oracle.check_timed_view_delta_sampled
       ~sample:(fun t -> t mod 40 = 0)
       (Star.history star) (Star.view star) ctx.C.Ctx.out ~lo:Time.origin
       ~hi:(C.Rolling.hwm r))

(* The budget actually bounds forward-query window sizes. *)
let test_window_sizes_near_target () =
  let star, ctx = star_with_ctx () in
  C.Ctx.keep_footprints ctx;
  let tuner = C.Autotune.create ~target_rows:30 ctx in
  let r = C.Rolling.create ctx ~t_initial:Time.origin in
  let target = Database.now (Star.db star) in
  C.Rolling.run_until r ~target ~policy:(C.Autotune.policy tuner);
  (* Forward windows are the delta resources of single-window queries. *)
  List.iter
    (fun (fp : C.Ctx.footprint) ->
      let delta_rows =
        List.fold_left
          (fun acc (resource, n) ->
            if String.length resource > 0 && resource.[0] <> '\xce' then acc
            else acc + n)
          0 fp.C.Ctx.reads
      in
      (* Allow slack: density drifts while the workload runs. *)
      if delta_rows > 30 * 20 then
        Alcotest.failf "window of %d rows blows the budget" delta_rows)
    (C.Ctx.footprints ctx)

let suite =
  [
    Alcotest.test_case "intervals reflect density" `Quick test_intervals_reflect_density;
    Alcotest.test_case "target scales interval" `Quick test_target_scales_interval;
    Alcotest.test_case "bounds respected" `Quick test_bounds_respected;
    Alcotest.test_case "cold start means min" `Quick test_cold_start_means_min;
    Alcotest.test_case "quiet relation means max" `Quick test_quiet_relation_means_max;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "adaptive rolling is correct" `Quick test_adaptive_rolling_correct;
    Alcotest.test_case "window sizes near target" `Quick test_window_sizes_near_target;
  ]
