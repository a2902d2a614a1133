(* Controller (Figure 11 architecture) tests: end-to-end refresh flows,
   wall-clock point-in-time refresh, algorithm variants, and GC. *)

open Test_support.Helpers
module Time = Roll_delta.Time
module C = Roll_core

let algorithms =
  [
    ("uniform", C.Controller.Uniform 4);
    ("rolling", C.Controller.Rolling (C.Rolling.per_relation [| 3; 6 |]));
    ("deferred", C.Controller.Deferred (C.Rolling_deferred.per_relation [| 3; 6 |]));
  ]

let test_refresh_latest name algorithm () =
  let s = two_table () in
  random_txns (Prng.create ~seed:90) s 20;
  let controller = C.Controller.create s.db s.capture s.view ~algorithm in
  random_txns (Prng.create ~seed:91) s 20;
  let t = C.Controller.refresh_latest controller in
  Alcotest.(check int) (name ^ ": as_of") t (C.Controller.as_of controller);
  Alcotest.check relation
    (name ^ ": contents")
    (C.Oracle.view_at s.history s.view t)
    (C.Controller.contents controller)

let test_point_in_time () =
  let s = two_table () in
  random_txns (Prng.create ~seed:92) s 10;
  let controller =
    C.Controller.create s.db s.capture s.view
      ~algorithm:(C.Controller.Rolling (C.Rolling.uniform 5))
  in
  random_txns (Prng.create ~seed:93) s 30;
  let t_mid = C.Controller.as_of controller + 12 in
  C.Controller.refresh_to controller t_mid;
  Alcotest.check relation "mid state"
    (C.Oracle.view_at s.history s.view t_mid)
    (C.Controller.contents controller);
  (* The 8pm-decides-to-refresh-to-5pm scenario: more updates have happened
     since, but we can still land exactly on an intermediate state. *)
  random_txns (Prng.create ~seed:94) s 10;
  let t_later = t_mid + 8 in
  C.Controller.refresh_to controller t_later;
  Alcotest.check relation "later state"
    (C.Oracle.view_at s.history s.view t_later)
    (C.Controller.contents controller)

let test_refresh_to_wall () =
  let s = two_table () in
  random_txns (Prng.create ~seed:95) s 10;
  let controller =
    C.Controller.create s.db s.capture s.view ~algorithm:(C.Controller.Uniform 5)
  in
  random_txns (Prng.create ~seed:96) s 20;
  (* Wall clock ticks 1.0 per commit; pick a wall instant strictly in the
     past and check that we land on the last relevant commit before it. *)
  let wall_target = Database.wall_now s.db -. 5.5 in
  let t = C.Controller.refresh_to_wall controller wall_target in
  Alcotest.(check bool) "resolved time in range" true
    (t >= C.Controller.as_of controller - 1 && t <= Database.now s.db);
  Alcotest.check relation "wall state"
    (C.Oracle.view_at s.history s.view t)
    (C.Controller.contents controller)

let test_propagate_step_and_hwm () =
  let s = two_table () in
  let controller =
    C.Controller.create s.db s.capture s.view ~algorithm:(C.Controller.Uniform 3)
  in
  random_txns (Prng.create ~seed:97) s 12;
  let h0 = C.Controller.hwm controller in
  Alcotest.(check bool) "step advances" true (C.Controller.propagate_step controller);
  Alcotest.(check bool) "hwm advanced" true (C.Controller.hwm controller > h0);
  (* Drain to idle. *)
  let rec drain n =
    if n > 100 then Alcotest.fail "never idle";
    if C.Controller.propagate_step controller then drain (n + 1)
  in
  drain 0

let test_gc () =
  let s = two_table () in
  let controller =
    C.Controller.create s.db s.capture s.view ~algorithm:(C.Controller.Uniform 4)
  in
  random_txns (Prng.create ~seed:98) s 25;
  ignore (C.Controller.refresh_latest controller);
  let removed = C.Controller.gc controller in
  Alcotest.(check bool) "applied rows pruned" true (removed > 0);
  (* Still works after GC. *)
  random_txns (Prng.create ~seed:99) s 10;
  let t = C.Controller.refresh_latest controller in
  Alcotest.check relation "post-GC refresh"
    (C.Oracle.view_at s.history s.view t)
    (C.Controller.contents controller)

let test_stats_exposed () =
  let s = two_table () in
  let controller =
    C.Controller.create s.db s.capture s.view ~algorithm:(C.Controller.Uniform 4)
  in
  random_txns (Prng.create ~seed:100) s 10;
  ignore (C.Controller.refresh_latest controller);
  Alcotest.(check bool) "queries counted" true
    (C.Counters.count (C.Controller.counters controller) C.Counters.queries > 0)

let test_geometry_option () =
  let s = two_table () in
  let controller =
    C.Controller.create ~geometry:true s.db s.capture s.view
      ~algorithm:(C.Controller.Rolling (C.Rolling.uniform 3))
  in
  random_txns (Prng.create ~seed:101) s 15;
  ignore (C.Controller.refresh_latest controller);
  match (C.Controller.ctx controller).C.Ctx.geometry with
  | Some g -> (
      match C.Geometry.check g ~hwm:(C.Controller.hwm controller) with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg)
  | None -> Alcotest.fail "geometry trace missing"

let test_three_way_controller () =
  let s = three_table () in
  random_txns (Prng.create ~seed:102) s 15;
  let controller =
    C.Controller.create s.db s.capture s.view
      ~algorithm:(C.Controller.Rolling (C.Rolling.per_relation [| 2; 5; 9 |]))
  in
  random_txns (Prng.create ~seed:103) s 25;
  let t = C.Controller.refresh_latest controller in
  Alcotest.check relation "3-way refresh"
    (C.Oracle.view_at s.history s.view t)
    (C.Controller.contents controller)

let suite =
  List.map
    (fun (name, algorithm) ->
      Alcotest.test_case
        ("refresh_latest / " ^ name)
        `Quick
        (test_refresh_latest name algorithm))
    algorithms
  @ [
      Alcotest.test_case "point-in-time refresh" `Quick test_point_in_time;
      Alcotest.test_case "refresh to wall time" `Quick test_refresh_to_wall;
      Alcotest.test_case "propagate_step and hwm" `Quick test_propagate_step_and_hwm;
      Alcotest.test_case "gc applied delta rows" `Quick test_gc;
      Alcotest.test_case "stats exposed" `Quick test_stats_exposed;
      Alcotest.test_case "geometry option" `Quick test_geometry_option;
      Alcotest.test_case "three-way controller" `Quick test_three_way_controller;
    ]

let test_adaptive_algorithm () =
  let s = three_table () in
  random_txns (Prng.create ~seed:104) s 20;
  let controller =
    C.Controller.create s.db s.capture s.view ~algorithm:(C.Controller.Adaptive 40)
  in
  random_txns (Prng.create ~seed:105) s 30;
  let t = C.Controller.refresh_latest controller in
  Alcotest.check relation "adaptive refresh = oracle"
    (C.Oracle.view_at s.history s.view t)
    (C.Controller.contents controller)

let suite =
  suite
  @ [ Alcotest.test_case "adaptive algorithm" `Quick test_adaptive_algorithm ]
