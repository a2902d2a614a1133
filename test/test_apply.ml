(* Apply-process tests: point-in-time refresh (Figure 3), roll-back,
   pruning, and equivalence between stepwise and single rolls. *)

open Test_support.Helpers
module Time = Roll_delta.Time
module C = Roll_core

let qtest = QCheck_alcotest.to_alcotest

(* Common setup: random history, fully propagated delta. *)
let propagated ?(seed = 70) ?(txns = 30) () =
  let s = two_table () in
  random_txns (Prng.create ~seed) s txns;
  let target = Database.now s.db in
  let ctx = ctx_of s in
  let p = C.Propagate.create ctx ~t_initial:Time.origin in
  C.Propagate.run_until p ~target ~interval:5;
  (s, ctx, target)

let test_roll_matches_oracle_at_every_time () =
  let s, ctx, target = propagated () in
  let apply = C.Apply.create_empty ctx ~t_initial:Time.origin in
  for t = 1 to target do
    C.Apply.roll_to apply ~hwm:target t;
    Alcotest.(check int) "as_of tracks" t (C.Apply.as_of apply);
    let expected = C.Oracle.view_at s.history s.view t in
    if not (Roll_relation.Relation.equal expected (C.Apply.contents apply)) then
      Alcotest.failf "view state wrong at t=%d" t
  done

let test_one_shot_equals_stepwise () =
  let _, ctx, target = propagated ~seed:71 () in
  let stepwise = C.Apply.create_empty ctx ~t_initial:Time.origin in
  let rec roll t = if t <= target then (C.Apply.roll_to stepwise ~hwm:target t; roll (t + 3)) in
  roll 1;
  C.Apply.roll_to stepwise ~hwm:target target;
  let oneshot = C.Apply.create_empty ctx ~t_initial:Time.origin in
  C.Apply.roll_to oneshot ~hwm:target target;
  Alcotest.check relation "same final state" (C.Apply.contents oneshot)
    (C.Apply.contents stepwise)

let test_roll_back () =
  let s, ctx, target = propagated ~seed:72 () in
  let apply = C.Apply.create_empty ctx ~t_initial:Time.origin in
  C.Apply.roll_to apply ~hwm:target target;
  let mid = target / 2 in
  C.Apply.roll_back_to apply mid;
  Alcotest.(check int) "as_of back" mid (C.Apply.as_of apply);
  Alcotest.check relation "state at mid" (C.Oracle.view_at s.history s.view mid)
    (C.Apply.contents apply);
  (* And forward again. *)
  C.Apply.roll_to apply ~hwm:target target;
  Alcotest.check relation "state at target"
    (C.Oracle.view_at s.history s.view target)
    (C.Apply.contents apply)

let test_roll_guards () =
  let _, ctx, target = propagated ~seed:73 () in
  let apply = C.Apply.create_empty ctx ~t_initial:Time.origin in
  C.Apply.roll_to apply ~hwm:target (target / 2);
  Alcotest.(check bool) "backwards roll_to rejected" true
    (try
       C.Apply.roll_to apply ~hwm:target 1;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "beyond hwm rejected" true
    (try
       C.Apply.roll_to apply ~hwm:target (target + 5);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "roll_back_to ahead rejected" true
    (try
       C.Apply.roll_back_to apply (target + 1);
       false
     with Invalid_argument _ -> true)

let test_prune_applied () =
  let s, ctx, target = propagated ~seed:74 () in
  let apply = C.Apply.create_empty ctx ~t_initial:Time.origin in
  let mid = target / 2 in
  C.Apply.roll_to apply ~hwm:target mid;
  let removed = C.Apply.prune_applied apply in
  Alcotest.(check bool) "something pruned" true (removed > 0);
  (* Rolling forward after pruning still works and agrees with the oracle. *)
  C.Apply.roll_to apply ~hwm:target target;
  Alcotest.check relation "state after prune+roll"
    (C.Oracle.view_at s.history s.view target)
    (C.Apply.contents apply)

let test_create_materialized () =
  let s = two_table () in
  random_txns (Prng.create ~seed:75) s 20;
  let ctx = ctx_of s in
  let apply = C.Apply.create_materialized ctx in
  Alcotest.(check int) "as_of = now" (Database.now s.db) (C.Apply.as_of apply);
  Alcotest.check relation "contents = oracle"
    (C.Oracle.view_at s.history s.view (C.Apply.as_of apply))
    (C.Apply.contents apply)

(* Materialize mid-stream, keep updating, then roll forward from the
   materialization point. *)
let test_materialize_then_roll () =
  let s = two_table () in
  random_txns (Prng.create ~seed:76) s 15;
  let ctx = ctx_of s in
  let apply = C.Apply.create_materialized ctx in
  let t_mat = C.Apply.as_of apply in
  random_txns (Prng.create ~seed:77) s 15;
  let target = Database.now s.db in
  let p = C.Propagate.create ctx ~t_initial:t_mat in
  C.Propagate.run_until p ~target ~interval:4;
  C.Apply.roll_to apply ~hwm:(C.Propagate.hwm p) target;
  Alcotest.check relation "rolled from materialization"
    (C.Oracle.view_at s.history s.view target)
    (C.Apply.contents apply)

(* Ignoring rows beyond the high-water mark (Figure 3): partially-computed
   changes past the hwm must not leak into the applied state. *)
let prop_partial_delta_isolation =
  QCheck.Test.make ~name:"rows beyond hwm never applied" ~count:20
    QCheck.small_int
    (fun seed ->
      let s = two_table () in
      random_txns (Prng.create ~seed) s 30;
      let ctx = ctx_of s in
      inject_updates (Prng.create ~seed:(seed + 13)) s ctx ~per_execute:2;
      let r = C.Rolling.create ctx ~t_initial:Time.origin in
      (* Stop mid-flight: hwm < now, delta contains rows beyond hwm. *)
      for _ = 1 to 5 do
        match C.Rolling.step r ~policy:(C.Rolling.per_relation [| 3; 8 |]) with
        | `Advanced _ | `Idle -> ()
      done;
      let hwm = C.Rolling.hwm r in
      let apply = C.Apply.create_empty ctx ~t_initial:Time.origin in
      if hwm > Time.origin then begin
        C.Apply.roll_to apply ~hwm hwm;
        Roll_relation.Relation.equal
          (C.Oracle.view_at s.history s.view hwm)
          (C.Apply.contents apply)
      end
      else true)

let suite =
  [
    Alcotest.test_case "roll matches oracle at every time" `Quick
      test_roll_matches_oracle_at_every_time;
    Alcotest.test_case "one-shot equals stepwise" `Quick test_one_shot_equals_stepwise;
    Alcotest.test_case "roll back (extension)" `Quick test_roll_back;
    Alcotest.test_case "roll guards" `Quick test_roll_guards;
    Alcotest.test_case "prune applied rows" `Quick test_prune_applied;
    Alcotest.test_case "create materialized" `Quick test_create_materialized;
    Alcotest.test_case "materialize mid-stream then roll" `Quick test_materialize_then_roll;
    qtest prop_partial_delta_isolation;
  ]

let test_view_at_snapshots () =
  let s, ctx, target = propagated ~seed:78 () in
  let apply = C.Apply.create_empty ctx ~t_initial:Time.origin in
  let mid = target / 2 in
  C.Apply.roll_to apply ~hwm:target mid;
  let oracle t =
    Roll_relation.Relation.to_list (C.Oracle.view_at s.history s.view t)
  in
  let times = [ 0; mid / 2; mid; mid + ((target - mid) / 2); target ] in
  (* Snapshots forward and backward of as_of, without moving the view,
     as sorted rows. *)
  List.iter
    (fun t ->
      if Array.to_list (C.Apply.view_at apply ~hwm:target t) <> oracle t then
        Alcotest.failf "snapshot wrong at t=%d" t)
    times;
  (* Any snapshot rolls to any other time, forward or back. *)
  List.iter
    (fun from ->
      let rows = C.Apply.view_at apply ~hwm:target from in
      List.iter
        (fun t ->
          if Array.to_list (C.Apply.roll_rows apply ~hwm:target rows ~from t)
             <> oracle t
          then Alcotest.failf "snapshot at %d rolled to %d is wrong" from t)
        times)
    times;
  Alcotest.(check int) "as_of untouched" mid (C.Apply.as_of apply);
  Alcotest.(check bool) "beyond hwm rejected" true
    (try
       ignore (C.Apply.view_at apply ~hwm:target (target + 1));
       false
     with Invalid_argument _ -> true)

let suite =
  suite @ [ Alcotest.test_case "view_at snapshots" `Quick test_view_at_snapshots ]
