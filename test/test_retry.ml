(* Retry/backoff policy: deterministic schedules under a fake clock, bounded
   attempts, transaction rollback on retry, and permanent failures surfacing
   through the service as typed errors. *)

open Test_support.Helpers
module Fault = Roll_util.Fault
module Retry = Roll_util.Retry

let test_delay_schedule () =
  let p = Retry.policy ~max_attempts:4 ~base_delay:0.01 ~multiplier:2.0 ~max_delay:1.0 () in
  Alcotest.(check (float 1e-9)) "attempt 1" 0.01 (Retry.delay p ~attempt:1);
  Alcotest.(check (float 1e-9)) "attempt 2" 0.02 (Retry.delay p ~attempt:2);
  Alcotest.(check (float 1e-9)) "attempt 3" 0.04 (Retry.delay p ~attempt:3);
  Alcotest.(check (list (float 1e-9))) "schedule" [ 0.01; 0.02; 0.04 ]
    (Retry.schedule p);
  (* The exponential is capped. *)
  let capped = Retry.policy ~max_attempts:10 ~base_delay:0.5 ~multiplier:3.0 ~max_delay:2.0 () in
  Alcotest.(check (float 1e-9)) "capped" 2.0 (Retry.delay capped ~attempt:7)

let test_success_after_transient () =
  let fault = Fault.transient_at "p" ~hit:1 ~failures:2 in
  let slept = ref [] in
  let attempts = ref 0 in
  let result =
    Retry.run
      (Retry.policy ~max_attempts:4 ~base_delay:0.01 ~multiplier:2.0 ~max_delay:1.0 ())
      ~sleep:(fun d -> slept := d :: !slept)
      (fun () ->
        incr attempts;
        Fault.hit fault "p";
        !attempts)
  in
  Alcotest.(check (result int reject)) "succeeds on third attempt" (Ok 3) result;
  (* Backoff under the fake clock is exactly the policy's schedule prefix. *)
  Alcotest.(check (list (float 1e-9))) "slept" [ 0.01; 0.02 ] (List.rev !slept)

let test_bounded_attempts () =
  let fault = Fault.transient_at "p" ~hit:1 ~failures:100 in
  let slept = ref 0 in
  let attempts = ref 0 in
  let result =
    Retry.run
      (Retry.policy ~max_attempts:3 ())
      ~sleep:(fun _ -> incr slept)
      (fun () ->
        incr attempts;
        Fault.hit fault "p")
  in
  (match result with
  | Ok () -> Alcotest.fail "expected permanent failure"
  | Error (f : Retry.failure) ->
      Alcotest.(check string) "failure point" "p" f.Retry.point;
      Alcotest.(check int) "attempts recorded" 3 f.Retry.attempts);
  Alcotest.(check int) "exactly max_attempts runs" 3 !attempts;
  Alcotest.(check int) "slept between attempts only" 2 !slept

let test_other_exceptions_propagate () =
  Alcotest.(check bool) "Failure passes through untouched" true
    (try
       ignore (Retry.run Retry.default ~sleep:(fun _ -> ()) (fun () -> failwith "boom"));
       false
     with Failure _ -> true);
  let fault = Fault.crash_at "p" ~hit:1 in
  Alcotest.(check bool) "Crash is never retried" true
    (try
       ignore
         (Retry.run Retry.default ~sleep:(fun _ -> ()) (fun () -> Fault.hit fault "p"));
       false
     with Fault.Crash ("p", 1) -> true)

(* A transient failure after the forward query has already emitted rows must
   not double-count them: the reliable step rolls the view delta back to the
   pre-step mark before re-running, and the final delta still matches the
   oracle. *)
let test_retry_rolls_back_partial_step () =
  let s = two_table () in
  let rng = Prng.create ~seed:150 in
  random_txns rng s 30;
  let service = C.Service.create s.db s.capture in
  let ctl =
    C.Service.register service ~algorithm:(C.Controller.Rolling (C.Rolling.uniform 7)) s.view
  in
  (* Registration materializes at the current time, so commit more work for
     the propagator to roll through. *)
  random_txns rng s 30;
  (* Fail the step twice *after* forward rows were emitted. *)
  (C.Controller.ctx ctl).C.Ctx.fault <-
    Fault.create
      ~rules:[ Fault.Transient_at { point = "rolling.post_forward"; first = 2; failures = 2 } ]
      ();
  let retry = Retry.policy ~max_attempts:4 () in
  (match C.Service.try_step_all ~sleep:(fun _ -> ()) service ~budget:1000 ~retry with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "unexpected permanent failure at %s" e.C.Service.point);
  let stats = C.Controller.counters ctl in
  Alcotest.(check int) "two retries" 2 (C.Counters.count stats C.Counters.retries);
  Alcotest.(check int) "one recovery" 1 (C.Counters.count stats C.Counters.recoveries);
  Alcotest.(check int) "no aborts" 0 (C.Counters.count stats C.Counters.aborts);
  let target = C.Controller.hwm ctl in
  check_ok
    (C.Oracle.check_timed_view_delta s.history s.view
       (C.Controller.ctx ctl).C.Ctx.out
       ~lo:(C.Controller.as_of ctl) ~hi:target)

let test_permanent_failure_through_service () =
  let s = two_table () in
  random_txns (Prng.create ~seed:151) s 20;
  let service = C.Service.create s.db s.capture in
  let ctl =
    C.Service.register service ~algorithm:(C.Controller.Uniform 5) s.view
  in
  random_txns (Prng.create ~seed:152) s 20;
  let before = Roll_delta.Delta.length (C.Controller.ctx ctl).C.Ctx.out in
  (C.Controller.ctx ctl).C.Ctx.fault <-
    Fault.create
      ~rules:[ Fault.Transient_at { point = "exec.query"; first = 1; failures = 1000 } ]
      ();
  (match
     C.Service.try_step_all ~sleep:(fun _ -> ()) service ~budget:10
       ~retry:(Retry.policy ~max_attempts:3 ())
   with
  | Ok _ -> Alcotest.fail "expected a permanent failure"
  | Error (e : C.Service.step_error) ->
      Alcotest.(check string) "failing view" "rs" e.C.Service.view;
      Alcotest.(check string) "failing point" "exec.query" e.C.Service.point;
      Alcotest.(check int) "attempts" 3 e.C.Service.attempts);
  Alcotest.(check int) "aborted step left no partial rows" before
    (Roll_delta.Delta.length (C.Controller.ctx ctl).C.Ctx.out);
  let st = List.hd (C.Service.status service) in
  Alcotest.(check int) "status retries" 2 (C.Service.count st C.Counters.retries);
  Alcotest.(check int) "status aborts" 1 (C.Service.count st C.Counters.aborts);
  Alcotest.(check int) "status recoveries" 0
    (C.Service.count st C.Counters.recoveries)

let suite =
  [
    Alcotest.test_case "delay and schedule" `Quick test_delay_schedule;
    Alcotest.test_case "success after transient failures" `Quick
      test_success_after_transient;
    Alcotest.test_case "bounded attempts" `Quick test_bounded_attempts;
    Alcotest.test_case "other exceptions propagate" `Quick
      test_other_exceptions_propagate;
    Alcotest.test_case "retry rolls back partial step" `Quick
      test_retry_rolls_back_partial_step;
    Alcotest.test_case "permanent failure surfaces typed" `Quick
      test_permanent_failure_through_service;
  ]
