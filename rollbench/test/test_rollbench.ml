(* The benchmark's own rules: the percentile floor, the metric-name
   charset, per-transaction normalization, the result line, and the
   traced run's accounting identity (span self times plus uncovered time
   equal the phase wall time). *)

module Measure = Rollbench.Measure
module Spans = Rollbench.Spans
module Clock = Roll_obs.Clock
module Trace = Roll_obs.Trace

let raises f = match f () with _ -> false | exception Invalid_argument _ -> true

let samples n = Array.init n (fun i -> float_of_int (n - i))

(* --- percentiles --- *)

let test_p95_floor () =
  (match Measure.percentile (samples 200) 0.95 with
  | Ok v -> Alcotest.(check (float 0.)) "p95 of 1..200" 190. v
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "10 samples beyond p95 at 200" 10 (Measure.beyond 200 0.95);
  Alcotest.(check bool) "p95 refused at 199 samples" true
    (Result.is_error (Measure.percentile (samples 199) 0.95));
  Alcotest.(check bool) "p95 refused with no samples" true
    (Result.is_error (Measure.percentile [||] 0.95))

let test_highest_percentile () =
  let check n expect =
    Alcotest.(check (option (float 0.)))
      (Printf.sprintf "highest percentile at %d samples" n)
      expect (Measure.highest_percentile n)
  in
  check 19 None;
  check 20 (Some 0.5);
  check 199 (Some 0.9);
  check 200 (Some 0.95);
  check 999 (Some 0.95);
  check 1000 (Some 0.99);
  check 10_000 (Some 0.999)

let test_median () =
  (match Measure.median [| 3.; 1.; 2. |] with
  | Ok v -> Alcotest.(check (float 0.)) "median of three" 2. v
  | Error e -> Alcotest.fail e);
  (match Measure.median [| 4.; 1.; 3.; 2. |] with
  | Ok v -> Alcotest.(check (float 0.)) "lower median of four" 2. v
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "median of nothing" true
    (Result.is_error (Measure.median [||]))

let test_group_means () =
  Alcotest.(check (array (float 1e-12)))
    "means of whole groups" [| 1.5; 3.5 |]
    (Measure.group_means ~group:2 [| 1.; 2.; 3.; 4.; 5. |])

(* --- names and normalization --- *)

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) ("valid " ^ n) true (Measure.valid_name n))
    [ "setup_s"; "storage.commit_us_p50"; "a-b_c.d"; "0x"; String.make 64 'a' ];
  List.iter
    (fun n -> Alcotest.(check bool) ("invalid " ^ n) false (Measure.valid_name n))
    [ ""; "_x"; ".x"; "-x"; "a b"; "a/b"; "a:b"; "caf\xc3\xa9"; String.make 65 'a' ];
  Alcotest.(check bool) "metric refuses a bad name" true
    (raises (fun () -> Measure.metric "bad name" "s" 1.));
  Alcotest.(check bool) "metric refuses nan" true
    (raises (fun () -> Measure.metric "x" "s" Float.nan))

let test_per_ktxn () =
  Alcotest.(check (float 1e-12)) "per ktxn" 250. (Measure.per_ktxn ~txns:2000 500.);
  Alcotest.(check (float 1e-12)) "per txn" 2.5 (Measure.per_txn ~txns:4 10.);
  Alcotest.(check (float 1e-12)) "ktxn is 1000 txn"
    (1000. *. Measure.per_txn ~txns:7 3.) (Measure.per_ktxn ~txns:7 3.);
  Alcotest.(check bool) "no transactions refused" true
    (raises (fun () -> Measure.per_ktxn ~txns:0 1.));
  Alcotest.(check (float 0.)) "empty fraction" 0. (Measure.frac 3. 0.)

let test_result_line () =
  let line =
    Measure.result_line ~correct:true ~attempted:5 ~failed:1
      [ Measure.metric "a.b" "ms" 1.5; Measure.metric "c" "count" 2. ]
  in
  Alcotest.(check string) "result line"
    "{\"correct\": true, \"attempted\": 5, \"failed\": 1, \"metrics\": \
     {\"a.b\": {\"value\": 1.5, \"unit\": \"ms\"}, \"c\": {\"value\": 2, \
     \"unit\": \"count\"}}}"
    line

(* --- traced-run accounting --- *)

(* A phase on a manual clock: two root spans with nested children (one
   synthesized with record_complete, as executor operators are), gaps
   between them that no span covers, and a harvest in the middle. *)
let test_accounting () =
  let clock = Clock.manual ~start:100. () in
  let trace = Trace.create ~capacity:64 ~clock () in
  let acc = Spans.create () in
  let t0 = Clock.now clock in
  Clock.advance clock 0.5 (* uncovered *);
  Trace.with_span trace "bench.maintain" (fun () ->
      Clock.advance clock 1.;
      Trace.with_span trace "service.drain" (fun () ->
          Clock.advance clock 0.25;
          Trace.with_span trace "propagate.step" (fun () ->
              Clock.advance clock 2.);
          let start = Clock.now clock in
          Clock.advance clock 0.75;
          Trace.record_complete trace ~start ~stop:(Clock.now clock)
            "exec.operator"));
  Spans.harvest acc trace;
  Alcotest.(check int) "ring emptied" 0 (Trace.recorded trace);
  Clock.advance clock 1. (* uncovered *);
  Trace.with_span trace "bench.pump" (fun () -> Clock.advance clock 0.5);
  Spans.harvest acc trace;
  let wall = Clock.now clock -. t0 in
  let eq = Alcotest.(check (float 1e-9)) in
  eq "phase wall" 6. wall;
  eq "drain self" 0.25 (Spans.self acc "service.drain");
  eq "drain total" 3. (Spans.total acc "service.drain");
  eq "maintain self" 1. (Spans.self acc "bench.maintain");
  eq "roots" 4.5 (Spans.roots acc);
  eq "uncovered" 1.5 (Spans.uncovered acc ~wall);
  eq "self times sum to the roots" (Spans.roots acc) (Spans.self_sum acc);
  eq "self + uncovered = wall" 1. (Spans.accounted_frac acc ~wall);
  eq "nothing clamped" 0. (Spans.clamped acc);
  Alcotest.(check int) "step count" 1 (Spans.count acc "propagate.step")

(* A synthesized child longer than its parent is clamped, never negative. *)
let test_clamped () =
  let clock = Clock.manual () in
  let trace = Trace.create ~clock () in
  let acc = Spans.create () in
  Trace.with_span trace "exec.query" (fun () ->
      let start = Clock.now clock in
      Clock.advance clock 1.;
      Trace.record_complete trace ~start ~stop:(start +. 3.) "exec.operator");
  Spans.harvest acc trace;
  Alcotest.(check (float 1e-9)) "parent self floored" 0. (Spans.self acc "exec.query");
  Alcotest.(check (float 1e-9)) "clamped" 2. (Spans.clamped acc)

let test_harvest_refuses_open () =
  let trace = Trace.create ~clock:(Clock.manual ()) () in
  let acc = Spans.create () in
  Alcotest.(check bool) "open span refused" true
    (Trace.with_span trace "open" (fun () ->
         raises (fun () -> Spans.harvest acc trace)))

let () =
  Alcotest.run "rollbench"
    [
      ( "percentile",
        [
          Alcotest.test_case "p95 needs 200 samples" `Quick test_p95_floor;
          Alcotest.test_case "highest reportable" `Quick test_highest_percentile;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "group means" `Quick test_group_means;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "name charset" `Quick test_names;
          Alcotest.test_case "per ktxn" `Quick test_per_ktxn;
          Alcotest.test_case "result line" `Quick test_result_line;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self + uncovered = wall" `Quick test_accounting;
          Alcotest.test_case "clamped child" `Quick test_clamped;
          Alcotest.test_case "harvest with a span open" `Quick
            test_harvest_refuses_open;
        ] );
    ]
