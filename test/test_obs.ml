(* Rollscope: clock injection, the span recorder, the metric registry and
   the exporters — plus two integration properties: every trace the
   crash-recovery fault harness produces is balanced and well-nested
   (seeds 0..99, crashed steps surfacing as error spans), and a fully
   observed service drain records the whole capture → propagate → apply →
   checkpoint taxonomy with the advertised metrics. *)

open Test_support.Helpers
module Harness = Test_support.Fault_harness
module Clock = Roll_obs.Clock
module Trace = Roll_obs.Trace
module Metrics = Roll_obs.Metrics
module Export = Roll_obs.Export
module Obs = Roll_obs.Obs
module W = Roll_workload
module Json = Roll_util.Json
module Tuple = Roll_relation.Tuple

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)

let test_manual_clock () =
  let c = Clock.manual ~start:10. ~tick:0.5 () in
  Alcotest.(check bool) "manual" true (Clock.is_manual c);
  Alcotest.(check (float 0.)) "first read" 10. (Clock.now c);
  Alcotest.(check (float 0.)) "ticked" 10.5 (Clock.now c);
  Clock.advance c 4.;
  Alcotest.(check (float 0.)) "advanced" 15. (Clock.now c);
  let frozen = Clock.manual ~start:1. () in
  Alcotest.(check (float 0.)) "frozen 1" 1. (Clock.now frozen);
  Alcotest.(check (float 0.)) "frozen 2" 1. (Clock.now frozen);
  Alcotest.(check bool) "negative tick refused" true
    (raises_invalid (fun () -> Clock.manual ~tick:(-1.) ()))

let test_real_clock () =
  let c = Clock.real () in
  Alcotest.(check bool) "not manual" false (Clock.is_manual c);
  let a = Clock.now c in
  let b = Clock.now c in
  Alcotest.(check bool) "monotone-ish" true (b >= a);
  Alcotest.(check bool) "advance refused" true
    (raises_invalid (fun () -> Clock.advance c 1.))

(* ------------------------------------------------------------------ *)
(* Trace recorder                                                      *)

let make_trace ?capacity () =
  Trace.create ?capacity ~clock:(Clock.manual ~start:1. ~tick:0.5 ()) ()

let test_span_nesting () =
  let tr = make_trace () in
  Trace.with_span tr
    ~attrs:[ ("view", Trace.Str "rs") ]
    "propagate.step"
    (fun () ->
      Trace.with_span tr "exec.query" (fun () ->
          Trace.add_attr tr "rows" (Trace.Int 3)));
  Alcotest.(check int) "balanced" 0 (Trace.open_count tr);
  match Trace.spans tr with
  | [ outer; inner ] ->
      Alcotest.(check string) "outer name" "propagate.step" outer.Trace.name;
      Alcotest.(check int) "outer root" 0 outer.Trace.parent;
      Alcotest.(check int) "outer depth" 0 outer.Trace.depth;
      Alcotest.(check (float 0.)) "outer start" 1. outer.Trace.start;
      Alcotest.(check (float 0.)) "outer stop" 2.5 outer.Trace.stop;
      Alcotest.(check string) "inner name" "exec.query" inner.Trace.name;
      Alcotest.(check int) "inner parent" outer.Trace.id inner.Trace.parent;
      Alcotest.(check int) "inner depth" 1 inner.Trace.depth;
      Alcotest.(check (float 0.)) "inner start" 1.5 inner.Trace.start;
      Alcotest.(check (float 0.)) "inner stop" 2. inner.Trace.stop;
      Alcotest.(check bool) "inner attr landed" true
        (List.mem_assoc "rows" inner.Trace.attrs);
      Alcotest.(check bool) "outer ok" true (outer.Trace.status = Trace.Ok)
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

exception Boom

let test_exception_closes_with_error () =
  let tr = make_trace () in
  (try
     Trace.with_span tr "sched.item" (fun () ->
         Trace.with_span tr "propagate.step" (fun () -> raise Boom))
   with Boom -> ());
  Alcotest.(check int) "balanced after unwind" 0 (Trace.open_count tr);
  let errored =
    List.for_all
      (fun (s : Trace.span) ->
        match s.Trace.status with Trace.Error _ -> true | Trace.Ok -> false)
      (Trace.spans tr)
  in
  Alcotest.(check bool) "both spans errored" true errored;
  Alcotest.(check int) "both recorded" 2 (Trace.recorded tr)

let test_set_error_sticks () =
  let tr = make_trace () in
  Trace.with_span tr "apply.roll" (fun () -> Trace.set_error tr "late rows");
  match Trace.spans tr with
  | [ s ] ->
      Alcotest.(check bool) "status stuck" true
        (s.Trace.status = Trace.Error "late rows")
  | _ -> Alcotest.fail "expected one span"

let test_record_complete () =
  let tr = make_trace () in
  Trace.with_span tr "exec.query" (fun () ->
      Trace.record_complete tr ~start:1.6 ~stop:1.9
        ~attrs:[ ("resource", Trace.Str "fact") ]
        "exec.operator");
  (match Trace.spans tr with
  | [ parent; op ] ->
      Alcotest.(check string) "synth name" "exec.operator" op.Trace.name;
      Alcotest.(check int) "parented under open span" parent.Trace.id
        op.Trace.parent;
      Alcotest.(check (float 0.)) "kept start" 1.6 op.Trace.start;
      Alcotest.(check (float 0.)) "kept stop" 1.9 op.Trace.stop
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans));
  Alcotest.(check bool) "stop < start refused" true
    (raises_invalid (fun () ->
         Trace.record_complete tr ~start:2. ~stop:1. "exec.operator"))

let test_abort_open () =
  let tr = make_trace () in
  (* Model a hard process death: open spans by hand via an exception-free
     path, then abort. with_span cannot leave spans open, so nest and
     abort from inside. *)
  Trace.with_span tr "service.drain" (fun () ->
      Trace.abort_open tr ~reason:"killed");
  Alcotest.(check int) "nothing open" 0 (Trace.open_count tr);
  let aborted =
    List.exists
      (fun (s : Trace.span) -> s.Trace.status = Trace.Error "killed")
      (Trace.spans tr)
  in
  Alcotest.(check bool) "aborted span recorded" true aborted

let test_ring_overwrite () =
  let tr = make_trace ~capacity:4 () in
  for i = 1 to 6 do
    Trace.with_span tr (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  Alcotest.(check int) "recorded counts all" 6 (Trace.recorded tr);
  Alcotest.(check int) "dropped the overflow" 2 (Trace.dropped tr);
  let names = List.map (fun (s : Trace.span) -> s.Trace.name) (Trace.spans tr) in
  Alcotest.(check (list string)) "oldest overwritten" [ "s3"; "s4"; "s5"; "s6" ]
    names

let test_noop_trace () =
  let tr = Trace.noop () in
  Alcotest.(check bool) "disabled" false (Trace.enabled tr);
  let r = Trace.with_span tr "anything" (fun () -> 42) in
  Alcotest.(check int) "transparent" 42 r;
  Alcotest.(check int) "nothing recorded" 0 (Trace.recorded tr)

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)

let test_metrics_basics () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~labels:[ ("view", "rs") ] "roll_demo_total" in
  Metrics.inc c;
  Metrics.add c 2.;
  (* Get-or-create: same (name, labels) is the same instrument. *)
  let c' = Metrics.counter m ~labels:[ ("view", "rs") ] "roll_demo_total" in
  Metrics.inc c';
  Alcotest.(check (float 0.)) "accumulated" 4. (Metrics.value c);
  Alcotest.(check bool) "negative add refused" true
    (raises_invalid (fun () -> Metrics.add c (-1.)));
  Alcotest.(check bool) "kind clash refused" true
    (raises_invalid (fun () -> ignore (Metrics.gauge m "roll_demo_total")));
  let g = Metrics.gauge m "roll_demo_gauge" in
  Metrics.set g 4.5;
  Alcotest.(check (option (float 0.))) "find counter" (Some 4.)
    (Metrics.find_value m ~labels:[ ("view", "rs") ] "roll_demo_total");
  Alcotest.(check (option (float 0.))) "find gauge" (Some 4.5)
    (Metrics.find_value m "roll_demo_gauge");
  Alcotest.(check (option (float 0.))) "missing series" None
    (Metrics.find_value m ~labels:[ ("view", "other") ] "roll_demo_total");
  let h = Metrics.histogram m ~buckets:[| 0.1; 1. |] "roll_demo_seconds" in
  List.iter (Metrics.observe h) [ 0.05; 0.5; 5. ];
  Alcotest.(check int) "hist count" 3 (Metrics.hist_count h);
  Metrics.reset m;
  Alcotest.(check (float 0.)) "counter reset" 0. (Metrics.value c);
  Alcotest.(check int) "hist reset" 0 (Metrics.hist_count h)

let test_collectors_merge () =
  let m = Metrics.create () in
  let a = ref 1. and b = ref 2. in
  Metrics.register_collector m (fun () ->
      [ Metrics.sample ~kind:Metrics.Gauge "roll_pool" [ ([ ("view", "a") ], !a) ] ]);
  Metrics.register_collector m (fun () ->
      [ Metrics.sample ~kind:Metrics.Gauge "roll_pool" [ ([ ("view", "b") ], !b) ] ]);
  let family =
    List.find
      (fun (sf : Metrics.sample_family) -> sf.Metrics.sf_name = "roll_pool")
      (Metrics.snapshot m)
  in
  Alcotest.(check int) "merged series" 2 (List.length family.Metrics.points);
  (* Read-through: a later snapshot sees the live value, no caching. *)
  a := 10.;
  Alcotest.(check (option (float 0.))) "live read-through" (Some 10.)
    (Metrics.find_value m ~labels:[ ("view", "a") ] "roll_pool");
  Alcotest.(check bool) "histogram sample refused" true
    (raises_invalid (fun () ->
         Metrics.sample ~kind:Metrics.Histogram "roll_h" []))

let test_snapshot_sorted () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "roll_z_total");
  ignore (Metrics.counter m "roll_a_total");
  ignore (Metrics.counter m ~labels:[ ("view", "z") ] "roll_m_total");
  ignore (Metrics.counter m ~labels:[ ("view", "a") ] "roll_m_total");
  let names =
    List.map (fun (sf : Metrics.sample_family) -> sf.Metrics.sf_name)
      (Metrics.snapshot m)
  in
  Alcotest.(check (list string)) "families sorted"
    [ "roll_a_total"; "roll_m_total"; "roll_z_total" ]
    names;
  let family =
    List.find
      (fun (sf : Metrics.sample_family) -> sf.Metrics.sf_name = "roll_m_total")
      (Metrics.snapshot m)
  in
  let labels =
    List.map (fun (p : Metrics.point) -> p.Metrics.p_labels) family.Metrics.points
  in
  Alcotest.(check bool) "points sorted by labels" true
    (labels = [ [ ("view", "a") ]; [ ("view", "z") ] ])

(* ------------------------------------------------------------------ *)
(* Exporter goldens (deterministic manual clock)                       *)

let golden_trace () =
  let tr = make_trace () in
  Trace.with_span tr
    ~attrs:[ ("view", Trace.Str "rs") ]
    "propagate.step"
    (fun () ->
      Trace.with_span tr "exec.query" (fun () ->
          Trace.add_attr tr "rows" (Trace.Int 3)));
  tr

let test_chrome_trace_golden () =
  let expected =
    "{\n\
    \  \"traceEvents\": [\n\
    \    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"args\": \
     {\"name\": \"test\"}},\n\
    \    {\"name\": \"propagate.step\", \"cat\": \"propagate\", \"ph\": \"X\", \
     \"ts\": 1000000, \"dur\": 1500000, \"pid\": 1, \"tid\": 1, \"args\": \
     {\"view\": \"rs\", \"status\": \"ok\"}},\n\
    \    {\"name\": \"exec.query\", \"cat\": \"exec\", \"ph\": \"X\", \"ts\": \
     1500000, \"dur\": 500000, \"pid\": 1, \"tid\": 1, \"args\": {\"rows\": \
     3, \"status\": \"ok\"}}\n\
    \  ],\n\
    \  \"displayTimeUnit\": \"ms\"\n\
     }\n"
  in
  Alcotest.(check string) "chrome trace" expected
    (Export.chrome_trace ~process:"test" (golden_trace ()))

let test_spans_jsonl_golden () =
  let expected =
    "{\"id\":1,\"parent\":0,\"depth\":0,\"name\":\"propagate.step\",\
     \"start\":1,\"stop\":2.5,\"view\":\"rs\",\"status\":\"ok\"}\n\
     {\"id\":2,\"parent\":1,\"depth\":1,\"name\":\"exec.query\",\
     \"start\":1.5,\"stop\":2,\"rows\":3,\"status\":\"ok\"}\n"
  in
  Alcotest.(check string) "spans jsonl" expected
    (Export.spans_jsonl (golden_trace ()))

let test_prometheus_golden () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~help:"demo counter" ~labels:[ ("view", "rs") ] "roll_demo_total" in
  Metrics.inc c;
  Metrics.add c 2.;
  let g = Metrics.gauge m "roll_demo_gauge" in
  Metrics.set g 4.5;
  let h = Metrics.histogram m ~buckets:[| 0.1; 1. |] "roll_demo_seconds" in
  List.iter (Metrics.observe h) [ 0.05; 0.5; 5. ];
  Metrics.register_collector m (fun () ->
      [ Metrics.sample ~kind:Metrics.Gauge "roll_demo_collected" [ ([ ("k", "a") ], 7.) ] ]);
  let expected =
    "# TYPE roll_demo_collected gauge\n\
     roll_demo_collected{k=\"a\"} 7\n\
     # TYPE roll_demo_gauge gauge\n\
     roll_demo_gauge 4.5\n\
     # TYPE roll_demo_seconds histogram\n\
     roll_demo_seconds_bucket{le=\"0.1\"} 1\n\
     roll_demo_seconds_bucket{le=\"1\"} 2\n\
     roll_demo_seconds_bucket{le=\"+Inf\"} 3\n\
     roll_demo_seconds_sum 5.55\n\
     roll_demo_seconds_count 3\n\
     # HELP roll_demo_total demo counter\n\
     # TYPE roll_demo_total counter\n\
     roll_demo_total{view=\"rs\"} 3\n"
  in
  Alcotest.(check string) "prometheus" expected (Export.prometheus m)

(* ------------------------------------------------------------------ *)
(* Trace-integrity property                                            *)

(* Every recorded trace must be balanced (no dangling open spans) and
   well-nested: a child's interval lies inside its parent's. [eps] absorbs
   float-sum rounding in the synthesized operator spans. *)
let check_well_nested ~tag trace =
  if Trace.open_count trace <> 0 then
    Alcotest.failf "%s: %d spans left open" tag (Trace.open_count trace);
  let spans = Trace.spans trace in
  let by_id = Hashtbl.create 256 in
  List.iter (fun (s : Trace.span) -> Hashtbl.replace by_id s.Trace.id s) spans;
  let eps = 1e-9 in
  List.iter
    (fun (s : Trace.span) ->
      if s.Trace.stop +. eps < s.Trace.start then
        Alcotest.failf "%s: span %d (%s) stops before it starts" tag s.Trace.id
          s.Trace.name;
      if s.Trace.parent <> 0 then
        match Hashtbl.find_opt by_id s.Trace.parent with
        | None ->
            (* Parent lost to ring overwrite; containment unknowable. *)
            ()
        | Some p ->
            if
              s.Trace.start +. eps < p.Trace.start
              || s.Trace.stop > p.Trace.stop +. eps
            then
              Alcotest.failf
                "%s: span %d (%s) [%g, %g] escapes parent %d (%s) [%g, %g]"
                tag s.Trace.id s.Trace.name s.Trace.start s.Trace.stop
                p.Trace.id p.Trace.name p.Trace.start p.Trace.stop)
    spans;
  by_id

let has_error_span trace =
  List.exists
    (fun (s : Trace.span) ->
      match s.Trace.status with Trace.Error _ -> true | Trace.Ok -> false)
    (Trace.spans trace)

(* The crash-recovery harness under a manual-clock Rollscope handle:
   seeds 0..99, each run crashing at a random reachable fault site and
   then recovering. The trace must stay balanced and well-nested across
   the crash, and crashes that fire inside instrumented work must surface
   as error-status spans — never dangling open ones. *)
let test_trace_integrity_under_crash () =
  let error_runs = ref 0 in
  for seed = 0 to 99 do
    let obs = Obs.create ~clock:(Clock.manual ~tick:1e-6 ()) () in
    ignore (Harness.run_seed ~obs ~txns:10 seed);
    let trace = Obs.trace obs in
    let tag = Printf.sprintf "seed %d" seed in
    if Trace.recorded trace = 0 then Alcotest.failf "%s: empty trace" tag;
    ignore (check_well_nested ~tag trace);
    if has_error_span trace then incr error_runs
  done;
  (* The harness crashes every seed; most sites live inside spans, so a
     healthy instrumentation shows plenty of error spans across 100 runs. *)
  if !error_runs = 0 then
    Alcotest.fail "no crashed run surfaced an error-status span"

(* ------------------------------------------------------------------ *)
(* End-to-end observed service drain                                   *)

let test_observed_service_drain () =
  let obs = Obs.create ~clock:(Clock.manual ~tick:1e-6 ()) () in
  let star = W.Star.create W.Star.default_config in
  W.Star.load_initial star;
  let db = W.Star.db star in
  let service = C.Service.create ~obs db (W.Star.capture star) in
  let view = W.Star.view star in
  let _ =
    C.Service.register ~durable:true service
      ~algorithm:(C.Controller.Rolling (C.Rolling.per_relation [| 10; 80; 80 |]))
      view
  in
  let ckpt = Filename.temp_file "rollobs" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove ckpt with Sys_error _ -> ())
  @@ fun () ->
  C.Service.set_checkpoint service (C.View.name view) ~path:ckpt ~every:1;
  W.Star.mixed_txns star ~n:120 ~dim_fraction:0.05;
  (match C.Service.maintain service ~budget:200 with
  | Ok items -> Alcotest.(check bool) "drain did work" true (items > 0)
  | Error (e : C.Service.step_error) ->
      Alcotest.failf "drain failed at %s" e.point);
  let trace = Obs.trace obs in
  let by_id = check_well_nested ~tag:"service drain" trace in
  (* The acceptance taxonomy: one drain's trace covers capture, propagate
     (with per-ComputeDelta-node and per-operator children), apply and
     checkpoint. *)
  List.iter
    (fun name ->
      if Trace.find trace ~name = [] then
        Alcotest.failf "no %S span in the drain trace" name)
    [
      "service.drain"; "sched.item"; "propagate.step"; "compute_delta.node";
      "exec.query"; "exec.operator"; "capture.advance"; "apply.roll";
      "checkpoint.write";
    ];
  (* Every ComputeDelta node recorded during the drain descends from a
     propagation step. *)
  let rec has_ancestor (s : Trace.span) name =
    match Hashtbl.find_opt by_id s.Trace.parent with
    | None -> false
    | Some p -> p.Trace.name = name || has_ancestor p name
  in
  List.iter
    (fun (s : Trace.span) ->
      if not (has_ancestor s "propagate.step") then
        Alcotest.failf "compute_delta.node %d outside any propagate.step"
          s.Trace.id)
    (Trace.find trace ~name:"compute_delta.node");
  (* The advertised metrics: step-latency histograms per item kind and the
     per-view memo counters, exposable as Prometheus text. *)
  let m = Obs.metrics obs in
  let latency =
    List.find_opt
      (fun (sf : Metrics.sample_family) ->
        sf.Metrics.sf_name = "roll_item_latency_seconds")
      (Metrics.snapshot m)
  in
  (match latency with
  | None -> Alcotest.fail "no roll_item_latency_seconds family"
  | Some sf ->
      Alcotest.(check bool) "histogram kind" true
        (sf.Metrics.sf_kind = Metrics.Histogram);
      let kinds =
        List.filter_map
          (fun (p : Metrics.point) -> List.assoc_opt "kind" p.Metrics.p_labels)
          sf.Metrics.points
      in
      Alcotest.(check bool) "propagate latency series" true
        (List.mem "propagate" kinds));
  (match
     Metrics.find_value m
       ~labels:[ ("view", C.View.name view) ]
       "roll_memo_hits_total"
   with
  | Some _ -> ()
  | None -> Alcotest.fail "no per-view roll_memo_hits_total counter");
  let prom = Export.prometheus m in
  Alcotest.(check bool) "prometheus text mentions latency" true
    (contains prom "roll_item_latency_seconds_bucket");
  let chrome = Export.chrome_trace trace in
  Alcotest.(check bool) "chrome export mentions propagate" true
    (contains chrome "\"propagate.step\"")

(* ------------------------------------------------------------------ *)
(* One store: the service's collector walks its live views              *)

let rolling n = C.Controller.Rolling (C.Rolling.uniform n)

(* Skewed R rows (a few heavy join keys) and a few S rows, so sharing,
   the auxiliary and the hotset all have work. *)
let skewed_churn s ~rng ~n =
  let zipf = Roll_util.Zipf.create ~n:8 ~theta:1.5 in
  for i = 1 to n do
    ignore
      (Database.run s.db (fun txn ->
           Database.insert txn ~table:"r"
             (Tuple.ints
                [ Roll_util.Zipf.sample zipf rng; Prng.int rng 5; Prng.int rng 5 ]);
           if i mod 5 = 0 then
             Database.insert txn ~table:"s"
               (Tuple.ints [ Prng.int rng 8; Prng.int rng 5 ])))
  done

let view_series snapshot view =
  List.concat_map
    (fun (sf : Metrics.sample_family) ->
      List.filter_map
        (fun (p : Metrics.point) ->
          if List.assoc_opt "view" p.Metrics.p_labels = Some view then
            Some (sf.Metrics.sf_name, p.Metrics.p_labels)
          else None)
        sf.Metrics.points)
    snapshot

let test_unregister_drops_series () =
  let s = filtered () in
  let obs = Obs.create ~clock:(Clock.manual ()) () in
  let svc =
    C.Service.create ~obs ~sharing:false ~auxiliary:true ~hotset:false s.db
      s.capture
  in
  let m = Obs.metrics obs in
  let rng = Prng.create ~seed:3 in
  let register () =
    ignore (C.Service.register svc ~algorithm:(rolling 3) s.view);
    skewed_churn s ~rng ~n:10;
    ignore (C.Service.step_all svc ~budget:max_int)
  in
  register ();
  let parts = List.filter (fun n -> n <> "rsf") (C.Service.names svc) in
  Alcotest.(check bool) "an auxiliary entry exists" true (parts <> []);
  Alcotest.(check bool) "the view exports series" true
    (view_series (Metrics.snapshot m) "rsf" <> []);
  C.Service.unregister svc "rsf";
  List.iter
    (fun v ->
      Alcotest.(check (list (pair string (list (pair string string)))))
        (v ^ " leaves no series") []
        (view_series (Metrics.snapshot m) v))
    ("rsf" :: parts);
  (* Three more register/unregister cycles, then a fourth registration:
     one series per metric and label set, as after the first. *)
  for _ = 1 to 3 do
    register ();
    C.Service.unregister svc "rsf"
  done;
  register ();
  let series = view_series (Metrics.snapshot m) "rsf" in
  Alcotest.(check int) "no duplicate series"
    (List.length (List.sort_uniq compare series))
    (List.length series);
  Alcotest.(check int) "one roll_view_hwm point for the view" 1
    (List.length (List.filter (fun (n, _) -> n = "roll_view_hwm") series));
  let hwm_points =
    match
      List.find_opt
        (fun (sf : Metrics.sample_family) -> sf.Metrics.sf_name = "roll_view_hwm")
        (Metrics.snapshot m)
    with
    | Some sf -> List.length sf.Metrics.points
    | None -> 0
  in
  Alcotest.(check int) "one roll_view_hwm point per live entry"
    (List.length (C.Service.names svc))
    hwm_points;
  C.Service.shutdown svc

(* [name{view="v"} value] in a Prometheus exposition. *)
let prom_value text ~name ~view =
  let prefix = Printf.sprintf "%s{view=\"%s\"} " name view in
  let n = String.length prefix in
  List.find_map
    (fun line ->
      if String.length line > n && String.sub line 0 n = prefix then
        float_of_string_opt (String.sub line n (String.length line - n))
      else None)
    (String.split_on_char '\n' text)

let test_status_is_the_export () =
  let s = filtered () in
  let obs = Obs.create ~clock:(Clock.manual ()) () in
  let svc =
    C.Service.create ~obs ~sharing:true ~auxiliary:true ~hotset:true
      ~default_sla:500 s.db s.capture
  in
  ignore (C.Service.register svc ~algorithm:(rolling 3) s.view);
  let twin = clone_view s.db s.view ~name:"rsf2" in
  ignore (C.Service.register svc ~algorithm:(rolling 3) twin);
  let rng = Prng.create ~seed:11 in
  for _ = 1 to 6 do
    skewed_churn s ~rng ~n:20;
    ignore (C.Service.step_all svc ~budget:12);
    ignore (C.Service.step_all svc ~budget:12);
    C.Service.refresh_all svc
  done;
  let status = C.Service.status svc in
  Alcotest.(check bool) "a heavy partial is live" true
    (List.exists
       (fun (st : C.Service.status) -> st.C.Service.role = C.Service.Heavy_partial)
       status);
  Alcotest.(check bool) "the memo served a replay" true
    (List.exists
       (fun (st : C.Service.status) ->
         C.Service.count st C.Counters.memo_hits > 0)
       status);
  let prom = Export.prometheus (Obs.metrics obs) in
  (* A valid exposition names each series once (storage gauges included,
     under ROLL_STORE=disk). *)
  let series =
    List.filter_map
      (fun line ->
        if line = "" || line.[0] = '#' then None
        else Some (List.hd (String.split_on_char ' ' line)))
      (String.split_on_char '\n' prom)
  in
  Alcotest.(check int) "no duplicate series"
    (List.length (List.sort_uniq String.compare series))
    (List.length series);
  List.iter
    (fun (st : C.Service.status) ->
      List.iter
        (fun (sf : Metrics.sample_family) ->
          List.iter
            (fun (p : Metrics.point) ->
              if p.Metrics.p_labels = [] then
                match prom_value prom ~name:sf.Metrics.sf_name ~view:st.C.Service.name with
                | None ->
                    Alcotest.failf "%s of %s missing from the export"
                      sf.Metrics.sf_name st.C.Service.name
                | Some v ->
                    if Float.abs (v -. p.Metrics.p_value) > 1e-6 *. Float.abs v
                    then
                      Alcotest.failf "%s of %s: status %g, export %g"
                        sf.Metrics.sf_name st.C.Service.name p.Metrics.p_value v)
            sf.Metrics.points)
        st.C.Service.counters;
      Alcotest.(check (option (float 0.)))
        (st.C.Service.name ^ " hwm gauge")
        (Some (float_of_int st.C.Service.hwm))
        (prom_value prom ~name:"roll_view_hwm" ~view:st.C.Service.name))
    status;
  (* Every JSON report prints as text the codec parses back unchanged. *)
  List.iter
    (fun (what, json) ->
      let text = Json.to_string json in
      match Json.of_string_opt text with
      | Some back when back = json -> ()
      | Some _ -> Alcotest.failf "%s changed on a round trip" what
      | None -> Alcotest.failf "%s does not parse: %s" what text)
    [
      ("status_json", C.Service.status_json svc);
      ("schedule_json", C.Service.schedule_json ~full:true svc);
      ("shards_json", C.Service.shards_json ~full:true svc);
      ("storage_json", Database.storage_json s.db);
    ];
  C.Service.shutdown svc

let suite =
  [
    Alcotest.test_case "manual clock" `Quick test_manual_clock;
    Alcotest.test_case "real clock" `Quick test_real_clock;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "exception closes with error" `Quick
      test_exception_closes_with_error;
    Alcotest.test_case "set_error sticks" `Quick test_set_error_sticks;
    Alcotest.test_case "record_complete" `Quick test_record_complete;
    Alcotest.test_case "abort_open" `Quick test_abort_open;
    Alcotest.test_case "ring overwrite" `Quick test_ring_overwrite;
    Alcotest.test_case "noop trace" `Quick test_noop_trace;
    Alcotest.test_case "metrics basics" `Quick test_metrics_basics;
    Alcotest.test_case "collectors merge" `Quick test_collectors_merge;
    Alcotest.test_case "snapshot sorted" `Quick test_snapshot_sorted;
    Alcotest.test_case "chrome trace golden" `Quick test_chrome_trace_golden;
    Alcotest.test_case "spans jsonl golden" `Quick test_spans_jsonl_golden;
    Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
    Alcotest.test_case "trace integrity under 100 crash seeds" `Quick
      test_trace_integrity_under_crash;
    Alcotest.test_case "observed service drain" `Quick
      test_observed_service_drain;
    Alcotest.test_case "unregister drops a view's series" `Quick
      test_unregister_drops_series;
    Alcotest.test_case "status counters are the export" `Quick
      test_status_is_the_export;
  ]
