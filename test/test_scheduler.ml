(* The unified maintenance scheduler: policy ordering, capture
   backpressure (with and without fault injection), full maintain drains
   and the service's durable pause/crash/recover path. *)

open Test_support.Helpers
module Harness = Test_support.Fault_harness
module Fault = Roll_util.Fault
module C = Roll_core

let sched_counter service kind =
  C.Stats.sched_kind (C.Scheduler.stats (C.Service.scheduler service)) kind

(* Two single-source views over the two_table scenario, so propagation
   stays legal while the scheduler (not the context) drives capture:
   multi-source compensation windows would reach each step's own commit
   time, past any lagging capture hwm. *)
let single_source_scenario ?policy ?capture_batch () =
  let s = two_table () in
  let br = C.View.binder s.db [ ("r", "r") ] in
  let vr =
    C.View.create s.db ~name:"vr" ~sources:[ ("r", "r") ] ~predicate:[]
      ~project:[ br "r" "k"; br "r" "v" ]
  in
  let bs = C.View.binder s.db [ ("s", "s") ] in
  let vs =
    C.View.create s.db ~name:"vs" ~sources:[ ("s", "s") ] ~predicate:[]
      ~project:[ bs "s" "k"; bs "s" "w" ]
  in
  let service = C.Service.create ?policy ?capture_batch s.db s.capture in
  let ctl_r =
    C.Service.register service ~algorithm:(C.Controller.Uniform 2) vr
  in
  let ctl_s =
    C.Service.register service ~algorithm:(C.Controller.Uniform 3) vs
  in
  (* Scheduler-managed capture: steps must not advance the cursor
     themselves, so capture lag is real and backpressure must resolve it. *)
  (C.Controller.ctx ctl_r).C.Ctx.auto_capture <- false;
  (C.Controller.ctx ctl_s).C.Ctx.auto_capture <- false;
  (s, service)

let check_view_contents s service name =
  let ctl = C.Service.controller service name in
  let target = C.Controller.hwm ctl in
  C.Controller.refresh_to ctl target;
  Alcotest.check relation (name ^ " contents vs oracle")
    (C.Oracle.view_at s.history (C.Controller.view ctl) target)
    (C.Controller.contents ctl)

(* Capture backpressure: with the cursor far behind, every propagate window
   reaches past the capture hwm; the drain must defer those steps, boost
   batched capture advances, and still finish fully caught up — lag can
   defer propagation but never deadlock it (and never let a window cursor
   read past the hwm, which would raise Invalid_argument). *)
let test_backpressure () =
  let s, service = single_source_scenario ~capture_batch:4 () in
  random_txns (Prng.create ~seed:501) s 40;
  Alcotest.(check bool) "capture is behind" true
    (Roll_capture.Capture.lag s.capture > 0);
  let steps = C.Service.step_all service ~budget:1000 in
  Alcotest.(check bool) "steps ran" true (steps > 0);
  let propagate = sched_counter service "propagate" in
  let capture = sched_counter service "capture" in
  Alcotest.(check bool) "propagate steps were deferred" true
    (propagate.C.Stats.deferred > 0);
  Alcotest.(check bool) "capture was boosted by backpressure" true
    (capture.C.Stats.backpressured > 0);
  Alcotest.(check bool) "capture advances ran" true (capture.C.Stats.ran > 0);
  List.iter
    (fun (st : C.Service.status) ->
      Alcotest.(check int) (st.name ^ " caught up") 0 st.staleness)
    (C.Service.status service);
  List.iter (check_view_contents s service) (C.Service.names service)

(* The same capture-lag scenario with a transient fault inside capture
   itself: the reliable drain retries the advance (the fault point fires
   before any delta mutation, so re-running is clean) and still converges. *)
let test_backpressure_with_faults () =
  let s, service = single_source_scenario ~capture_batch:4 () in
  random_txns (Prng.create ~seed:502) s 40;
  Roll_capture.Capture.set_fault s.capture
    (Fault.transient_at "capture.record" ~hit:3 ~failures:2);
  (match
     C.Service.try_step_all service ~budget:1000
       ~retry:(Roll_util.Retry.policy ~max_attempts:4 ())
   with
  | Ok steps -> Alcotest.(check bool) "steps ran" true (steps > 0)
  | Error (e : C.Service.step_error) ->
      Alcotest.failf "drain failed permanently: %s at %s" e.view e.point);
  Alcotest.(check bool) "capture retries counted" true
    (C.Stats.retries (C.Scheduler.stats (C.Service.scheduler service)) > 0);
  Alcotest.(check bool) "backpressure fired" true
    ((sched_counter service "capture").C.Stats.backpressured > 0);
  List.iter (check_view_contents s service) (C.Service.names service)

(* A capture advance that keeps failing surfaces as a typed step_error
   under the "(capture)" pseudo-view instead of an exception. *)
let test_capture_permanent_failure () =
  let s, service = single_source_scenario ~capture_batch:4 () in
  random_txns (Prng.create ~seed:503) s 20;
  Roll_capture.Capture.set_fault s.capture
    (Fault.transient_at "capture.record" ~hit:2 ~failures:100);
  match
    C.Service.try_step_all service ~budget:1000
      ~retry:(Roll_util.Retry.policy ~max_attempts:3 ())
  with
  | Ok _ -> Alcotest.fail "expected a permanent capture failure"
  | Error (e : C.Service.step_error) ->
      Alcotest.(check string) "capture pseudo-view" "(capture)" e.view;
      Alcotest.(check string) "fault point" "capture.record" e.point;
      Alcotest.(check int) "attempts exhausted" 3 e.attempts

(* Slack policy is EDF on slack: with equal staleness, the view with the
   tighter SLA is at the front of the queue. *)
let test_slack_ordering () =
  let s, service = single_source_scenario () in
  C.Service.set_sla service "vs" 5;
  C.Service.set_sla service "vr" 500;
  random_txns (Prng.create ~seed:504) s 15;
  Roll_capture.Capture.advance s.capture;
  match C.Service.schedule service with
  | { C.Scheduler.item = C.Scheduler.Propagate_step { view; _ }; slack; _ } :: _
    ->
      Alcotest.(check string) "tightest SLA first" "vs" view;
      Alcotest.(check bool) "its slack is lowest" true (slack < 500)
  | _ -> Alcotest.fail "expected a propagate step at the head of the queue"

(* Round_robin sweeps in registration order regardless of slack. *)
let test_round_robin_ordering () =
  let s, service =
    single_source_scenario ~policy:C.Scheduler.Round_robin ()
  in
  C.Service.set_sla service "vs" 5 (* urgent, but registered second *);
  random_txns (Prng.create ~seed:505) s 15;
  Roll_capture.Capture.advance s.capture;
  (match C.Service.schedule service with
  | { C.Scheduler.item = C.Scheduler.Propagate_step { view; _ }; _ } :: _ ->
      Alcotest.(check string) "registration order first" "vr" view
  | _ -> Alcotest.fail "expected a propagate step at the head of the queue");
  let steps = C.Service.step_all service ~budget:1000 in
  Alcotest.(check bool) "both views progressed" true (steps > 1);
  List.iter
    (fun (st : C.Service.status) ->
      Alcotest.(check int) (st.name ^ " caught up") 0 st.staleness)
    (C.Service.status service)

(* maintain drains the full item vocabulary: propagate, then apply rolls
   the stored views forward, due checkpoints snapshot, due gc prunes. *)
let test_maintain_full_drain () =
  let s = two_table () in
  let service = C.Service.create ~gc_threshold:1 s.db s.capture in
  let ctl =
    C.Service.register ~durable:true service
      ~algorithm:(C.Controller.Rolling (C.Rolling.uniform 4))
      s.view
  in
  let ckpt = Filename.temp_file "schedtest" ".ckpt" in
  Fun.protect ~finally:(fun () -> try Sys.remove ckpt with Sys_error _ -> ())
  @@ fun () ->
  C.Service.set_checkpoint service "rs" ~path:ckpt ~every:1;
  random_txns (Prng.create ~seed:506) s 25;
  (match C.Service.maintain service ~budget:500 with
  | Ok items -> Alcotest.(check bool) "items executed" true (items > 0)
  | Error (e : C.Service.step_error) ->
      Alcotest.failf "maintain failed: %s at %s" e.view e.point);
  Alcotest.(check bool) "apply ran" true
    ((sched_counter service "apply").C.Stats.ran > 0);
  Alcotest.(check bool) "checkpoint ran" true
    ((sched_counter service "checkpoint").C.Stats.ran > 0);
  Alcotest.(check bool) "gc ran" true
    ((sched_counter service "gc").C.Stats.ran > 0);
  Alcotest.(check bool) "checkpoint file written" true (Sys.file_exists ckpt);
  Alcotest.(check bool) "stored view rolled forward" true
    (C.Controller.as_of ctl > 0);
  Alcotest.check relation "contents vs oracle"
    (C.Oracle.view_at s.history s.view (C.Controller.as_of ctl))
    (C.Controller.contents ctl)

(* Pause mid-trajectory, crash, recover from the WAL through
   register_recovered: the revived view resumes from the durable frontier
   with exactly-once apply semantics (contents match the oracle at the
   recorded as_of — a double apply would double multiset counts). *)
let test_pause_crash_recover () =
  let s = two_table () in
  let service = C.Service.create s.db s.capture in
  let algorithm = C.Controller.Rolling (C.Rolling.uniform 3) in
  let ctl = C.Service.register ~durable:true service ~algorithm s.view in
  let rng = Prng.create ~seed:507 in
  random_txns rng s 20;
  (* Partial progress: a few steps and one apply, then pause. *)
  ignore (C.Service.step_all service ~budget:5);
  C.Controller.refresh_to ctl (C.Controller.hwm ctl);
  C.Service.pause service "rs";
  random_txns rng s 10;
  Alcotest.(check int) "paused view takes no steps" 0
    (C.Service.step_all service ~budget:50);
  let durable =
    match C.Frontier.latest (Database.wal s.db) ~view:"rs" with
    | Some f -> f
    | None -> Alcotest.fail "no durable frontier recorded"
  in
  (* Crash: all process state is lost; only base tables + WAL survive. *)
  let s2 = Harness.restart two_table s.db in
  let service2 = C.Service.create s2.db s2.capture in
  let ctl2 = C.Service.register_recovered service2 ~algorithm s2.view in
  Alcotest.(check int) "resumed at durable hwm" durable.C.Frontier.hwm
    (C.Controller.hwm ctl2);
  Alcotest.(check int) "resumed at durable as_of" durable.C.Frontier.as_of
    (C.Controller.as_of ctl2);
  Alcotest.check relation "no double apply after recovery"
    (C.Oracle.view_at s2.history s2.view (C.Controller.as_of ctl2))
    (C.Controller.contents ctl2);
  Alcotest.(check int) "one recovery counted" 1
    (C.Stats.recoveries (C.Controller.stats ctl2));
  (* The revived service picks the view up where the pause left it. *)
  Alcotest.(check bool) "recovered view is not paused" true
    (C.Service.step_all service2 ~budget:1000 > 0);
  C.Service.refresh_all service2;
  Alcotest.check relation "final contents after resume"
    (C.Oracle.view_at s2.history s2.view (C.Controller.as_of ctl2))
    (C.Controller.contents ctl2)

(* Reader boost: a blocked reader (the rolld engine's census) pulls its
   view's propagate steps ahead of a tighter-SLA view with no waiting
   readers — and the drain still catches everyone up, so the boost cannot
   starve the idle view. *)
let test_reader_boost_ordering () =
  let s, service = single_source_scenario () in
  C.Service.set_sla service "vr" 5;
  C.Service.set_sla service "vs" 500;
  random_txns (Prng.create ~seed:508) s 15;
  Roll_capture.Capture.advance s.capture;
  (* Sanity: with no readers, the tight-SLA view leads the queue. *)
  (match C.Service.schedule service with
  | { C.Scheduler.item = C.Scheduler.Propagate_step { view; _ }; readers; _ }
    :: _ ->
      Alcotest.(check string) "tight SLA first without readers" "vr" view;
      Alcotest.(check int) "no readers counted" 0 readers
  | _ -> Alcotest.fail "expected a propagate step at the head of the queue");
  C.Service.set_read_demand service (fun view ->
      if view = "vs" then 2 else 0);
  (match C.Service.schedule service with
  | { C.Scheduler.item = C.Scheduler.Propagate_step { view; _ }; readers; _ }
    :: _ ->
      Alcotest.(check string) "boosted view jumps the queue" "vs" view;
      Alcotest.(check int) "blocked readers counted" 2 readers
  | _ -> Alcotest.fail "expected a propagate step at the head of the queue");
  (* No starvation: the same drain still catches the idle view up. *)
  let steps = C.Service.step_all service ~budget:1000 in
  Alcotest.(check bool) "steps ran" true (steps > 0);
  List.iter
    (fun (st : C.Service.status) ->
      Alcotest.(check int) (st.name ^ " caught up despite the boost") 0
        st.staleness)
    (C.Service.status service);
  List.iter (check_view_contents s service) (C.Service.names service)

(* The boost stays strictly below capture backpressure: boosted propagate
   steps whose windows are under-captured still defer, capture still
   advances first, and the drain still converges — a waiting reader can
   reorder propagation but never force a read past the capture hwm. *)
let test_reader_boost_below_backpressure () =
  let s, service = single_source_scenario ~capture_batch:4 () in
  random_txns (Prng.create ~seed:509) s 40;
  C.Service.set_read_demand service (fun _ -> 1);
  Alcotest.(check bool) "capture is behind" true
    (Roll_capture.Capture.lag s.capture > 0);
  let steps = C.Service.step_all service ~budget:1000 in
  Alcotest.(check bool) "steps ran" true (steps > 0);
  Alcotest.(check bool) "boosted propagate steps still deferred" true
    ((sched_counter service "propagate").C.Stats.deferred > 0);
  Alcotest.(check bool) "capture still boosted ahead of readers" true
    ((sched_counter service "capture").C.Stats.backpressured > 0);
  List.iter
    (fun (st : C.Service.status) ->
      Alcotest.(check int) (st.name ^ " caught up") 0 st.staleness)
    (C.Service.status service);
  List.iter (check_view_contents s service) (C.Service.names service)

let test_sla_and_validation () =
  let _, service = single_source_scenario () in
  Alcotest.(check int) "default sla" 100 (C.Service.sla service "vr");
  C.Service.set_sla service "vr" 7;
  Alcotest.(check int) "sla updated" 7 (C.Service.sla service "vr");
  let st =
    List.find
      (fun (st : C.Service.status) -> st.name = "vr")
      (C.Service.status service)
  in
  Alcotest.(check int) "slack = sla - staleness" (7 - st.staleness) st.slack;
  Alcotest.check_raises "non-positive sla rejected"
    (Invalid_argument "Service.set_sla") (fun () ->
      C.Service.set_sla service "vr" 0);
  Alcotest.(check bool) "bad capture_batch rejected" true
    (try
       ignore
         (C.Scheduler.create ~capture_batch:0 (Database.create ())
            (Roll_capture.Capture.create (Database.create ())));
       false
     with Invalid_argument _ -> true)

(* Wave formation: aligned siblings chain onto one slot behind the head —
   back to back they replay each other's memoized deltas — and a view
   whose window is disjoint heads a slot of its own once the wave has
   room. Round_robin keeps one-item chains. *)
let test_wave_chains () =
  let wave policy ~max =
    let s = two_table () in
    let service = C.Service.create ~policy s.db s.capture in
    let rolling i = C.Controller.Rolling (C.Rolling.uniform i) in
    let bs = C.View.binder s.db [ ("s", "s") ] in
    let vs =
      C.View.create s.db ~name:"vs" ~sources:[ ("s", "s") ] ~predicate:[]
        ~project:[ bs "s" "k"; bs "s" "w" ]
    in
    List.iter
      (fun v -> ignore (C.Service.register service ~algorithm:(rolling 3) v))
      [
        s.view;
        clone_view s.db s.view ~name:"rs_b";
        clone_view s.db s.view ~name:"rs_c";
      ];
    ignore (C.Service.register service ~algorithm:(rolling 5) vs);
    C.Service.set_sla service "vs" 500;
    (* Catch every view up to one clock reading. Window steps commit
       nothing, so the siblings' frontiers coincide, and with them their
       next windows; vs steps over the other table. *)
    ignore (C.Service.step_all service ~budget:1000);
    random_txns (Prng.create ~seed:509) s 12;
    Roll_capture.Capture.advance s.capture;
    let sources =
      List.map
        (fun name ->
          {
            C.Scheduler.name;
            controller = C.Service.controller service name;
            paused = false;
            sla = C.Service.sla service name;
            apply_due = false;
            checkpoint_due = false;
            gc_due = false;
            partial = false;
          })
        (C.Service.names service)
    in
    let sched = C.Service.scheduler service in
    C.Scheduler.begin_drain sched;
    List.map
      (List.map (fun (sc : C.Scheduler.scored) ->
           match sc.C.Scheduler.item with
           | C.Scheduler.Propagate_step { view; _ } -> view
           | item -> Format.asprintf "%a" C.Scheduler.pp_item item))
      (C.Scheduler.take_wave sched sources ~max)
  in
  let check = Alcotest.(check (list (list string))) in
  check "width 1: the head and its same-window siblings"
    [ [ "rs"; "rs_b"; "rs_c" ] ]
    (wave C.Scheduler.Slack ~max:1);
  check "width 2: the disjoint view heads a second slot"
    [ [ "rs"; "rs_b"; "rs_c" ]; [ "vs" ] ]
    (wave C.Scheduler.Slack ~max:2);
  check "round-robin: a singleton" [ [ "rs" ] ]
    (wave C.Scheduler.Round_robin ~max:1);
  check "round-robin: one-item chains" [ [ "rs" ]; [ "vs" ] ]
    (wave C.Scheduler.Round_robin ~max:2)

let suite =
  [
    Alcotest.test_case "backpressure defers and boosts" `Quick test_backpressure;
    Alcotest.test_case "backpressure under faults" `Quick
      test_backpressure_with_faults;
    Alcotest.test_case "capture permanent failure" `Quick
      test_capture_permanent_failure;
    Alcotest.test_case "slack ordering" `Quick test_slack_ordering;
    Alcotest.test_case "round-robin ordering" `Quick test_round_robin_ordering;
    Alcotest.test_case "wave chains and slots" `Quick test_wave_chains;
    Alcotest.test_case "reader boost ordering" `Quick
      test_reader_boost_ordering;
    Alcotest.test_case "reader boost below backpressure" `Quick
      test_reader_boost_below_backpressure;
    Alcotest.test_case "maintain full drain" `Quick test_maintain_full_drain;
    Alcotest.test_case "pause, crash, recover" `Quick test_pause_crash_recover;
    Alcotest.test_case "sla and validation" `Quick test_sla_and_validation;
  ]
