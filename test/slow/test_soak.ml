(* Soak tests: long randomized end-to-end runs exercising every process
   (updates, capture lag, propagation, apply, GC, checkpoint/restart) with
   failure injection, checked against the oracle at every refresh. *)

open Test_support.Helpers
module Time = Roll_delta.Time
module Wal_codec = Roll_storage.Wal_codec
module C = Roll_core

(* A long adversarial schedule on the 3-way view: random bursts of updates,
   manual capture that lags behind and catches up in chunks, propagation in
   unpredictable dribbles, applies to random reachable targets, periodic
   GC. *)
let test_adversarial_schedule () =
  let s = three_table () in
  let rng = Prng.create ~seed:160 in
  random_txns rng s 15;
  let ctx = ctx_of s in
  (* Manual capture: the driver advances it, sometimes only partially
     between propagation steps, always fully before a step runs (the
     "propagate waits for capture" protocol). *)
  ctx.C.Ctx.auto_capture <- false;
  ctx.C.Ctx.on_execute <-
    (fun () ->
      if Prng.chance rng 0.5 then random_txns rng s (Prng.int rng 3);
      Roll_capture.Capture.advance s.capture);
  let rolling = C.Rolling.create ctx ~t_initial:Time.origin in
  let apply = C.Apply.create_empty ctx ~t_initial:Time.origin in
  let policy i = [| 2; 5; 9 |].(i) in
  for round = 1 to 60 do
    (* Updates arrive in bursts; capture lags behind. *)
    random_txns rng s (Prng.int rng 6);
    Roll_capture.Capture.advance ~max_records:(Prng.int rng 8) s.capture;
    (* Propagation dribbles. *)
    Roll_capture.Capture.advance s.capture;
    for _ = 1 to Prng.int rng 4 do
      match C.Rolling.step rolling ~policy with `Advanced _ | `Idle -> ()
    done;
    (* Apply to a random reachable point. *)
    let hwm = C.Rolling.hwm rolling in
    if hwm > C.Apply.as_of apply && Prng.chance rng 0.6 then begin
      let target = Prng.int_in rng ~lo:(C.Apply.as_of apply) ~hi:hwm in
      C.Apply.roll_to apply ~hwm target;
      let expected = C.Oracle.view_at s.history s.view target in
      if not (Roll_relation.Relation.equal expected (C.Apply.contents apply)) then
        Alcotest.failf "round %d: view diverged at t=%d" round target
    end;
    (* Occasionally garbage-collect applied delta rows. *)
    if round mod 15 = 0 then ignore (C.Apply.prune_applied apply)
  done

(* Checkpoint/restart mid-soak, twice, with churn around each restart. *)
let test_soak_with_restarts () =
  let wal_path = Filename.temp_file "soak_wal" ".log" in
  let ckpt_path = Filename.temp_file "soak" ".ckpt" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove wal_path;
      Sys.remove ckpt_path)
    (fun () ->
      let rng = Prng.create ~seed:161 in
      (* Generation 0. *)
      let s = ref (two_table ()) in
      random_txns rng !s 20;
      let ctx = ref (ctx_of !s) in
      let rolling = ref (C.Rolling.create !ctx ~t_initial:Time.origin) in
      let apply = ref (C.Apply.create_empty !ctx ~t_initial:Time.origin) in
      for generation = 1 to 3 do
        (* Work for a while. *)
        random_txns rng !s (10 + Prng.int rng 20);
        let target = Database.now !s.db in
        C.Rolling.run_until !rolling ~target
          ~policy:(C.Rolling.per_relation [| 3; 8 |]);
        let hwm = C.Rolling.hwm !rolling in
        let roll_target = Prng.int_in rng ~lo:(C.Apply.as_of !apply) ~hi:hwm in
        C.Apply.roll_to !apply ~hwm roll_target;
        (* Crash: persist WAL + checkpoint, restart everything. *)
        Wal_codec.save_file (Database.wal !s.db) wal_path;
        C.Checkpoint.save !ctx ~hwm ~apply:!apply ckpt_path;
        let s2 = two_table () in
        Database.restore s2.db (Wal_codec.load_file wal_path);
        Roll_capture.Capture.advance s2.capture;
        let ctx2, apply2, rolling2 =
          C.Checkpoint.resume s2.db s2.capture s2.view ckpt_path
        in
        s := s2;
        ctx := ctx2;
        apply := apply2;
        rolling := rolling2;
        (* Verify immediately after restart. *)
        let expected = C.Oracle.view_at s2.history s2.view (C.Apply.as_of apply2) in
        if not (Roll_relation.Relation.equal expected (C.Apply.contents apply2)) then
          Alcotest.failf "generation %d: state wrong after restart" generation
      done;
      (* Final convergence. *)
      random_txns rng !s 15;
      let target = Database.now !s.db in
      C.Rolling.run_until !rolling ~target ~policy:(C.Rolling.uniform 5);
      C.Apply.roll_to !apply ~hwm:(C.Rolling.hwm !rolling) target;
      Alcotest.check relation "final state across 3 restarts"
        (C.Oracle.view_at !s.history !s.view target)
        (C.Apply.contents !apply))

(* Alternate propagation processes over one delta: Propagate for a while,
   then rolling, then deferred would be invalid (different bookkeeping),
   but Propagate -> Rolling is legal when the rolling frontiers start at
   Propagate's hwm. *)
let test_process_handoff () =
  let s = two_table () in
  let rng = Prng.create ~seed:162 in
  random_txns rng s 25;
  let ctx = ctx_of s in
  let p = C.Propagate.create ctx ~t_initial:Time.origin in
  C.Propagate.run_until p ~target:(Database.now s.db / 2) ~interval:6;
  let handoff = C.Propagate.hwm p in
  random_txns rng s 25;
  let rolling = C.Rolling.create ctx ~t_initial:handoff in
  let target = Database.now s.db in
  C.Rolling.run_until rolling ~target ~policy:(C.Rolling.per_relation [| 4; 11 |]);
  check_ok
    (C.Oracle.check_timed_view_delta s.history s.view ctx.C.Ctx.out
       ~lo:Time.origin ~hi:(C.Rolling.hwm rolling))

(* Steady cost over a long run: 20 000 commits on a fleet-like service
   (sibling views over one star's fact table, sharing on), drained every
   100 commits. The last 1 000-commit block may allocate at most 1.5x what
   the second one did. Inserts and deletes are balanced, so the base
   tables keep their size, and no gc runs, so every delta keeps its whole
   history: only a drain whose cost grows with that history fails (a full
   re-sort of a delta per window read did, 4.8x). It counts allocated
   words rather than CPU time, so a busy host cannot make it flaky. *)
let test_allocation_flat () =
  let module W = Roll_workload in
  let module P = Roll_relation.Predicate in
  let star =
    W.Star.create
      {
        W.Star.n_dimensions = 2;
        dim_size = 400;
        fact_initial = 6_000;
        zipf_theta = 0.3;
        fact_insert_bias = 0.5;
        seed = 19;
      }
  in
  W.Star.load_initial star;
  let db = W.Star.db star in
  let service =
    C.Service.create ~sharing:true ~auxiliary:false ~hotset:false ~domains:1
      db (W.Star.capture star)
  in
  C.Service.set_gc_threshold service max_int;
  let fact = W.Star.fact_table star in
  let view ?filter name ~dim ~fa ~da =
    let sources = [ (fact, fa); (W.Star.dim_table star dim, da) ] in
    let b = C.View.binder db sources in
    let join = P.join (b fa (Printf.sprintf "d%d_key" dim)) (b da "key") in
    let predicate =
      match filter with
      | None -> [ join ]
      | Some bound ->
          [
            join;
            P.cmp P.Lt (P.Col (b fa "measure"))
              (P.Const (Roll_relation.Value.Int bound));
          ]
    in
    C.Service.register service
      ~algorithm:(C.Controller.Rolling (C.Rolling.per_relation [| 8; 32 |]))
      (C.View.create db ~name ~sources ~predicate
         ~project:[ b fa "measure"; b da "key"; b da "attr" ])
  in
  let views =
    [
      view "fleet_a" ~dim:0 ~fa:"f" ~da:"d";
      view "fleet_b" ~dim:0 ~fa:"ff" ~da:"dd";
      view "fleet_c" ~dim:1 ~fa:"f" ~da:"d";
      view "fleet_lo" ~filter:3 ~dim:0 ~fa:"f" ~da:"d";
    ]
  in
  let drain () =
    let target = Database.now db in
    let stalled = ref 0 in
    while
      List.exists (fun ctl -> C.Controller.hwm ctl < target) views
    do
      match C.Service.maintain service ~budget:64 with
      | Ok 0 ->
          incr stalled;
          if !stalled > 10_000 then Alcotest.fail "maintain stalled"
      | Ok _ -> stalled := 0
      | Error _ -> Alcotest.fail "maintain failed"
    done
  in
  let allocated () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let block () =
    let before = allocated () in
    for _ = 1 to 10 do
      W.Star.mixed_txns star ~n:100 ~dim_fraction:0.05;
      drain ()
    done;
    allocated () -. before
  in
  let blocks = Array.init 20 (fun _ -> block ()) in
  let second = blocks.(1) and last = blocks.(19) in
  if last > 1.5 *. second then
    Alcotest.failf
      "last 1 000 commits allocated %.1f Mwords, %.2fx the second block's %.1f"
      (last /. 1e6) (last /. second) (second /. 1e6)

let suite =
  [
    Alcotest.test_case "adversarial schedule, 60 rounds" `Slow test_adversarial_schedule;
    Alcotest.test_case "soak with restarts" `Slow test_soak_with_restarts;
    Alcotest.test_case "Propagate -> Rolling handoff" `Quick test_process_handoff;
    Alcotest.test_case "20k commits: allocation per 1k commits stays flat"
      `Slow test_allocation_flat;
  ]
