(* One experiment per paper figure and claim; see DESIGN.md section 6 for
   the index and EXPERIMENTS.md for recorded outcomes. *)

open Exp_common
module Capture = Roll_capture.Capture
module Delta = Roll_delta.Delta
module Relation = Roll_relation.Relation
module Des = Roll_sim.Des
module Contention = Roll_sim.Contention

(* ------------------------------------------------------------------ *)
(* F1 — Figure 1: synchronous incremental refresh vs full recompute.   *)
(* ------------------------------------------------------------------ *)

let fig1_sync_incremental () =
  let rows = ref [] in
  List.iter
    (fun churn ->
      let w =
        churned_nway ~key_range:25 ~initial_rows:2000 ~n:2 ~txns:churn ~seed:1 ()
      in
      let history = W.Nway.history w in
      let view = W.Nway.view w in
      let hi = Database.now (W.Nway.db w) in
      (* The interval starts after the initial load. *)
      let lo = hi - churn in
      let (_, inc_cost), inc_time =
        time_it (fun () -> C.Baseline.eq1 history view ~lo ~hi)
      in
      let (_, full_cost), full_time =
        time_it (fun () -> C.Baseline.recompute_diff history view ~lo ~hi)
      in
      rows :=
        [
          string_of_int churn;
          string_of_int inc_cost.C.Baseline.rows_read;
          ms inc_time;
          string_of_int full_cost.C.Baseline.rows_read;
          ms full_time;
          (if inc_cost.C.Baseline.rows_read < full_cost.C.Baseline.rows_read then
             "incremental"
           else "recompute");
        ]
        :: !rows)
    [ 25; 100; 400; 1600; 3200 ];
  table ~title:"F1 (Figure 1): incremental refresh vs full recompute, 2-way join, 2000+2000 base rows"
    ~header:
      [ "update txns"; "incr rows read"; "incr ms"; "recomp rows read"; "recomp ms"; "winner" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* F2 — Figure 2: the propagate/apply split.                           *)
(* ------------------------------------------------------------------ *)

let fig2_propagate_apply () =
  let w = churned_nway ~key_range:60 ~n:3 ~initial_rows:400 ~txns:600 ~seed:2 () in
  let ctx = ctx_for w in
  let target = Database.now (W.Nway.db w) in
  let p = C.Propagate.create ctx ~t_initial:0 in
  let (), prop_time = time_it (fun () -> C.Propagate.run_until p ~target ~interval:25) in
  let apply = C.Apply.create_empty ctx ~t_initial:0 in
  let rows = ref [] in
  let quarter = target / 4 in
  List.iter
    (fun k ->
      let t = min target (k * quarter) in
      let (), apply_time = time_it (fun () -> C.Apply.roll_to apply ~hwm:target t) in
      rows :=
        [ Printf.sprintf "roll to t=%d" t; ms apply_time ] :: !rows)
    [ 1; 2; 3; 4 ];
  table ~title:"F2 (Figure 2): propagate once, apply separately (3-way view, 600 txns)"
    ~header:[ "phase"; "time ms" ]
    ([ [ "propagate (full delta)"; ms prop_time ];
       [ Printf.sprintf "  = %d queries, %d rows read" (C.Counters.count ctx.C.Ctx.counters C.Counters.queries)
           (C.Counters.count ctx.C.Ctx.counters C.Counters.rows_read);
         "" ] ]
    @ List.rev !rows);
  check_or_die "F2 final state"
    (if Relation.equal
          (C.Oracle.view_at (W.Nway.history w) (W.Nway.view w) target)
          (C.Apply.contents apply)
     then Ok ()
     else Error "apply diverged from oracle")

(* ------------------------------------------------------------------ *)
(* F3 — Figure 3: view delta with high-water mark; point-in-time.      *)
(* ------------------------------------------------------------------ *)

let fig3_point_in_time () =
  let w = churned_nway ~n:2 ~initial_rows:200 ~txns:300 ~seed:3 () in
  let ctx = ctx_for w in
  let rolling = C.Rolling.create ctx ~t_initial:0 in
  (* Propagate only part of the elapsed history: hwm < now. *)
  let now = Database.now (W.Nway.db w) in
  let stop = now / 2 in
  C.Rolling.run_until rolling ~target:stop ~policy:(C.Rolling.uniform 20);
  let hwm = C.Rolling.hwm rolling in
  let beyond =
    Delta.length ctx.C.Ctx.out - Delta.window_count ctx.C.Ctx.out ~lo:0 ~hi:hwm
  in
  let apply = C.Apply.create_empty ctx ~t_initial:0 in
  let rows = ref [] in
  List.iter
    (fun t ->
      if t <= hwm && t >= C.Apply.as_of apply then begin
        C.Apply.roll_to apply ~hwm t;
        let ok =
          Relation.equal
            (C.Oracle.view_at (W.Nway.history w) (W.Nway.view w) t)
            (C.Apply.contents apply)
        in
        rows :=
          [ string_of_int t; string_of_int (Relation.distinct_count (C.Apply.contents apply));
            (if ok then "ok" else "WRONG") ]
          :: !rows
      end)
    [ hwm / 4; hwm / 2; (3 * hwm) / 4; hwm ];
  table
    ~title:
      (Printf.sprintf
         "F3 (Figure 3): point-in-time rolls; db now=%d, hwm=%d, delta rows beyond hwm=%d (ignored)"
         now hwm beyond)
    ~header:[ "roll target"; "view rows"; "vs oracle" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* F4 — Figure 4: ComputeDelta cost vs arity, with and without races.  *)
(* ------------------------------------------------------------------ *)

let fig4_compute_delta () =
  let rows = ref [] in
  List.iter
    (fun (n, initial_rows, txns) ->
      let quiet =
        let w = churned_nway ~n ~initial_rows ~txns ~seed:4 () in
        let ctx = ctx_for w in
        ctx.C.Ctx.skip_empty_windows <- false;
        C.Compute_delta.view_delta ctx ~lo:0 ~hi:(Database.now (W.Nway.db w));
        C.Counters.count ctx.C.Ctx.counters C.Counters.queries
      in
      let skipped =
        (* Same run with the empty-window skip on, racing with updates; the
           oracle check doubles as a correctness gate. *)
        let w = churned_nway ~n ~initial_rows ~txns ~seed:4 () in
        let ctx = ctx_for w in
        let rng = Prng.create ~seed:40 in
        ctx.C.Ctx.on_execute <- (fun () -> W.Nway.churn w ~n:(Prng.int rng 3));
        let hi = Database.now (W.Nway.db w) in
        C.Compute_delta.view_delta ctx ~lo:0 ~hi;
        check_or_die
          (Printf.sprintf "F4 n=%d oracle" n)
          (C.Oracle.check_timed_view_delta_sampled
             ~sample:(fun t -> t mod 29 = 0)
             (W.Nway.history w) (W.Nway.view w) ctx.C.Ctx.out ~lo:0 ~hi);
        C.Counters.count ctx.C.Ctx.counters C.Counters.queries
      in
      rows :=
        [
          string_of_int n;
          string_of_int quiet;
          string_of_int skipped;
          string_of_int ((1 lsl n) - 1);
          string_of_int n;
        ]
        :: !rows)
    [ (1, 80, 120); (2, 80, 120); (3, 30, 60); (4, 12, 30) ];
  table
    ~title:
      "F4 (Figure 4): propagation queries per delta, asynchronous ComputeDelta vs synchronous baselines"
    ~header:
      [ "n-way"; "ComputeDelta full"; "with skip, racing"; "Eq.1 (2^n-1)"; "Eq.2 (n)" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* F5 — Figure 5: the propagation interval as a tuning knob.           *)
(* ------------------------------------------------------------------ *)

let fig5_interval_sweep () =
  let rows = ref [] in
  List.iter
    (fun interval ->
      let w = churned_nway ~n:2 ~initial_rows:500 ~txns:800 ~seed:5 () in
      let ctx = ctx_for w in
      let p = C.Propagate.create ctx ~t_initial:0 in
      let (), t = time_it (fun () ->
          C.Propagate.run_until p ~target:(Database.now (W.Nway.db w)) ~interval)
      in
      let sizes = txn_row_sizes ctx in
      rows :=
        [
          string_of_int interval;
          string_of_int (C.Counters.count ctx.C.Ctx.counters C.Counters.queries);
          Printf.sprintf "%.0f" (Summary.mean sizes);
          Printf.sprintf "%.0f" (Summary.max_value sizes);
          string_of_int (C.Counters.count ctx.C.Ctx.counters C.Counters.rows_read);
          ms t;
        ]
        :: !rows)
    [ 1; 2; 5; 10; 25; 50; 100; 400 ];
  table
    ~title:
      "F5 (Figure 5): interval sweep, 2-way view, 800 update txns (small = many tiny txns, large = few big ones)"
    ~header:[ "interval"; "queries"; "avg rows/txn"; "max rows/txn"; "total rows"; "time ms" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* F6/F7 — Figures 6-7: the L-region and its four-query decomposition. *)
(* ------------------------------------------------------------------ *)

let fig6_7_coverage () =
  let w = churned_nway ~n:2 ~initial_rows:30 ~txns:60 ~seed:6 () in
  let ctx = C.Ctx.create ~geometry:true ~t_initial:0 (W.Nway.db w) (W.Nway.capture w) (W.Nway.view w) in
  ctx.C.Ctx.skip_empty_windows <- false;
  let rng = Prng.create ~seed:60 in
  ctx.C.Ctx.on_execute <- (fun () -> W.Nway.churn w ~n:(1 + Prng.int rng 2));
  let hi = Database.now (W.Nway.db w) in
  C.Compute_delta.view_delta ctx ~lo:0 ~hi;
  let g = Option.get ctx.C.Ctx.geometry in
  check_or_die "F6/7 coverage" (C.Geometry.check g ~hwm:hi);
  print_newline ();
  Printf.printf
    "== F6/F7 (Figures 6-7): ComputeDelta(V, [0;0], %d) under concurrent updates ==\n" hi;
  Printf.printf "%d queries recorded; net coverage over (0,%d]^2 (1 = the delta region):\n"
    (C.Geometry.n_boxes g) hi;
  print_string (C.Geometry.render_2d g ~width:32 ~upto:(Database.now (W.Nway.db w)));
  Printf.printf
    "(axes: R1 time right, R2 time up; '.' = uncovered/compensated, '1' = exactly once;\n";
  Printf.printf " the completed square up to the target is uniform, the overshoot band beyond\n";
  Printf.printf " it shows forward queries awaiting compensation, as in Figure 7)\n"

(* ------------------------------------------------------------------ *)
(* F8 — Figure 8: Propagate tiles the plane in uniform L-steps.        *)
(* ------------------------------------------------------------------ *)

let fig8_propagate_coverage () =
  let w = churned_nway ~n:2 ~initial_rows:30 ~txns:90 ~seed:7 () in
  let ctx = C.Ctx.create ~geometry:true ~t_initial:0 (W.Nway.db w) (W.Nway.capture w) (W.Nway.view w) in
  let p = C.Propagate.create ctx ~t_initial:0 in
  let target = Database.now (W.Nway.db w) in
  C.Propagate.run_until p ~target ~interval:(target / 3) ;
  let g = Option.get ctx.C.Ctx.geometry in
  check_or_die "F8 coverage" (C.Geometry.check g ~hwm:(C.Propagate.hwm p));
  print_newline ();
  Printf.printf "== F8 (Figure 8): three Propagate steps of interval %d ==\n" (target / 3);
  print_string (C.Geometry.render_2d g ~width:32 ~upto:(Database.now (W.Nway.db w)));
  Printf.printf "(each L-step completes before the next begins; hwm=%d)\n" (C.Propagate.hwm p)

(* ------------------------------------------------------------------ *)
(* F9 — Figure 9: rolling coverage with per-relation intervals.        *)
(* ------------------------------------------------------------------ *)

let fig9_rolling_coverage () =
  let run label use_deferred =
    let w = churned_nway ~n:2 ~initial_rows:30 ~txns:90 ~seed:8 () in
    let ctx = C.Ctx.create ~geometry:true ~t_initial:0 (W.Nway.db w) (W.Nway.capture w) (W.Nway.view w) in
    let target = Database.now (W.Nway.db w) in
    let intervals = [| target / 6; target / 2 |] in
    let queries =
      if use_deferred then begin
        let r = C.Rolling_deferred.create ctx ~t_initial:0 in
        C.Rolling_deferred.run_until r ~target
          ~policy:(C.Rolling_deferred.per_relation intervals);
        C.Counters.count ctx.C.Ctx.counters C.Counters.queries
      end
      else begin
        let r = C.Rolling.create ctx ~t_initial:0 in
        C.Rolling.run_until r ~target ~policy:(C.Rolling.per_relation intervals);
        let g = Option.get ctx.C.Ctx.geometry in
        check_or_die "F9 coverage" (C.Geometry.check g ~hwm:target);
        print_newline ();
        Printf.printf
          "== F9 (Figure 9): rolling propagation, R1 interval %d vs R2 interval %d ==\n"
          intervals.(0) intervals.(1);
        print_string (C.Geometry.render_2d g ~width:32 ~upto:(Database.now (W.Nway.db w)));
        Printf.printf "(R2's forward queries are wider than R1's, as in Figure 9)\n";
        C.Counters.count ctx.C.Ctx.counters C.Counters.queries
      end
    in
    (label, queries)
  in
  let corrected = run "rolling (corrected)" false in
  let deferred = run "rolling (deferred, Fig. 10 literal)" true in
  let propagate =
    let w = churned_nway ~n:2 ~initial_rows:30 ~txns:90 ~seed:8 () in
    let ctx = ctx_for w in
    let target = Database.now (W.Nway.db w) in
    let p = C.Propagate.create ctx ~t_initial:0 in
    C.Propagate.run_until p ~target ~interval:(target / 6);
    ("Propagate at the finer interval", C.Counters.count ctx.C.Ctx.counters C.Counters.queries)
  in
  table ~title:"F9: propagation queries to cover the same plane"
    ~header:[ "process"; "queries" ]
    (List.map (fun (l, q) -> [ l; string_of_int q ]) [ propagate; corrected; deferred ])

(* ------------------------------------------------------------------ *)
(* F10 — Figure 10: rolling vs Propagate on skewed update rates.       *)
(* ------------------------------------------------------------------ *)

let fig10_rolling_vs_propagate () =
  let rows = ref [] in
  List.iter
    (fun (label, weights) ->
      let measure algo =
        let w =
          churned_nway ~key_range:40 ~n:3 ~initial_rows:300 ~txns:500 ~weights ~seed:9 ()
        in
        let ctx = ctx_for w in
        let target = Database.now (W.Nway.db w) in
        (match algo with
        | `Uniform interval ->
            let p = C.Propagate.create ctx ~t_initial:0 in
            C.Propagate.run_until p ~target ~interval
        | `Rolling intervals ->
            let r = C.Rolling.create ctx ~t_initial:0 in
            C.Rolling.run_until r ~target ~policy:(C.Rolling.per_relation intervals));
        let sizes = txn_row_sizes ctx in
        (C.Counters.count ctx.C.Ctx.counters C.Counters.queries, C.Counters.count ctx.C.Ctx.counters C.Counters.rows_read,
         Summary.max_value sizes)
      in
      let uq, ur, umax = measure (`Uniform 15) in
      let rq, rr, rmax = measure (`Rolling [| 15; 120; 120 |]) in
      rows :=
        [
          label;
          Printf.sprintf "%d / %d / %.0f" uq ur umax;
          Printf.sprintf "%d / %d / %.0f" rq rr rmax;
          (if rr < ur then "rolling" else "uniform");
        ]
        :: !rows)
    [
      ("uniform rates (1:1:1)", [| 1.0; 1.0; 1.0 |]);
      ("skewed 8:1:1", [| 8.0; 1.0; 1.0 |]);
      ("star-like 50:1:1", [| 50.0; 1.0; 1.0 |]);
    ];
  table
    ~title:
      "F10 (Figure 10): Propagate(interval 15) vs Rolling(15/120/120), 3-way view, 500 txns (queries / rows read / max txn rows)"
    ~header:[ "update skew"; "uniform Propagate"; "rolling"; "winner (rows)" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* F11 — Figure 11: the full pipeline.                                 *)
(* ------------------------------------------------------------------ *)

let fig11_end_to_end () =
  let chain = W.Chain.create { W.Chain.default_config with initial_orders = 300 } in
  W.Chain.load_initial chain;
  let controller =
    C.Controller.create (W.Chain.db chain) (W.Chain.capture chain) (W.Chain.view chain)
      ~algorithm:(C.Controller.Rolling (C.Rolling.per_relation [| 400; 20; 20 |]))
  in
  let staleness = Summary.create () in
  let rows = ref [] in
  let gc_total = ref 0 in
  let (), total_time =
    time_it (fun () ->
        for round = 1 to 8 do
          W.Chain.run chain ~n:100;
          (* The propagation process runs a few steps per round (it is
             asynchronous — it may lag). *)
          for _ = 1 to 6 do
            ignore (C.Controller.propagate_step controller)
          done;
          Summary.add staleness
            (float_of_int (Database.now (W.Chain.db chain) - C.Controller.hwm controller));
          if round mod 2 = 0 then begin
            let t = C.Controller.refresh_latest controller in
            gc_total := !gc_total + C.Controller.gc controller;
            rows :=
              [
                Printf.sprintf "round %d" round;
                string_of_int t;
                string_of_int (Relation.distinct_count (C.Controller.contents controller));
              ]
              :: !rows
          end
        done)
  in
  let final = C.Controller.refresh_latest controller in
  let ok =
    Relation.equal
      (C.Oracle.view_at (W.Chain.history chain) (W.Chain.view chain) final)
      (C.Controller.contents controller)
  in
  table ~title:"F11 (Figure 11): WAL -> capture -> propagate -> apply pipeline, 800 order txns"
    ~header:[ "checkpoint"; "refreshed to t"; "view rows" ]
    (List.rev !rows);
  Printf.printf
    "total %.1f ms; staleness now-hwm: mean %.0f max %.0f commits; %d delta rows GCed; final state vs oracle: %s\n"
    (total_time *. 1000.0) (Summary.mean staleness) (Summary.max_value staleness)
    !gc_total
    (if ok then "ok" else "WRONG");
  if not ok then exit 1

(* ------------------------------------------------------------------ *)
(* C1 — contention claim: transaction size vs lock waits.              *)
(* ------------------------------------------------------------------ *)

let claim_contention () =
  let star = W.Star.create { W.Star.default_config with fact_initial = 600 } in
  W.Star.load_initial star;
  W.Star.mixed_txns star ~n:300 ~dim_fraction:0.05;
  let footprints_for interval =
    let ctx =
      C.Ctx.create ~t_initial:0 (W.Star.db star) (W.Star.capture star) (W.Star.view star)
    in
    C.Ctx.keep_footprints ctx;
    (* Each run rebuilds the delta from scratch into a fresh ctx. *)
    let r = C.Rolling.create ctx ~t_initial:0 in
    C.Rolling.run_until r ~target:(Database.now (W.Star.db star))
      ~policy:(C.Rolling.per_relation [| interval; interval * 10; interval * 10 |]);
    C.Ctx.footprints ctx
  in
  let model = Contention.default_costs in
  let tables = [ "fact"; "dim0"; "dim1" ] in
  let oltp () =
    Contention.update_stream (Prng.create ~seed:31) ~tables ~rate:40.0 ~until:15.0
      ~mean_duration:0.004
  in
  let rows = ref [] in
  let run label txns =
    let result = Des.run ~validate:true (txns @ oltp ()) in
    match List.assoc_opt "update" result.Des.classes with
    | Some st ->
        rows :=
          [
            label;
            Printf.sprintf "%.4f" (Summary.mean st.Des.wait);
            Printf.sprintf "%.4f" (Summary.percentile st.Des.wait 0.95);
            Printf.sprintf "%.4f" (Summary.max_value st.Des.wait);
          ]
          :: !rows
    | None -> ()
  in
  List.iter
    (fun interval ->
      let fps = footprints_for interval in
      run
        (Printf.sprintf "rolling, fact interval %d (%d txns)" interval (List.length fps))
        (Contention.propagation_txns model fps ~start:0.5 ~spacing:0.1))
    [ 5; 20; 80 ];
  let fps = footprints_for 20 in
  run "monolithic refresh (same work)"
    [ Contention.monolithic_refresh model fps ~start:0.5 ~tables ];
  table
    ~title:"C1 (Sections 1, 3.2): updater lock waits vs propagation transaction size (simulated s, conflict-validated)"
    ~header:[ "refresh configuration"; "mean wait"; "p95 wait"; "max wait" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* C2 — Equation 1 vs Equation 2.                                      *)
(* ------------------------------------------------------------------ *)

let claim_eq1_eq2 () =
  let rows = ref [] in
  List.iter
    (fun (n, initial_rows, txns) ->
      let w = churned_nway ~n ~initial_rows ~txns ~seed:10 () in
      let hi = Database.now (W.Nway.db w) in
      let lo = hi / 2 in
      let d1, c1 = C.Baseline.eq1 (W.Nway.history w) (W.Nway.view w) ~lo ~hi in
      let d2, c2 = C.Baseline.eq2 (W.Nway.history w) (W.Nway.view w) ~lo ~hi in
      rows :=
        [
          string_of_int n;
          Printf.sprintf "%d / %d" c1.C.Baseline.queries c1.C.Baseline.rows_read;
          Printf.sprintf "%d / %d" c2.C.Baseline.queries c2.C.Baseline.rows_read;
          (if Relation.equal d1 d2 then "equal" else "DIFFER");
        ]
        :: !rows)
    [ (2, 60, 150); (3, 40, 90); (4, 12, 30); (5, 6, 15) ];
  table
    ~title:
      "C2 (Section 3.1): Eq.1 (realizable only at t_b) vs Eq.2 (n queries, unrealizable mixed states) — queries / rows"
    ~header:[ "n-way"; "Eq.1"; "Eq.2"; "deltas" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* C3 — the minimum-timestamp rule.                                    *)
(* ------------------------------------------------------------------ *)

let claim_min_timestamp () =
  let violations rule =
    let total = ref 0 in
    for seed = 1 to 10 do
      let w = churned_nway ~n:2 ~initial_rows:40 ~txns:50 ~seed () in
      let ctx = ctx_for w in
      ctx.C.Ctx.timestamp_rule <- rule;
      let rng = Prng.create ~seed:(seed * 7) in
      ctx.C.Ctx.on_execute <- (fun () -> W.Nway.churn w ~n:(Prng.int rng 3));
      let hi = Database.now (W.Nway.db w) in
      C.Compute_delta.view_delta ctx ~lo:0 ~hi;
      (* Count times t at which the rolled state diverges from the oracle. *)
      for t = 1 to hi do
        let state = C.Oracle.view_at (W.Nway.history w) (W.Nway.view w) 0 in
        Delta.apply_window ctx.C.Ctx.out ~lo:0 ~hi:t state;
        if not (Relation.equal state (C.Oracle.view_at (W.Nway.history w) (W.Nway.view w) t))
        then incr total
      done
    done;
    !total
  in
  let min_v = violations `Min in
  let max_v = violations `Max in
  table
    ~title:"C3 (Section 3.3): timestamp rule ablation — point-in-time states diverging from the oracle (10 runs)"
    ~header:[ "rule"; "inconsistent time points" ]
    [
      [ "minimum (paper)"; string_of_int min_v ];
      [ "maximum (ablation)"; string_of_int max_v ];
    ];
  if min_v <> 0 then begin
    print_endline "!! the minimum rule must be exact";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* A1 — ablation: no compensation.                                     *)
(* ------------------------------------------------------------------ *)

let ablation_no_compensation () =
  let rows = ref [] in
  List.iter
    (fun burst ->
      let run_one seed compensate =
        let w = churned_nway ~n:2 ~initial_rows:100 ~txns:100 ~seed () in
        let ctx = ctx_for w in
        let rng = Prng.create ~seed:(seed * 31) in
        ctx.C.Ctx.on_execute <- (fun () -> W.Nway.churn w ~n:(Prng.int rng (burst + 1)));
        let hi = Database.now (W.Nway.db w) in
        if compensate then C.Compute_delta.view_delta ctx ~lo:0 ~hi
        else begin
          (* Forward queries only — the naive asynchronous approach. *)
          let n = C.View.n_sources (W.Nway.view w) in
          for i = 0 to n - 1 do
            let q =
              C.Pquery.replace (C.Pquery.all_base n) i (C.Pquery.Win { lo = 0; hi })
            in
            ignore (C.Executor.execute ctx ~sign:1 q)
          done;
          (* Subtract the double-counted all-delta part once, as a
             synchronous scheme would — still wrong asynchronously. *)
          let all_delta =
            Array.init n (fun _ -> C.Pquery.Win { lo = 0; hi })
          in
          ignore (C.Executor.execute ctx ~sign:(-1) all_delta)
        end;
        let got = Delta.net_effect ctx.C.Ctx.out ~lo:0 ~hi in
        let expected, _ = C.Baseline.recompute_diff (W.Nway.history w) (W.Nway.view w) ~lo:0 ~hi in
        let diff = Relation.diff got expected in
        Relation.fold (fun _ c acc -> acc + abs c) diff 0
      in
      let run compensate =
        List.fold_left (fun acc seed -> acc + run_one seed compensate) 0
          [ 12; 13; 14; 15; 16 ]
      in
      rows :=
        [
          string_of_int burst;
          string_of_int (run true);
          string_of_int (run false);
        ]
        :: !rows)
    [ 0; 1; 3; 6 ];
  table
    ~title:"A1 (ablation): wrong view-delta rows without recursive compensation, by concurrent-update burst size (sum over 5 seeds)"
    ~header:[ "updates per Execute"; "with compensation"; "without" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* A2 — ablation: hash-join planner vs nested loops.                   *)
(* ------------------------------------------------------------------ *)

let ablation_planner () =
  let rows = ref [] in
  List.iter
    (fun size ->
      let w =
        churned_nway ~key_range:(size / 10) ~initial_rows:size ~n:2 ~txns:50 ~seed:13 ()
      in
      let ctx = ctx_for w in
      let _, planner_time =
        time_it (fun () -> C.Executor.evaluate ctx (C.Pquery.all_base 2))
      in
      let states =
        Array.init 2 (fun i ->
            Roll_storage.History.state_at (W.Nway.history w)
              ~table:(Printf.sprintf "t%d" i)
              (Database.now (W.Nway.db w)))
      in
      let _, naive_time =
        time_it (fun () -> C.Oracle.join_all (W.Nway.view w) states)
      in
      rows :=
        [
          string_of_int size;
          ms planner_time;
          ms naive_time;
          Printf.sprintf "%.1fx" (naive_time /. planner_time);
        ]
        :: !rows)
    [ 300; 1200; 4800 ];
  table
    ~title:"A2 (ablation): 2-way join, hash-join planner vs nested-loop evaluation"
    ~header:[ "rows per table"; "planner ms"; "nested loops ms"; "speedup" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* A3 — ablation: adaptive vs fixed intervals.                          *)
(* ------------------------------------------------------------------ *)

let ablation_autotune () =
  let measure label policy_of =
    let star = W.Star.create { W.Star.default_config with fact_initial = 500 } in
    W.Star.load_initial star;
    W.Star.mixed_txns star ~n:400 ~dim_fraction:0.02;
    let ctx =
      C.Ctx.create ~t_initial:0 (W.Star.db star) (W.Star.capture star)
        (W.Star.view star)
    in
    C.Ctx.keep_footprints ctx;
    let r = C.Rolling.create ctx ~t_initial:0 in
    C.Rolling.run_until r
      ~target:(Database.now (W.Star.db star))
      ~policy:(policy_of ctx);
    let sizes = txn_row_sizes ctx in
    [
      label;
      string_of_int (C.Counters.count ctx.C.Ctx.counters C.Counters.queries);
      string_of_int (C.Counters.count ctx.C.Ctx.counters C.Counters.rows_read);
      Printf.sprintf "%.0f" (Summary.max_value sizes);
    ]
  in
  table
    ~title:
      "A3 (ablation): adaptive intervals (target 60 delta rows/query) vs fixed guesses, star workload with unknown rates"
    ~header:[ "policy"; "queries"; "rows read"; "max rows/txn" ]
    [
      measure "fixed, uniform 10" (fun _ -> C.Rolling.uniform 10);
      measure "fixed, uniform 100" (fun _ -> C.Rolling.uniform 100);
      measure "adaptive (Autotune)" (fun ctx ->
          C.Autotune.policy (C.Autotune.create ~target_rows:60 ctx));
    ]

(* ------------------------------------------------------------------ *)
(* A4 — ablation: secondary indexes for propagation probes.             *)
(* ------------------------------------------------------------------ *)

let ablation_indexes () =
  let rows = ref [] in
  List.iter
    (fun base_rows ->
      let run indexed =
        let w =
          churned_nway ~key_range:(base_rows / 4) ~initial_rows:base_rows ~n:2
            ~txns:200 ~seed:14 ()
        in
        if indexed then begin
          Roll_storage.Table.create_index
            (Database.table (W.Nway.db w) "t0") ~columns:[ 1 ];
          Roll_storage.Table.create_index
            (Database.table (W.Nway.db w) "t1") ~columns:[ 0 ]
        end;
        let ctx = ctx_for w in
        let r = C.Rolling.create ctx ~t_initial:0 in
        let (), t = time_it (fun () ->
            C.Rolling.run_until r ~target:(Database.now (W.Nway.db w))
              ~policy:(C.Rolling.uniform 10))
        in
        (C.Counters.count ctx.C.Ctx.counters C.Counters.rows_read, t)
      in
      let scan_rows, scan_t = run false in
      let ix_rows, ix_t = run true in
      rows :=
        [
          string_of_int base_rows;
          Printf.sprintf "%d / %s" scan_rows (ms scan_t);
          Printf.sprintf "%d / %s" ix_rows (ms ix_t);
          Printf.sprintf "%.1fx" (float_of_int scan_rows /. float_of_int (max 1 ix_rows));
        ]
        :: !rows)
    [ 500; 2000; 8000 ];
  table
    ~title:
      "A4 (ablation): propagation with hash-join scans vs secondary-index probes (rows touched / ms)"
    ~header:[ "base rows/table"; "scans"; "index probes"; "row reduction" ]
    (List.rev !rows)

let all =
  [
    ("fig1_sync_incremental", fig1_sync_incremental);
    ("fig2_propagate_apply", fig2_propagate_apply);
    ("fig3_point_in_time", fig3_point_in_time);
    ("fig4_compute_delta", fig4_compute_delta);
    ("fig5_interval_sweep", fig5_interval_sweep);
    ("fig6_7_coverage", fig6_7_coverage);
    ("fig8_propagate_coverage", fig8_propagate_coverage);
    ("fig9_rolling_coverage", fig9_rolling_coverage);
    ("fig10_rolling_vs_propagate", fig10_rolling_vs_propagate);
    ("fig11_end_to_end", fig11_end_to_end);
    ("claim_contention", claim_contention);
    ("claim_eq1_eq2", claim_eq1_eq2);
    ("claim_min_timestamp", claim_min_timestamp);
    ("ablation_no_compensation", ablation_no_compensation);
    ("ablation_planner", ablation_planner);
    ("ablation_autotune", ablation_autotune);
    ("ablation_indexes", ablation_indexes);
  ]
