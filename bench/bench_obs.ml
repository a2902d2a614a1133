(* Rollscope overhead benchmark: the same star maintenance drain run with
   observability disabled (the default handle) and enabled (live trace +
   metrics), comparing drain wall time. The instrumentation budget is <5%
   overhead on the traced drain; writes BENCH_obs.json so the figure is
   tracked across revisions. *)

module Clock = Roll_obs.Clock
module Obs = Roll_obs.Obs
module C = Roll_core
module W = Roll_workload
module Json = Roll_util.Json

(* All bench wall-time reads go through the injectable clock, not raw
   Unix.gettimeofday (see DESIGN.md section 14). *)
let clock = Clock.real ()

(* One full drain over a freshly built and churned star workload. Setup is
   outside the timed region; only the [maintain] drain is measured. *)
let drain ~obs () =
  let star = W.Star.create { W.Star.default_config with seed = 42 } in
  W.Star.load_initial star;
  let db = W.Star.db star in
  let service =
    match obs with
    | Some obs -> C.Service.create ~obs db (W.Star.capture star)
    | None -> C.Service.create db (W.Star.capture star)
  in
  let _ =
    C.Service.register service
      ~algorithm:(C.Controller.Rolling (C.Rolling.per_relation [| 10; 80; 80 |]))
      (W.Star.view star)
  in
  W.Star.mixed_txns star ~n:400 ~dim_fraction:0.05;
  let t0 = Clock.now clock in
  (match C.Service.maintain service ~budget:10_000 with
  | Ok _ -> ()
  | Error (e : C.Service.step_error) ->
      failwith ("obs bench drain failed at " ^ e.point));
  let wall = Clock.now clock -. t0 in
  (wall, obs)

(* Min of [n] runs: the least-disturbed measurement of identical work. *)
let best n f =
  let rec go k acc =
    if k = 0 then acc
    else
      let wall, _ = f () in
      go (k - 1) (Float.min acc wall)
  in
  go n infinity

let run () =
  (* Warm the allocator and caches off the books. *)
  ignore (drain ~obs:None ());
  let iters = 5 in
  let untraced = best iters (fun () -> drain ~obs:None ()) in
  let traced =
    best iters (fun () -> drain ~obs:(Some (Obs.create ())) ())
  in
  (* One more traced run to report trace volume. *)
  let _, obs = drain ~obs:(Some (Obs.create ())) () in
  let spans =
    match obs with
    | Some obs -> Roll_obs.Trace.recorded (Obs.trace obs)
    | None -> 0
  in
  let overhead_pct =
    if untraced > 0. then (traced -. untraced) /. untraced *. 100. else 0.
  in
  let path = "BENCH_obs.json" in
  Exp_common.write_json path ~benchmark:"obs"
    [
      ("workload", Json.Str "star");
      ("untraced_drain_s", Json.fixed 6 untraced);
      ("traced_drain_s", Json.fixed 6 traced);
      ("overhead_pct", Json.fixed 2 overhead_pct);
      ("target_overhead_pct", Json.Float 5.0);
      ("spans_recorded", Json.Int spans);
    ];
  Printf.printf
    "  star drain: untraced %.3fms, traced %.3fms, overhead %.2f%% \
     (target <5%%), %d spans\n\
    \  wrote %s\n"
    (untraced *. 1000.) (traced *. 1000.) overhead_pct spans path
