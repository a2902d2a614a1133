module C = Roll_core
module W = Roll_workload
module Predicate = Roll_relation.Predicate
module Summary = Roll_util.Summary
module Prng = Roll_util.Prng

type config = {
  rounds : int;
  txns_per_round : int;
  budget : int;
  dim_fraction : float;
  sla : int;
  hot_interval : int;
  cold_interval : int;
  seed : int;
}

let default_config =
  {
    rounds = 25;
    txns_per_round = 30;
    budget = 12;
    dim_fraction = 0.05;
    sla = 40;
    hot_interval = 4;
    cold_interval = 40;
    seed = 23;
  }

type view_metrics = {
  view : string;
  sla : int;
  max_staleness : int;
  mean_staleness : float;
  violations : int;
}

type policy_result = {
  policy : string;
  views : view_metrics list;
  total_steps : int;
  max_staleness : int;
  mean_staleness : float;
  deferred : int;
  backpressured : int;
  makespan : float;
  update_wait_p95 : float;
}

let policy_name = function
  | C.Scheduler.Slack -> "slack"
  | C.Scheduler.Round_robin -> "round_robin"

(* A two-table sub-join of the star schema: fact against one dimension. *)
let sub_view star ~name ~dim =
  let db = W.Star.db star in
  let sources = [ (W.Star.fact_table star, "f"); (W.Star.dim_table star dim, "d") ] in
  let bind = C.View.binder db sources in
  let predicate =
    [ Predicate.join (bind "f" (Printf.sprintf "d%d_key" dim)) (bind "d" "key") ]
  in
  C.View.create db ~name ~sources ~predicate
    ~project:[ bind "f" "measure"; bind "d" "attr" ]

(* Replay the measured propagation footprints against a Poisson updater
   stream through the lock simulator. The propagation spacing compresses
   each policy's whole run into the same simulated horizon, so the policies
   are compared on identical offered load. *)
let des_replay config footprints =
  let costs = Contention.default_costs in
  let n = List.length footprints in
  let horizon = 10.0 in
  let spacing = if n = 0 then horizon else horizon /. float_of_int n in
  let prop = Contention.propagation_txns costs footprints ~start:0.0 ~spacing in
  let tables =
    "fact" :: List.init 2 (fun i -> Printf.sprintf "dim%d" i)
  in
  let rng = Prng.create ~seed:(config.seed + 7) in
  let updates =
    Contention.update_stream rng ~tables ~rate:8.0 ~until:horizon
      ~mean_duration:0.02
  in
  let result = Des.run (prop @ updates) in
  let update_wait =
    match List.assoc_opt "update" result.Des.classes with
    | Some cls when Summary.count cls.Des.wait > 0 ->
        Summary.percentile cls.Des.wait 0.95
    | _ -> 0.0
  in
  (result.Des.makespan, update_wait)

let run_policy config policy =
  let star =
    W.Star.create { W.Star.default_config with seed = config.seed }
  in
  W.Star.load_initial star;
  let service =
    C.Service.create ~policy ~default_sla:config.sla (W.Star.db star)
      (W.Star.capture star)
  in
  let hot = sub_view star ~name:"hot" ~dim:0 in
  let cold = sub_view star ~name:"cold" ~dim:1 in
  let hot_ctl =
    C.Service.register service ~algorithm:(C.Controller.Uniform config.hot_interval) hot
  in
  let cold_ctl =
    C.Service.register service
      ~algorithm:(C.Controller.Uniform config.cold_interval)
      cold
  in
  List.iter
    (fun ctl -> C.Ctx.keep_footprints (C.Controller.ctx ctl))
    [ hot_ctl; cold_ctl ];
  let samples = Hashtbl.create 4 in
  let sample name ~sla staleness =
    let s, violations =
      match Hashtbl.find_opt samples name with
      | Some sv -> sv
      | None ->
          let sv = (Summary.create (), ref 0) in
          Hashtbl.add samples name sv;
          sv
    in
    Summary.add s (float_of_int staleness);
    if staleness > sla then incr violations
  in
  let total_steps = ref 0 in
  for _ = 1 to config.rounds do
    W.Star.mixed_txns star ~n:config.txns_per_round
      ~dim_fraction:config.dim_fraction;
    total_steps := !total_steps + C.Service.step_all service ~budget:config.budget;
    List.iter
      (fun (st : C.Service.status) ->
        sample st.C.Service.name ~sla:st.C.Service.sla st.C.Service.staleness)
      (C.Service.status service)
  done;
  let views =
    List.map
      (fun name ->
        let s, violations = Hashtbl.find samples name in
        {
          view = name;
          sla = C.Service.sla service name;
          max_staleness = int_of_float (Summary.max_value s);
          mean_staleness = Summary.mean s;
          violations = !violations;
        })
      (C.Service.names service)
  in
  let counters = C.Scheduler.counters (C.Service.scheduler service) in
  let total family =
    List.fold_left
      (fun acc kind -> acc + int_of_float (C.Counters.get_by counters family kind))
      0
      (C.Counters.values counters family)
  in
  let deferred = total C.Counters.sched_deferred in
  let backpressured = total C.Counters.sched_backpressured in
  let footprints =
    C.Ctx.footprints (C.Controller.ctx hot_ctl)
    @ C.Ctx.footprints (C.Controller.ctx cold_ctl)
  in
  let makespan, update_wait_p95 = des_replay config footprints in
  {
    policy = policy_name policy;
    views;
    total_steps = !total_steps;
    max_staleness =
      List.fold_left
        (fun acc (v : view_metrics) -> max acc v.max_staleness)
        0 views;
    mean_staleness =
      (let n = List.length views in
       if n = 0 then 0.0
       else
         List.fold_left
           (fun acc (v : view_metrics) -> acc +. v.mean_staleness)
           0.0 views
         /. float_of_int n);
    deferred;
    backpressured;
    makespan;
    update_wait_p95;
  }

let run ?(config = default_config) () =
  [ run_policy config C.Scheduler.Slack; run_policy config C.Scheduler.Round_robin ]

let pp_result ppf r =
  Format.fprintf ppf "%-11s steps=%-4d max=%-4d mean=%-6.1f makespan=%.1f p95=%.3f"
    r.policy r.total_steps r.max_staleness r.mean_staleness r.makespan
    r.update_wait_p95;
  List.iter
    (fun v ->
      Format.fprintf ppf "@.  %-5s sla=%d max=%d mean=%.1f violations=%d"
        v.view v.sla v.max_staleness v.mean_staleness v.violations)
    r.views
