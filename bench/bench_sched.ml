(* Machine-readable scheduler-policy benchmark: runs the Schedsim policy
   evaluation (Slack vs Round_robin on the skewed star workload) and writes
   BENCH_scheduler.json with per-policy staleness and DES contention
   figures, so scheduling regressions can be tracked across revisions.

   A second axis measures multicore drain throughput: the same star
   workload drained through worker-domain pools of 1, 2 and 4 domains,
   with every parallel run's final view contents checked bit-identical to
   a one-slot reference drain. Each point reports both the measured wall
   clock (meaningful only when the host actually has spare cores — the
   JSON records [cores] so readers can tell) and a DES-modeled drain time
   driven by the run's measured query footprints, the same contention
   methodology as the policy axis. *)

module S = Roll_sim.Schedsim
module C = Roll_core
module W = Roll_workload
module Des = Roll_sim.Des
module Contention = Roll_sim.Contention
module Predicate = Roll_relation.Predicate
module Relation = Roll_relation.Relation

let json_of_view (v : S.view_metrics) =
  Printf.sprintf
    "        {\"view\": \"%s\", \"sla\": %d, \"max_staleness\": %d, \
     \"mean_staleness\": %.2f, \"violations\": %d}"
    v.S.view v.S.sla v.S.max_staleness v.S.mean_staleness v.S.violations

let json_of_result (r : S.policy_result) =
  Printf.sprintf
    "    {\"policy\": \"%s\", \"total_steps\": %d, \"max_staleness\": %d, \
     \"mean_staleness\": %.2f, \"deferred\": %d, \"backpressured\": %d, \
     \"des_makespan\": %.2f, \"des_update_wait_p95\": %.4f,\n\
     \     \"views\": [\n%s\n     ]}"
    r.S.policy r.S.total_steps r.S.max_staleness r.S.mean_staleness
    r.S.deferred r.S.backpressured r.S.makespan r.S.update_wait_p95
    (String.concat ",\n" (List.map json_of_view r.S.views))

(* ------------------------------------------------------------------ *)
(* Multicore drain throughput: domains=1/2/4 on the star workload.      *)

type domains_point = {
  domains : int;
  steps : int;
  wall_s : float;
  throughput : float;  (* steps per wall second, measured *)
  des_makespan : float;  (* DES-modeled drain time on [domains] lanes *)
  des_throughput : float;  (* steps per DES-modeled second *)
  identical : bool;  (* contents bit-identical to the one-slot reference *)
}

(* One view per dimension, fact ⋈ dim_i. Registrations are staggered by
   [gap] commits so the views' fact frontiers sit further apart than a
   window is wide — successive waves then carry pairwise-disjoint fact
   windows (same-position windows would serialize by design) and each
   view's dimension windows live on distinct tables. *)
let star_config =
  {
    W.Star.default_config with
    n_dimensions = 4;
    dim_size = 1500;
    fact_initial = 1500;
    seed = 31;
  }

let fact_interval = 8

let stagger_gap = 12

let drain_txns = 480

let star_sub_view star ~name ~dim =
  let db = W.Star.db star in
  let sources =
    [ (W.Star.fact_table star, "f"); (W.Star.dim_table star dim, "d") ]
  in
  let bind = C.View.binder db sources in
  let predicate =
    [
      Predicate.join
        (bind "f" (Printf.sprintf "d%d_key" dim))
        (bind "d" "key");
    ]
  in
  C.View.create db ~name ~sources ~predicate
    ~project:[ bind "f" "measure"; bind "d" "attr" ]

(* Build the workload, drain it (one slot when [domains] is [None], through
   a wider pool otherwise), and return steps, wall seconds, the final contents
   of every view at the last data commit, and the measured per-query
   footprints tagged with their view, in serialization order. *)
let run_star_drain ~domains =
  let star = W.Star.create star_config in
  W.Star.load_initial star;
  let db = W.Star.db star in
  let service = C.Service.create ?domains ~default_sla:50 db (W.Star.capture star) in
  let ctls =
    List.init star_config.W.Star.n_dimensions (fun dim ->
        let v = star_sub_view star ~name:(Printf.sprintf "star%d" dim) ~dim in
        let ctl =
          C.Service.register service
            ~algorithm:
              (C.Controller.Rolling
                 (C.Rolling.per_relation [| fact_interval; 64 |]))
            v
        in
        (* Stagger the next view's materialization past this window. *)
        W.Star.mixed_txns star ~n:stagger_gap ~dim_fraction:0.05;
        ctl)
  in
  W.Star.mixed_txns star ~n:drain_txns ~dim_fraction:0.05;
  let data_now = Roll_storage.Database.now db in
  let t0 = Unix.gettimeofday () in
  let steps = C.Service.step_all service ~budget:max_int in
  let wall = Unix.gettimeofday () -. t0 in
  let footprints =
    List.concat
      (List.mapi
         (fun dim ctl ->
           List.map
             (fun fp -> (Printf.sprintf "star%d" dim, fp))
             (C.Stats.footprints (C.Controller.stats ctl)))
         ctls)
    |> List.sort (fun (_, (a : C.Stats.footprint)) (_, b) ->
           compare a.C.Stats.exec b.C.Stats.exec)
  in
  let contents =
    List.map
      (fun ctl ->
        C.Controller.refresh_to ctl data_now;
        C.Controller.contents ctl)
      ctls
  in
  C.Service.shutdown service;
  (steps, wall, contents, footprints)

(* DES model of the drain on [lanes] domain slots. Every measured query
   becomes one transaction holding two exclusive locks: its lane (items
   are dealt round robin in serialization order, modeling the pool's
   slot-strided dispatch) and its own view's delta (the single-writer rule
   for that view's rows — same-view steps serialize exactly as the wave
   planner serializes them). Pairwise-disjoint wave items over distinct
   views share neither lock, so they overlap freely on separate lanes.
   This is the scaling the pool delivers per spare core; the measured wall
   clock above reports what the current host's cores actually allowed. *)
let des_drain_makespan footprints ~lanes =
  let costs = Contention.default_costs in
  let duration (fp : C.Stats.footprint) =
    let rows =
      List.fold_left (fun acc (_, n) -> acc + n) 0 fp.C.Stats.reads
      + fp.C.Stats.emitted
    in
    costs.Contention.base_cost
    +. (costs.Contention.per_row *. float_of_int rows)
  in
  let txns =
    List.mapi
      (fun i (view, fp) ->
        {
          Des.label = "step";
          arrival = 0.0;
          duration = duration fp;
          locks =
            [
              {
                Des.resource = Printf.sprintf "lane%d" (i mod lanes);
                mode = Des.Exclusive;
              };
              { Des.resource = "delta:" ^ view; mode = Des.Exclusive };
            ];
        })
      footprints
  in
  (Des.run txns).Des.makespan

let run_domains_axis () =
  let _, _, reference, _ = run_star_drain ~domains:None in
  List.map
    (fun n ->
      let steps, wall, contents, footprints = run_star_drain ~domains:(Some n) in
      let des_makespan = des_drain_makespan footprints ~lanes:n in
      {
        domains = n;
        steps;
        wall_s = wall;
        throughput = (if wall > 0. then float_of_int steps /. wall else 0.);
        des_makespan;
        des_throughput =
          (if des_makespan > 0. then float_of_int steps /. des_makespan else 0.);
        identical = List.for_all2 Relation.equal reference contents;
      })
    [ 1; 2; 4 ]

let json_of_domains_point ~wall_base ~des_base p =
  Printf.sprintf
    "    {\"domains\": %d, \"steps\": %d, \"wall_s\": %.4f, \"throughput_steps_per_s\":      %.1f, \"speedup_vs_domains1\": %.2f, \"des_makespan\": %.4f, \"des_throughput_steps_per_s\": %.1f, \"des_speedup_vs_domains1\": %.2f, \"identical_to_serial\": %b}"
    p.domains p.steps p.wall_s p.throughput
    (if wall_base > 0. then p.throughput /. wall_base else 0.)
    p.des_makespan p.des_throughput
    (if des_base > 0. then p.des_throughput /. des_base else 0.)
    p.identical

let run () =
  let results = S.run () in
  let points = run_domains_axis () in
  let wall_base = match points with p :: _ -> p.throughput | [] -> 0. in
  let des_base = match points with p :: _ -> p.des_throughput | [] -> 0. in
  let cores = Domain.recommended_domain_count () in
  let path = "BENCH_scheduler.json" in
  let oc = open_out path in
  output_string oc
    ("{\n  \"benchmark\": \"scheduler\",\n  " ^ Exp_common.meta_json () ^ ",\n");
  output_string oc (Printf.sprintf "  \"cores\": %d,\n" cores);
  output_string oc "  \"policies\": [\n";
  output_string oc (String.concat ",\n" (List.map json_of_result results));
  output_string oc "\n  ],\n  \"domains\": [\n";
  output_string oc
    (String.concat ",\n"
       (List.map (json_of_domains_point ~wall_base ~des_base) points));
  output_string oc "\n  ]\n}\n";
  close_out oc;
  List.iter (fun r -> Format.printf "  @[%a@]@." S.pp_result r) results;
  List.iter
    (fun p ->
      Printf.printf
        "  domains=%d: %d steps, wall %.3fs (%.2fx), DES model %.3fs \
         (%.2fx)%s\n"
        p.domains p.steps p.wall_s
        (if wall_base > 0. then p.throughput /. wall_base else 0.)
        p.des_makespan
        (if des_base > 0. then p.des_throughput /. des_base else 0.)
        (if p.identical then "" else "  CONTENTS MISMATCH"))
    points;
  Printf.printf "  %d core%s on this host; DES figures model one lane per \
                 domain\n"
    cores
    (if cores = 1 then "" else "s");
  Printf.printf "  wrote %s\n" path
