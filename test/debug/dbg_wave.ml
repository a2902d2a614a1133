(* Scratch: are waves forming on the star workload? *)
module C = Roll_core
module W = Roll_workload
module Predicate = Roll_relation.Predicate

let geti i d = try int_of_string Sys.argv.(i) with _ -> d
let star_config =
  { W.Star.default_config with n_dimensions = 4; dim_size = geti 2 1500;
    fact_initial = geti 3 1500; seed = 31 }

let sub_view star ~name ~dim =
  let db = W.Star.db star in
  let sources = [ (W.Star.fact_table star, "f"); (W.Star.dim_table star dim, "d") ] in
  let bind = C.View.binder db sources in
  C.View.create db ~name ~sources
    ~predicate:[ Predicate.join (bind "f" (Printf.sprintf "d%d_key" dim)) (bind "d" "key") ]
    ~project:[ bind "f" "measure"; bind "d" "attr" ]

let () =
  let domains = int_of_string Sys.argv.(1) in
  let star = W.Star.create star_config in
  W.Star.load_initial star;
  let db = W.Star.db star in
  let service = C.Service.create ~domains ~default_sla:50 db (W.Star.capture star) in
  let ctls =
    List.init 4 (fun dim ->
        let v = sub_view star ~name:(Printf.sprintf "star%d" dim) ~dim in
        let ctl = C.Service.register service
            ~algorithm:(C.Controller.Rolling (C.Rolling.per_relation [| geti 5 8; 64 |])) v in
        W.Star.mixed_txns star ~n:(geti 6 12) ~dim_fraction:0.05;
        ctl)
  in
  W.Star.mixed_txns star ~n:(geti 4 480) ~dim_fraction:0.05;
  let t0 = Unix.gettimeofday () in
  let steps = C.Service.step_all service ~budget:max_int in
  Printf.printf "steps=%d wall=%.3f\n" steps (Unix.gettimeofday () -. t0);
  List.iter (fun ((kind, dom), n) -> Printf.printf "  %s dom%d: %d\n" kind dom n)
    (C.Service.ran_by_domain service);
  let sched = C.Scheduler.counters (C.Service.scheduler service) in
  List.iter
    (fun kind ->
      let n family = C.Counters.get_by sched family kind in
      Printf.printf "  sched %s: scheduled=%.0f ran=%.0f batched=%.0f deferred=%.0f\n"
        kind (n C.Counters.sched_scheduled) (n C.Counters.sched_ran)
        (n C.Counters.sched_batched) (n C.Counters.sched_deferred))
    (C.Counters.values sched C.Counters.sched_scheduled);
  List.iteri
    (fun i ctl ->
      let st = C.Controller.counters ctl in
      Printf.printf
        "  view%d: queries=%d cdcalls=%d scanned=%d probed=%d emitted=%d exec_wall=%.3f\n"
        i (C.Counters.count st C.Counters.queries) (C.Counters.count st C.Counters.compute_delta_calls)
        (C.Counters.count st C.Counters.rows_scanned) (C.Counters.count st C.Counters.rows_probed)
        (C.Counters.count st C.Counters.rows_emitted) (C.Counters.get st C.Counters.exec_wall))
    ctls;
  C.Service.shutdown service
