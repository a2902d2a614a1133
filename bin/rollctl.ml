(* rollctl — command-line driver for the rolling-IVM engine.

     rollctl run --workload star --algorithm rolling --txns 500
     rollctl coverage --txns 80 --fact-interval 5 --dim-interval 15
     rollctl parse "SELECT o.okey ... "
*)

open Cmdliner
module Time = Roll_delta.Time

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let verbose_term =
  let flag =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"enable debug logging")
  in
  Term.(const setup_logs $ flag)
module Database = Roll_storage.Database
module Tablefmt = Roll_util.Tablefmt
module Summary = Roll_util.Summary
module C = Roll_core
module W = Roll_workload

(* --- run --- *)

type workload_kind = Star | Chain

let run_cmd workload algorithm txns interval verify =
  let db, capture, view, history, churn =
    match workload with
    | Star ->
        let star = W.Star.create W.Star.default_config in
        W.Star.load_initial star;
        ( W.Star.db star, W.Star.capture star, W.Star.view star,
          W.Star.history star,
          fun n -> W.Star.mixed_txns star ~n ~dim_fraction:0.05 )
    | Chain ->
        let chain = W.Chain.create W.Chain.default_config in
        W.Chain.load_initial chain;
        ( W.Chain.db chain, W.Chain.capture chain, W.Chain.view chain,
          W.Chain.history chain,
          fun n -> W.Chain.run chain ~n )
  in
  let n = C.View.n_sources view in
  let algo =
    match algorithm with
    | "uniform" -> C.Controller.Uniform interval
    | "rolling" ->
        C.Controller.Rolling
          (C.Rolling.per_relation
             (Array.init n (fun i -> if i = 0 then interval else interval * 10)))
    | "deferred" -> C.Controller.Deferred (C.Rolling_deferred.uniform interval)
    | "adaptive" -> C.Controller.Adaptive (interval * 5)
    | other -> failwith ("unknown algorithm: " ^ other)
  in
  let controller = C.Controller.create db capture view ~algorithm:algo in
  let rounds = 5 in
  for _ = 1 to rounds do
    churn (txns / rounds);
    ignore (C.Controller.refresh_latest controller)
  done;
  let stats = C.Controller.stats controller in
  Tablefmt.print ~title:"maintenance summary"
    ~header:[ "metric"; "value" ]
    [
      [ "view"; C.View.name view ];
      [ "commits"; string_of_int (Database.now db) ];
      [ "view rows";
        string_of_int (Roll_relation.Relation.distinct_count (C.Controller.contents controller)) ];
      [ "as of"; string_of_int (C.Controller.as_of controller) ];
      [ "propagation queries"; string_of_int (C.Stats.queries stats) ];
      [ "rows read"; string_of_int (C.Stats.rows_read stats) ];
      [ "rows emitted"; string_of_int (C.Stats.rows_emitted stats) ];
    ];
  if verify then begin
    let t = C.Controller.as_of controller in
    let expected = C.Oracle.view_at history view t in
    if Roll_relation.Relation.equal expected (C.Controller.contents controller) then
      print_endline "verification vs oracle: ok"
    else begin
      print_endline "verification vs oracle: FAILED";
      exit 1
    end
  end

let workload_conv =
  Arg.conv
    ( (fun s ->
        match s with
        | "star" -> Ok Star
        | "chain" -> Ok Chain
        | _ -> Error (`Msg "expected star or chain")),
      fun ppf w -> Format.pp_print_string ppf (match w with Star -> "star" | Chain -> "chain") )

let run_term =
  let workload =
    Arg.(value & opt workload_conv Star & info [ "workload"; "w" ] ~doc:"star or chain")
  in
  let algorithm =
    Arg.(value & opt string "rolling" & info [ "algorithm"; "a" ] ~doc:"rolling, uniform, deferred or adaptive")
  in
  let txns = Arg.(value & opt int 500 & info [ "txns"; "n" ] ~doc:"update transactions") in
  let interval = Arg.(value & opt int 10 & info [ "interval"; "i" ] ~doc:"base propagation interval") in
  let verify = Arg.(value & flag & info [ "verify" ] ~doc:"check the final state against the oracle") in
  Term.(const (fun () w a n i v -> run_cmd w a n i v) $ verbose_term $ workload $ algorithm $ txns $ interval $ verify)

(* --- coverage --- *)

let coverage_cmd txns i0 i1 width =
  let w = W.Nway.create (W.Nway.config ~n:2 ~initial_rows:20 ~seed:5 ()) in
  W.Nway.load_initial w;
  W.Nway.churn w ~n:txns;
  let ctx =
    C.Ctx.create ~geometry:true ~t_initial:0 (W.Nway.db w) (W.Nway.capture w)
      (W.Nway.view w)
  in
  let r = C.Rolling.create ctx ~t_initial:0 in
  let target = Database.now (W.Nway.db w) in
  C.Rolling.run_until r ~target ~policy:(C.Rolling.per_relation [| i0; i1 |]);
  let g = Option.get ctx.C.Ctx.geometry in
  Printf.printf "rolling propagation of %d commits, intervals R1=%d R2=%d:\n\n"
    target i0 i1;
  print_string (C.Geometry.render_2d g ~width ~upto:(Database.now (W.Nway.db w)));
  (match C.Geometry.check g ~hwm:(C.Rolling.hwm r) with
  | Ok () -> Printf.printf "\ncoverage up to hwm=%d: exact\n" (C.Rolling.hwm r)
  | Error msg ->
      Printf.printf "\ncoverage check FAILED: %s\n" msg;
      exit 1)

let coverage_term =
  let txns = Arg.(value & opt int 80 & info [ "txns"; "n" ] ~doc:"update transactions") in
  let i0 = Arg.(value & opt int 5 & info [ "r1-interval" ] ~doc:"R1 interval") in
  let i1 = Arg.(value & opt int 15 & info [ "r2-interval" ] ~doc:"R2 interval") in
  let width = Arg.(value & opt int 40 & info [ "width" ] ~doc:"render width") in
  Term.(const (fun () a b c d -> coverage_cmd a b c d) $ verbose_term $ txns $ i0 $ i1 $ width)

(* --- status (multi-view service demo) --- *)

(* [--domains N] on status/schedule: explicit flag wins, then the
   ROLL_DOMAINS environment variable, else 1. *)
let resolve_domains = function
  | Some n -> Some n
  | None -> C.Service.env_domains ()

let domains_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ]
        ~doc:
          "drain through a pool of $(docv) worker domains (default: \
           ROLL_DOMAINS, else 1)"
        ~docv:"N")

let print_domain_tables service =
  let depths = C.Service.shard_depths ~full:true service in
  Tablefmt.print
    ~title:
      (Printf.sprintf "shard queue depth (domains=%d)"
         (C.Service.domains service))
    ~header:[ "shard"; "pending items" ]
    (List.mapi
       (fun i d -> [ string_of_int i; string_of_int d ])
       (Array.to_list depths));
  match C.Service.ran_by_domain service with
  | [] -> ()
  | ran ->
      Tablefmt.print ~title:"items executed per domain"
        ~header:[ "kind"; "domain"; "items" ]
        (List.map
           (fun ((kind, dom), count) ->
             [ kind; string_of_int dom; string_of_int count ])
           ran)

let status_cmd txns json domains =
  let domains = resolve_domains domains in
  let star = W.Star.create W.Star.default_config in
  W.Star.load_initial star;
  let db = W.Star.db star in
  let service = C.Service.create ?domains db (W.Star.capture star) in
  let star_ctl =
    C.Service.register ~durable:true service
      ~algorithm:(C.Controller.Rolling (C.Rolling.per_relation [| 10; 80; 80 |]))
      (W.Star.view star)
  in
  let b = C.View.binder db [ ("fact", "f") ] in
  let fact_only =
    C.View.create db ~name:"fact_copy" ~sources:[ ("fact", "f") ] ~predicate:[]
      ~project:[ b "f" "measure" ]
  in
  let _ =
    C.Service.register service ~algorithm:(C.Controller.Uniform 20) fact_only
  in
  (* A second rolling view over a dimension table: its delta windows live
     on a different table than the star view's fact windows, so a pooled
     drain can hand both out as one wave. *)
  let d0 = W.Star.dim_table star 0 in
  let bd = C.View.binder db [ (d0, "d") ] in
  let dim_watch =
    C.View.create db ~name:"dim_watch" ~sources:[ (d0, "d") ] ~predicate:[]
      ~project:[ bd "d" "attr" ]
  in
  let _ =
    C.Service.register service
      ~algorithm:(C.Controller.Rolling (C.Rolling.uniform 15))
      dim_watch
  in
  (* A filtered join: the fact source is narrowed by a local predicate and
     the projection, so with auxiliaries enabled (ROLL_AUX=1 or
     [Service.create ~auxiliary:true]) the service derives and maintains
     π(σ(fact)) as an auxiliary — its row appears below with state
     "auxiliary", and the owner's probe counters and freshness lag land in
     the "aux h/m" and "aux lag" columns. With the hotset enabled
     (ROLL_HOTSET=1 or [Service.create ~hotset:true]) the service instead
     also partitions each view's most-joined relation by key frequency:
     heavy keys' partials appear below with state "heavy-partial", and the
     owner's union-read counters and partition census land in the
     "hot h/m" and "heavy/light" columns. Every part row shows its own
     mirror lag in "aux lag", each user view the worst lag across its
     partials' parts. *)
  let fact = W.Star.fact_table star in
  let open Roll_relation in
  let bh = C.View.binder db [ (fact, "f"); (d0, "d") ] in
  let hot_fact =
    C.View.create db ~name:"hot_fact"
      ~sources:[ (fact, "f"); (d0, "d") ]
      ~predicate:
        [
          Predicate.join (bh "f" "d0_key") (bh "d" "key");
          Predicate.cmp Predicate.Ge
            (Predicate.Col (bh "f" "measure"))
            (Predicate.Const (Value.Int 48));
        ]
      ~project:[ bh "f" "d0_key"; bh "f" "measure"; bh "d" "attr" ]
  in
  let _ =
    C.Service.register service
      ~algorithm:(C.Controller.Rolling (C.Rolling.uniform 12))
      hot_fact
  in
  W.Star.mixed_txns star ~n:txns ~dim_fraction:0.05;
  C.Service.pause service "fact_copy";
  (* Demonstrate reliable stepping: the star view's third propagation query
     fails twice with a transient error before succeeding on retry. *)
  (C.Controller.ctx star_ctl).C.Ctx.fault <-
    Roll_util.Fault.transient_at "exec.query" ~hit:3 ~failures:2;
  (match
     C.Service.try_step_all service ~budget:50
       ~retry:(Roll_util.Retry.policy ~max_attempts:4 ())
   with
  | Ok _ -> ()
  | Error (e : C.Service.step_error) ->
      Printf.printf "permanent failure: view %s at %s after %d attempts\n"
        e.view e.point e.attempts);
  (* A second drain so hotset promotions land: the registry migrates keys
     at the start of the drain after the one that caught capture up. *)
  ignore (C.Service.step_all service ~budget:50);
  let print_status header =
    if json then ()
    else
      Tablefmt.print ~title:header
      ~header:
        [
          "view"; "as of"; "hwm"; "staleness"; "sla"; "slack"; "delta rows";
          "retry/abort/recover"; "memo h/m"; "aux h/m"; "aux lag"; "hot h/m";
          "heavy/light"; "shared"; "state";
        ]
      (List.map
         (fun (st : C.Service.status) ->
           [
             st.name;
             string_of_int st.as_of;
             string_of_int st.hwm;
             string_of_int st.staleness;
             string_of_int st.sla;
             string_of_int st.slack;
             string_of_int st.delta_rows;
             Printf.sprintf "%d/%d/%d" st.retries st.aborts st.recoveries;
             Printf.sprintf "%d/%d" st.memo_hits st.memo_misses;
             Printf.sprintf "%d/%d" st.aux_hits st.aux_misses;
             string_of_int st.aux_lag;
             Printf.sprintf "%d/%d" st.hot_hits st.hot_misses;
             Printf.sprintf "%d/%d" st.heavy_keys st.light_rows;
             string_of_int st.shared_builds;
             (if st.aux then "auxiliary"
              else if st.hot then "heavy-partial"
              else if st.paused then "paused"
              else "running");
           ])
         (C.Service.status service))
  in
  print_status "after 50 budgeted steps (fact_copy paused)";
  C.Service.resume service "fact_copy";
  C.Service.refresh_all service;
  ignore (C.Service.gc_all service);
  print_status "after resume + refresh_all + gc";
  if json then
    Printf.printf "{\"status\": %s, \"shards\": %s, \"storage\": %s}\n"
      (String.trim (C.Service.status_json service))
      (String.trim (C.Service.shards_json ~full:true service))
      (String.trim (Roll_storage.Database.storage_json db))
  else begin
    print_domain_tables service;
    Printf.printf "storage: %s\n" (Roll_storage.Database.storage_json db)
  end;
  C.Service.shutdown service

let status_term =
  let txns = Arg.(value & opt int 200 & info [ "txns"; "n" ] ~doc:"update transactions") in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"print the final control-table status as JSON")
  in
  Term.(
    const (fun () n j d -> status_cmd n j d)
    $ verbose_term $ txns $ json $ domains_term)

(* --- schedule (work-queue inspection) --- *)

let schedule_cmd txns policy budget json domains =
  let domains = resolve_domains domains in
  let star = W.Star.create W.Star.default_config in
  W.Star.load_initial star;
  let db = W.Star.db star in
  let policy =
    match policy with
    | "slack" -> C.Scheduler.Slack
    | "round-robin" -> C.Scheduler.Round_robin
    | other -> failwith ("unknown policy: " ^ other)
  in
  let service =
    C.Service.create ?domains ~policy ~default_sla:40 db (W.Star.capture star)
  in
  let _ =
    C.Service.register service
      ~algorithm:(C.Controller.Rolling (C.Rolling.per_relation [| 10; 80; 80 |]))
      (W.Star.view star)
  in
  let b = C.View.binder db [ ("fact", "f") ] in
  let fact_only =
    C.View.create db ~name:"fact_copy" ~sources:[ ("fact", "f") ] ~predicate:[]
      ~project:[ b "f" "measure" ]
  in
  let _ =
    C.Service.register service ~algorithm:(C.Controller.Uniform 20) fact_only
  in
  C.Service.set_sla service "fact_copy" 120;
  (* Rolling view on a dimension table: wave partner for the star view's
     fact-window steps under a pooled drain (see status_cmd). *)
  let d0 = W.Star.dim_table star 0 in
  let bd = C.View.binder db [ (d0, "d") ] in
  let dim_watch =
    C.View.create db ~name:"dim_watch" ~sources:[ (d0, "d") ] ~predicate:[]
      ~project:[ bd "d" "attr" ]
  in
  let _ =
    C.Service.register service
      ~algorithm:(C.Controller.Rolling (C.Rolling.uniform 15))
      dim_watch
  in
  W.Star.mixed_txns star ~n:txns ~dim_fraction:0.05;
  if json then begin
    (* Pure queue inspection: print the work queue a full drain would
       consume (plus its per-shard depths), best item first, and leave the
       service untouched. *)
    Printf.printf "{\"queue\": %s, \"shards\": %s}\n"
      (String.trim (C.Service.schedule_json ~full:true service))
      (String.trim (C.Service.shards_json ~full:true service));
    C.Service.shutdown service;
    exit 0
  end;
  let print_queue header =
    Tablefmt.print ~title:header
      ~header:[ "item"; "score"; "staleness"; "slack"; "est rows"; "est cost"; "state" ]
      (List.map
         (fun (s : C.Scheduler.scored) ->
           [
             Format.asprintf "%a" C.Scheduler.pp_item s.C.Scheduler.item;
             Printf.sprintf "%.2f" s.C.Scheduler.score;
             string_of_int s.C.Scheduler.staleness;
             string_of_int s.C.Scheduler.slack;
             string_of_int s.C.Scheduler.est_rows;
             Printf.sprintf "%.0f" s.C.Scheduler.est_cost;
             (if s.C.Scheduler.deferred then "deferred" else "runnable");
           ])
         (C.Service.schedule ~full:true service))
  in
  print_queue
    (Printf.sprintf "work queue before drain (policy=%s)"
       (match policy with C.Scheduler.Slack -> "slack" | C.Scheduler.Round_robin -> "round-robin"));
  (match C.Service.maintain service ~budget with
  | Ok items -> Printf.printf "maintain: executed %d work items\n" items
  | Error (e : C.Service.step_error) ->
      Printf.printf "permanent failure: view %s at %s\n" e.view e.point);
  print_queue "work queue after drain";
  let stats = C.Scheduler.stats (C.Service.scheduler service) in
  Tablefmt.print ~title:"scheduler counters"
    ~header:
      [
        "kind"; "scheduled"; "ran"; "deferred"; "backpressured"; "batched";
        "wall ms";
      ]
    (List.map
       (fun (kind, (c : C.Stats.sched_counters)) ->
         [
           kind;
           string_of_int c.C.Stats.scheduled;
           string_of_int c.C.Stats.ran;
           string_of_int c.C.Stats.deferred;
           string_of_int c.C.Stats.backpressured;
           string_of_int c.C.Stats.batched;
           Printf.sprintf "%.2f" (c.C.Stats.wall *. 1000.0);
         ])
       (C.Stats.sched_kinds stats));
  print_domain_tables service;
  C.Service.shutdown service

let schedule_term =
  let txns = Arg.(value & opt int 200 & info [ "txns"; "n" ] ~doc:"update transactions") in
  let policy =
    Arg.(value & opt string "slack" & info [ "policy"; "p" ] ~doc:"slack or round-robin")
  in
  let budget = Arg.(value & opt int 30 & info [ "budget"; "b" ] ~doc:"work items per drain") in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"print the work queue as JSON and exit (no drain)")
  in
  Term.(
    const (fun () n p b j d -> schedule_cmd n p b j d)
    $ verbose_term $ txns $ policy $ budget $ json $ domains_term)

(* --- trace / metrics (Rollscope observability) --- *)

module Obs = Roll_obs.Obs

(* One fully observed star maintenance run: a durable star view plus a
   checkpoint schedule, churned and drained under an enabled Rollscope
   handle, so the trace covers capture → propagate (with per-node
   children) → apply → checkpoint end to end. *)
let observed_star_run ~txns ~budget ~deterministic ~checkpoint =
  let clock =
    if deterministic then Roll_obs.Clock.manual () else Roll_obs.Clock.real ()
  in
  let obs = Obs.create ~clock () in
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
  if checkpoint then begin
    let path = Filename.temp_file "rollscope" ".ckpt" in
    at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
    C.Service.set_checkpoint service (C.View.name view) ~path ~every:1
  end;
  W.Star.mixed_txns star ~n:txns ~dim_fraction:0.05;
  let executed =
    match C.Service.maintain service ~budget with
    | Ok items -> items
    | Error (e : C.Service.step_error) ->
        Printf.eprintf "permanent failure: view %s at %s after %d attempts\n"
          e.view e.point e.attempts;
        exit 1
  in
  (obs, executed)

let trace_cmd txns budget out deterministic =
  let obs, executed =
    observed_star_run ~txns ~budget ~deterministic ~checkpoint:true
  in
  let trace = Obs.trace obs in
  let doc = Roll_obs.Export.chrome_trace ~process:"rollctl" trace in
  let oc = open_out out in
  output_string oc doc;
  close_out oc;
  Printf.printf
    "executed %d work items; wrote %d spans (%d dropped) to %s\n\
     load it in chrome://tracing or https://ui.perfetto.dev\n"
    executed
    (Roll_obs.Trace.recorded trace)
    (Roll_obs.Trace.dropped trace)
    out

let trace_term =
  let txns = Arg.(value & opt int 200 & info [ "txns"; "n" ] ~doc:"update transactions") in
  let budget = Arg.(value & opt int 200 & info [ "budget"; "b" ] ~doc:"work items for the drain") in
  let out =
    Arg.(value & opt string "trace.json" & info [ "out"; "o" ] ~docv:"FILE" ~doc:"output file")
  in
  let deterministic =
    Arg.(value & flag & info [ "deterministic" ] ~doc:"use a manual clock (reproducible timestamps)")
  in
  Term.(const (fun () n b o d -> trace_cmd n b o d) $ verbose_term $ txns $ budget $ out $ deterministic)

let metrics_cmd txns budget deterministic =
  let obs, _executed =
    observed_star_run ~txns ~budget ~deterministic ~checkpoint:true
  in
  print_string (Roll_obs.Export.prometheus (Obs.metrics obs))

let metrics_term =
  let txns = Arg.(value & opt int 200 & info [ "txns"; "n" ] ~doc:"update transactions") in
  let budget = Arg.(value & opt int 200 & info [ "budget"; "b" ] ~doc:"work items for the drain") in
  let deterministic =
    Arg.(value & flag & info [ "deterministic" ] ~doc:"use a manual clock (reproducible values)")
  in
  Term.(const (fun () n b d -> metrics_cmd n b d) $ verbose_term $ txns $ budget $ deterministic)

(* --- explain --- *)

let explain_cmd txns =
  let w = W.Nway.create (W.Nway.config ~n:3 ~initial_rows:100 ~seed:3 ()) in
  W.Nway.load_initial w;
  W.Nway.churn w ~n:txns;
  let ctx =
    C.Ctx.create ~t_initial:0 (W.Nway.db w) (W.Nway.capture w) (W.Nway.view w)
  in
  Roll_capture.Capture.advance (W.Nway.capture w);
  let now = Database.now (W.Nway.db w) in
  print_endline "plan for the view's defining query:";
  print_string (C.Executor.explain ctx (C.Pquery.all_base 3));
  print_endline "plan for a forward propagation query (delta window drives the join):";
  let forward =
    C.Pquery.replace (C.Pquery.all_base 3) 1
      (C.Pquery.Win { lo = now - 10; hi = now })
  in
  print_string (C.Executor.explain ctx forward);
  print_endline "";
  print_endline "estimated vs. actual (runs the queries, commits nothing):";
  print_string (C.Executor.explain_analyze ctx (C.Pquery.all_base 3));
  print_string (C.Executor.explain_analyze ctx forward);
  (* The same forward-query shape once an auxiliary is attached and fresh:
     the Base term's source renders with an α prefix — it reads the
     maintained mirror of π(σ(fact)) instead of the base table, and the
     pre-applied local filter is gone from the plan's predicate. *)
  let open Roll_relation in
  let db2 = Database.create () in
  let int_col name = { Schema.name; ty = Value.T_int } in
  let _ =
    Database.create_table db2 ~name:"fact"
      (Schema.make [ int_col "k"; int_col "v"; int_col "tag" ])
  in
  let _ =
    Database.create_table db2 ~name:"dim"
      (Schema.make [ int_col "k"; int_col "w" ])
  in
  let capture = Roll_capture.Capture.create db2 in
  Roll_capture.Capture.attach capture ~table:"fact";
  Roll_capture.Capture.attach capture ~table:"dim";
  let b = C.View.binder db2 [ ("fact", "f"); ("dim", "d") ] in
  let hot =
    C.View.create db2 ~name:"hot"
      ~sources:[ ("fact", "f"); ("dim", "d") ]
      ~predicate:
        [
          Predicate.join (b "f" "k") (b "d" "k");
          Predicate.cmp Predicate.Ge
            (Predicate.Col (b "f" "tag"))
            (Predicate.Const (Value.Int 500));
        ]
      ~project:[ b "f" "k"; b "f" "v"; b "d" "w" ]
  in
  let rng = Roll_util.Prng.create ~seed:9 in
  for _ = 1 to txns do
    ignore
      (Database.run db2 (fun txn ->
           Database.insert txn ~table:"fact"
             (Tuple.ints
                [
                  Roll_util.Prng.int rng 20;
                  Roll_util.Prng.int rng 1000;
                  Roll_util.Prng.int rng 1000;
                ]);
           Database.insert txn ~table:"dim"
             (Tuple.ints
                [ Roll_util.Prng.int rng 20; Roll_util.Prng.int rng 1000 ])))
  done;
  (* The heavy-light split: a full-width unfiltered fact source is exactly
     what narrowing skips, so a second view with no local narrowing is
     partitioned instead. Once keys are promoted the Base term renders with
     an η prefix — the union of the light residual and the per-heavy-key
     partial mirrors replaces the base scan. *)
  let wide =
    C.View.create db2 ~name:"wide"
      ~sources:[ ("fact", "f"); ("dim", "d") ]
      ~predicate:[ Predicate.join (b "f" "k") (b "d" "k") ]
      ~project:[ b "f" "k"; b "f" "v"; b "f" "tag"; b "d" "w" ]
  in
  let reg = C.Partial.create db2 capture in
  let hotset = C.Hotset.create reg in
  List.iter
    (fun (view, attach, legend) ->
      let ctl =
        C.Controller.create db2 capture view
          ~algorithm:(C.Controller.Rolling (C.Rolling.uniform 8))
      in
      ignore (attach ctl);
      Roll_capture.Capture.advance capture;
      ignore (C.Hotset.rebalance hotset);
      let parts = C.Partial.for_owner reg ~owner:(C.View.name view) in
      List.iter
        (fun part ->
          ignore (C.Controller.refresh_latest (C.Partial.controller part));
          C.Partial.sync part)
        parts;
      Roll_capture.Capture.advance capture;
      let now = Database.now db2 in
      let fwd =
        C.Pquery.replace (C.Pquery.all_base 2) 1
          (C.Pquery.Win { lo = now - 5; hi = now })
      in
      Printf.printf "\nplan for view %s with %d maintained part%s fresh (%s):\n"
        (C.View.name view) (List.length parts)
        (if List.length parts = 1 then "" else "s")
        legend;
      print_string (C.Executor.explain (C.Controller.ctx ctl) fwd))
    [
      (hot, C.Partial.attach reg, "α = auxiliary mirror probe");
      (wide, C.Hotset.attach hotset, "η = light residual ∪ heavy partials");
    ];
  Printf.printf
    "heavy/light census: %d heavy keys, %d light rows, %d sketch keys\n"
    (C.Hotset.heavy_count hotset ~owner:"wide")
    (C.Hotset.light_rows hotset ~owner:"wide")
    (C.Hotset.sketch_keys hotset)

let explain_term =
  let txns = Arg.(value & opt int 50 & info [ "txns"; "n" ] ~doc:"update transactions") in
  Term.(const (fun () n -> explain_cmd n) $ verbose_term $ txns)

(* --- parse --- *)

let parse_cmd sql =
  (* A demo catalog to resolve names against. *)
  let db = Database.create () in
  let int_col name = { Roll_relation.Schema.name; ty = Roll_relation.Value.T_int } in
  let str_col name = { Roll_relation.Schema.name; ty = Roll_relation.Value.T_string } in
  let _ =
    Database.create_table db ~name:"orders"
      (Roll_relation.Schema.make [ int_col "okey"; int_col "ckey"; int_col "total" ])
  in
  let _ =
    Database.create_table db ~name:"customer"
      (Roll_relation.Schema.make [ int_col "ckey"; str_col "name"; str_col "region" ])
  in
  let _ =
    Database.create_table db ~name:"lineitem"
      (Roll_relation.Schema.make [ int_col "okey"; int_col "qty" ])
  in
  match Roll_dsl.Sql.parse_view db ~name:"cli_view" sql with
  | view ->
      Format.printf "%a@." C.View.pp view;
      Format.printf "output schema: %a@." Roll_relation.Schema.pp
        (C.View.output_schema view)
  | exception Roll_dsl.Sql.Parse_error msg ->
      Printf.eprintf "parse error: %s\n" msg;
      exit 1

let parse_term =
  let sql = Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL") in
  Term.(const (fun () q -> parse_cmd q) $ verbose_term $ sql)

let () =
  let info name doc = Cmd.info name ~doc in
  let cmds =
    [
      Cmd.v (info "run" "run a workload under view maintenance and report statistics") run_term;
      Cmd.v (info "coverage" "render the propagation-plane coverage of a rolling run (Figures 6-9)") coverage_term;
      Cmd.v
        (info "parse"
           "parse a view definition against the demo catalog (orders, customer, lineitem)")
        parse_term;
      Cmd.v (info "status" "run a two-view maintenance service and print its control-table status") status_term;
      Cmd.v
        (info "schedule"
           "show the maintenance scheduler's work queue, scores and counters")
        schedule_term;
      Cmd.v (info "explain" "show executor plans for base and propagation queries") explain_term;
      Cmd.v
        (info "trace"
           "run an observed star maintenance drain and write a Chrome trace-event JSON file")
        trace_term;
      Cmd.v
        (info "metrics"
           "run an observed star maintenance drain and print Prometheus text metrics")
        metrics_term;
    ]
  in
  let group =
    Cmd.group
      (Cmd.info "rollctl" ~version:"1.0.0"
         ~doc:"asynchronous incremental view maintenance (rolling join propagation)")
      cmds
  in
  exit (Cmd.eval group)
