(* Serving-path load harness: drives simulated client sessions against a
   live star maintenance loop through the rolld engine (in-process, no
   sockets — the protocol and socket layers are exercised by the test
   suite and the CI smoke job; this measures the admission/serve path)
   and writes BENCH_serve.json.

   The grid is client population x update rate at a fixed maintenance
   budget per round. Sessions issue a mix of FRESH and point-in-time
   reads targeting the recent past; a read whose target lies beyond the
   view's high-water mark queues until propagation covers it. While the
   drain keeps up, waits are near zero; once the per-round update rate
   exceeds the budget's coverage capacity, the hwm lag grows and
   recent-target reads wait for the drain — the knee the companion
   Readsim fluid model predicts (its figures are written alongside). *)

module S = Roll_serve
module C = Roll_core
module W = Roll_workload
module Database = Roll_storage.Database
module Summary = Roll_util.Summary
module Prng = Roll_util.Prng
module Json = Roll_util.Json

let budget = 48

let think_rounds = 10

let recency = 50

let fresh_fraction = 0.2

let fact_interval = 5

type point = {
  clients : int;
  txns_per_round : int;
  rounds : int;
  reads : int;
  queued : int;  (* reads resolved in a later round than submitted *)
  rejected : int;
  wait_p50_ms : float;
  wait_p95_ms : float;
  wait_p99_ms : float;
  wait_rounds_p95 : float;  (* host-independent latency, in drain rounds *)
  staleness_p50 : float;
  staleness_p95 : float;  (* commits behind now at serve *)
  lag_mean : float;  (* mean now - hwm across rounds *)
  wall_s : float;
}

let run_point ~clients ~txns_per_round ~rounds =
  let star =
    W.Star.create
      { W.Star.default_config with fact_initial = 300; dim_size = 50; seed = 11 }
  in
  W.Star.load_initial star;
  let db = W.Star.db star in
  let service = C.Service.create db (W.Star.capture star) in
  let ctl =
    C.Service.register service
      ~algorithm:
        (C.Controller.Rolling
           (C.Rolling.per_relation [| fact_interval; 40; 40 |]))
      (W.Star.view star)
  in
  let engine = S.Engine.create db service in
  let rng = Prng.create ~seed:(7919 + (clients * 31) + txns_per_round) in
  let waits = Summary.create ~keep_samples:true () in
  let wait_rounds = Summary.create ~keep_samples:true () in
  let stale = Summary.create ~keep_samples:true () in
  let lag = Summary.create () in
  let outstanding = ref [] in
  let reads = ref 0 in
  let queued = ref 0 in
  let rejected = ref 0 in
  let collect round =
    outstanding :=
      List.filter
        (fun (ticket, round0) ->
          match S.Engine.poll ticket with
          | None -> true
          | Some (S.Protocol.Rows { wait; at; _ }) ->
              Summary.add waits wait;
              Summary.add wait_rounds (float_of_int (round - round0));
              Summary.add stale (float_of_int (Database.now db - at));
              if round > round0 then incr queued;
              false
          | Some _ ->
              incr rejected;
              false)
        !outstanding
  in
  let debug = Sys.getenv_opt "SERVE_DEBUG" <> None in
  let t0 = Unix.gettimeofday () in
  for round = 1 to rounds do
    if debug then
      Printf.printf "    round %d: now=%d hwm=%d out=%d %.1fs\n%!" round
        (Database.now db) (C.Controller.hwm ctl)
        (List.length !outstanding)
        (Unix.gettimeofday () -. t0);
    W.Star.mixed_txns star ~n:txns_per_round ~dim_fraction:0.05;
    (match
       C.Service.maintain service ~budget
         ~retry:(Roll_util.Retry.policy ~max_attempts:3 ())
     with
    | Ok _ -> ()
    | Error _ -> ());
    for c = 0 to clients - 1 do
      if (c + round) mod think_rounds = 0 then begin
        incr reads;
        let request =
          if Prng.chance rng fresh_fraction then S.Protocol.Read_fresh "star"
          else
            let now = Database.now db in
            S.Protocol.Read_at
              { view = "star"; time = max 0 (now - Prng.int rng recency) }
        in
        outstanding := (S.Engine.submit engine request, round) :: !outstanding
      end
    done;
    ignore (S.Engine.pump engine);
    collect round;
    Summary.add lag
      (float_of_int (Database.now db - C.Controller.hwm ctl))
  done;
  (* Catch-up: drain until every outstanding read resolves (their targets
     are all <= now, so full coverage serves them). The attempt cap is a
     safety net; if it trips, the censored reads are recorded at their
     final observed wait so saturation shows in the tail, not silently. *)
  let attempts = ref 0 in
  while !outstanding <> [] && !attempts < 500 do
    incr attempts;
    (match C.Service.maintain service ~budget with
    | Ok _ -> ()
    | Error _ -> ());
    ignore (S.Engine.pump engine);
    collect (rounds + !attempts)
  done;
  if !outstanding <> [] then begin
    Printf.printf "  serve: WARNING shed %d unresolved reads (catch-up cap)\n%!"
      (List.length !outstanding);
    List.iter
      (fun (_, round0) ->
        Summary.add wait_rounds (float_of_int (rounds + !attempts - round0));
        incr queued)
      !outstanding;
    outstanding := []
  end;
  C.Service.shutdown service;
  let wall_s = Unix.gettimeofday () -. t0 in
  let pct s p = if Summary.count s = 0 then 0.0 else Summary.percentile s p in
  {
    clients;
    txns_per_round;
    rounds;
    reads = !reads;
    queued = !queued;
    rejected = !rejected;
    wait_p50_ms = pct waits 0.5 *. 1000.0;
    wait_p95_ms = pct waits 0.95 *. 1000.0;
    wait_p99_ms = pct waits 0.99 *. 1000.0;
    wait_rounds_p95 = pct wait_rounds 0.95;
    staleness_p50 = pct stale 0.5;
    staleness_p95 = pct stale 0.95;
    lag_mean = Summary.mean lag;
    wall_s;
  }

let json_of_point p =
  Json.Obj
    [
      ("clients", Json.Int p.clients);
      ("update_rate", Json.Int p.txns_per_round);
      ("rounds", Json.Int p.rounds);
      ("reads", Json.Int p.reads);
      ("queued", Json.Int p.queued);
      ("rejected", Json.Int p.rejected);
      ("wait_p50_ms", Json.fixed 3 p.wait_p50_ms);
      ("wait_p95_ms", Json.fixed 3 p.wait_p95_ms);
      ("wait_p99_ms", Json.fixed 3 p.wait_p99_ms);
      ("wait_rounds_p95", Json.fixed 1 p.wait_rounds_p95);
      ("staleness_p50", Json.fixed 1 p.staleness_p50);
      ("staleness_p95", Json.fixed 1 p.staleness_p95);
      ("lag_mean", Json.fixed 1 p.lag_mean);
      ("wall_s", Json.fixed 2 p.wall_s);
    ]

let json_of_model ~clients ~update_rate (r : Roll_sim.Readsim.result) =
  let module R = Roll_sim.Readsim in
  Json.Obj
    [
      ("clients", Json.Int clients);
      ("update_rate", Json.Int update_rate);
      ("reads", Json.Int r.R.reads);
      ("queued", Json.Int r.R.queued);
      ("wait_p50_s", Json.fixed 3 r.R.wait_p50);
      ("wait_p95_s", Json.fixed 3 r.R.wait_p95);
      ("wait_p99_s", Json.fixed 3 r.R.wait_p99);
      ("staleness_p50", Json.fixed 1 r.R.staleness_p50);
      ("staleness_p95", Json.fixed 1 r.R.staleness_p95);
      ("lag_mean", Json.fixed 1 r.R.lag_mean);
      ("saturated", Json.Bool r.R.saturated);
    ]

let client_counts = [ 200; 1000; 4000 ]

let update_rates = [ 25; 100; 200 ]

let rounds = 20

let run () =
  let grid =
    List.concat_map
      (fun clients ->
        List.map
          (fun txns_per_round ->
            let p = run_point ~clients ~txns_per_round ~rounds in
            Printf.printf
              "  serve: clients=%d rate=%d  wait p95 %.1fms (%.1f rounds)  \
               staleness p95 %.0f  lag %.0f  queued %d/%d\n%!"
              p.clients p.txns_per_round p.wait_p95_ms p.wait_rounds_p95
              p.staleness_p95 p.lag_mean p.queued p.reads;
            p)
          update_rates)
      client_counts
  in
  (* Matched fluid-model points: one simulated second per round. *)
  let model =
    List.concat_map
      (fun clients ->
        List.map
          (fun update_rate ->
            let r =
              Roll_sim.Readsim.run
                {
                  Roll_sim.Readsim.default_config with
                  duration = float_of_int rounds;
                  update_rate = float_of_int update_rate;
                  drain_rate = float_of_int budget;
                  step_commits = float_of_int fact_interval;
                  clients;
                  think_time = float_of_int think_rounds;
                  recency = float_of_int recency;
                  fresh_fraction;
                }
            in
            (clients, update_rate, r))
          update_rates)
      client_counts
  in
  (* The knee: per client count, the first update rate where the p95 wait
     spans at least one full drain round — reads start outliving the
     drain cycle that admitted them. *)
  let knees =
    List.filter_map
      (fun clients ->
        List.find_opt
          (fun p -> p.clients = clients && p.wait_rounds_p95 >= 1.0)
          grid
        |> Option.map (fun p ->
               Json.Obj
                 [
                   ("clients", Json.Int p.clients);
                   ("update_rate", Json.Int p.txns_per_round);
                   ("wait_rounds_p95", Json.fixed 1 p.wait_rounds_p95);
                 ]))
      client_counts
  in
  Exp_common.write_json "BENCH_serve.json" ~benchmark:"serve"
    [
      ("budget", Json.Int budget);
      ("fact_interval", Json.Int fact_interval);
      ("think_rounds", Json.Int think_rounds);
      ("recency", Json.Int recency);
      ("fresh_fraction", Json.fixed 2 fresh_fraction);
      ("grid", Json.List (List.map json_of_point grid));
      ( "model",
        Json.List
          (List.map
             (fun (c, u, r) -> json_of_model ~clients:c ~update_rate:u r)
             model) );
      ("knee", Json.List knees);
    ];
  Printf.printf "  wrote BENCH_serve.json\n"
