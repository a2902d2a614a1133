module Time = Roll_delta.Time
module Delta = Roll_delta.Delta
module Database = Roll_storage.Database
module History = Roll_storage.History
module Capture = Roll_capture.Capture
module Uow = Roll_capture.Uow
module Fault = Roll_util.Fault
module Retry = Roll_util.Retry

let log_src = Logs.Src.create "roll.controller" ~doc:"view-maintenance controller"

module Log = (val Logs.src_log log_src)

type algorithm =
  | Uniform of int
  | Rolling of Rolling.policy
  | Deferred of Rolling_deferred.policy
  | Adaptive of int

type process =
  | P_uniform of Propagate.t * int
  | P_rolling of Rolling.t * Rolling.policy
  | P_deferred of Rolling_deferred.t * Rolling_deferred.policy

type t = {
  ctx : Ctx.t;
  apply : Apply.t;
  process : process;
  mutable durable : bool;
  mutable gc_horizon : Time.t;
      (** earliest time a faithful snapshot can still be built: the view's
          materialization time, pushed forward whenever gc prunes applied
          delta rows (reconstructing below the prune point would need the
          rows the prune reclaimed) *)
}

let ctx t = t.ctx

let view t = t.ctx.Ctx.view

let contents t = Apply.contents t.apply

let as_of t = Apply.as_of t.apply

let hwm t =
  match t.process with
  | P_uniform (p, _) -> Propagate.hwm p
  | P_rolling (r, _) -> Rolling.hwm r
  | P_deferred (r, _) -> Rolling_deferred.hwm r

let frontier t =
  let view = View.name t.ctx.Ctx.view in
  let as_of = Apply.as_of t.apply in
  match t.process with
  | P_uniform (p, _) ->
      let h = Propagate.hwm p in
      let n = View.n_sources t.ctx.Ctx.view in
      {
        Frontier.view;
        tfwd = Array.make n h;
        tcomp = Array.make n h;
        hwm = h;
        as_of;
      }
  | P_rolling (r, _) ->
      let tfwd = Rolling.frontiers r in
      {
        Frontier.view;
        tfwd;
        tcomp = Array.copy tfwd;
        hwm = Rolling.hwm r;
        as_of;
      }
  | P_deferred (r, _) ->
      {
        Frontier.view;
        tfwd = Rolling_deferred.frontiers r;
        tcomp = Rolling_deferred.comp_frontiers r;
        hwm = Rolling_deferred.hwm r;
        as_of;
      }

let record_frontier t =
  Fault.hit t.ctx.Ctx.fault "frontier.record";
  ignore
    (Database.commit_marker t.ctx.Ctx.db ~tag:(Frontier.to_tag (frontier t)))

let durable t = t.durable

let set_durable t durable =
  let was = t.durable in
  t.durable <- durable;
  if durable && not was then record_frontier t

(* In-memory indexes are cheap to maintain and die with the process, so
   every view gets them at create and again at recover. A paged index is
   one more B-tree written on every commit; the paged store indexes only
   on request. *)
let build_join_indexes db view =
  if Database.store db = None then
    List.iter
      (fun atom ->
        match atom with
        | Roll_relation.Predicate.Join (a, b) ->
            List.iter
              (fun (c : Roll_relation.Predicate.col) ->
                Roll_storage.Table.create_index
                  (Database.table db (View.source_table view c.source))
                  ~columns:[ c.column ])
              [ a; b ]
        | Roll_relation.Predicate.Cmp _ -> ())
      (View.predicate view)

(* Wiring one observability handle across the whole maintenance stack:
   the context carries it, and the database / capture process report into
   the same registry. *)
let install_obs db capture (ctx : Ctx.t) = function
  | None -> ()
  | Some obs ->
      ctx.Ctx.obs <- obs;
      Database.set_obs db obs;
      Capture.set_obs capture obs

let create ?(geometry = false) ?(durable = false) ?obs db capture view
    ~algorithm =
  build_join_indexes db view;
  let ctx = Ctx.create db capture view in
  install_obs db capture ctx obs;
  let apply = Apply.create_materialized ctx in
  let t_initial = Apply.as_of apply in
  (* The geometry trace's origin must match the maintenance start time,
     which is only known after materialization. *)
  if geometry then
    ctx.Ctx.geometry <-
      Some (Geometry.create ~n:(View.n_sources view) ~origin:t_initial);
  let process =
    match algorithm with
    | Uniform interval -> P_uniform (Propagate.create ctx ~t_initial, interval)
    | Rolling policy -> P_rolling (Rolling.create ctx ~t_initial, policy)
    | Deferred policy ->
        P_deferred (Rolling_deferred.create ctx ~t_initial, policy)
    | Adaptive target_rows ->
        let tuner = Autotune.create ~target_rows ctx in
        P_rolling (Rolling.create ctx ~t_initial, Autotune.policy tuner)
  in
  let t =
    { ctx; apply; process; durable = false; gc_horizon = Apply.as_of apply }
  in
  if durable then set_durable t true;
  t

let propagate_step_body t =
  let db = t.ctx.Ctx.db in
  let before = Database.now db in
  let advanced =
    match t.process with
    | P_uniform (p, interval) -> (
        match Propagate.step p ~interval with
        | `Advanced _ -> true
        | `Idle -> false)
    | P_rolling (r, policy) -> (
        match Rolling.step r ~policy with `Advanced _ -> true | `Idle -> false)
    | P_deferred (r, policy) -> (
        match Rolling_deferred.step r ~policy with
        | `Advanced _ -> true
        | `Idle -> false)
  in
  (* Quiet-window steps commit nothing, and recording a marker for them
     would advance the clock, leaving the propagator forever chasing its
     own frontier markers. A quiet advance lost to a crash replays
     deterministically (the window is still provably empty on restart), so
     only steps that committed work need to be made durable. *)
  if advanced && t.durable && Database.now db > before then record_frontier t;
  advanced

(* One ["propagate.step"] span per step, for plain and window steps
   alike. *)
let traced_step t ~advanced body =
  if Roll_obs.Obs.tracing t.ctx.Ctx.obs then begin
    let trace = Roll_obs.Obs.trace t.ctx.Ctx.obs in
    Roll_obs.Trace.with_span trace
      ~attrs:[ ("view", Roll_obs.Trace.Str (View.name t.ctx.Ctx.view)) ]
      "propagate.step"
      (fun () ->
        let result = body () in
        Roll_obs.Trace.add_attr trace "advanced"
          (Roll_obs.Trace.Bool (advanced result));
        result)
  end
  else body ()

let propagate_step t =
  traced_step t ~advanced:Fun.id (fun () -> propagate_step_body t)

let propagate_until t target =
  if t.durable then begin
    (* Loop through [propagate_step] so every advancing step records its
       frontier; the processes' own [run_until] would bypass recording. *)
    if target > Database.now t.ctx.Ctx.db then
      invalid_arg "Controller.propagate_until: target in the future";
    let continue = ref (hwm t < target) in
    while !continue do
      let advanced = propagate_step t in
      if not (advanced || hwm t >= target) then
        invalid_arg "Controller.propagate_until: unreachable target";
      continue := advanced && hwm t < target
    done
  end
  else
    match t.process with
    | P_uniform (p, interval) -> Propagate.run_until p ~target ~interval
    | P_rolling (r, policy) -> Rolling.run_until r ~target ~policy
    | P_deferred (r, policy) -> Rolling_deferred.run_until r ~target ~policy

let refresh_to t target =
  let before_as_of = Apply.as_of t.apply in
  if target > hwm t then propagate_until t target;
  Apply.roll_to t.apply ~hwm:(hwm t) target;
  (* The apply position is part of the durable control state: recovery
     rolls the restored view forward to the recorded [as_of]. *)
  if t.durable && Apply.as_of t.apply <> before_as_of then record_frontier t;
  Log.info (fun m ->
      m "view %s refreshed to t=%d (hwm=%d)" (View.name t.ctx.Ctx.view) target
        (hwm t))

let refresh_to_wall t wall =
  Capture.advance t.ctx.Ctx.capture;
  let target = Uow.csn_at_wall (Capture.uow t.ctx.Ctx.capture) wall in
  let target = Time.max target (as_of t) in
  refresh_to t target;
  target

let refresh_latest t =
  let target = Database.now t.ctx.Ctx.db in
  refresh_to t target;
  target

let gc t =
  let pruned = Apply.prune_applied t.apply in
  (* Only an actual reclaim moves the horizon: pruning zero rows proves
     the delta held nothing at or before the apply position, so older
     snapshots are still reconstructible. *)
  if pruned > 0 then t.gc_horizon <- Time.max t.gc_horizon (as_of t);
  pruned

let horizon t = t.gc_horizon

(* Point-in-time snapshot of the view as of [time], as sorted rows: the
   stored contents rolled forward (or backward) through the timed view
   delta. Callers must keep [gc_horizon <= time <= hwm] — below the
   horizon the delta rows needed to rewind were reclaimed, above the hwm
   they do not exist yet. *)
let check_horizon t what time =
  if time < t.gc_horizon then
    invalid_arg
      (Printf.sprintf "Controller.%s: time %d below gc horizon %d" what time
         t.gc_horizon)

let view_at t time =
  check_horizon t "view_at" time;
  Apply.view_at t.apply ~hwm:(hwm t) time

let roll_rows t rows ~from time =
  check_horizon t "roll_rows" from;
  check_horizon t "roll_rows" time;
  Apply.roll_rows t.apply ~hwm:(hwm t) rows ~from time

let counters t = t.ctx.Ctx.counters

(* Window alignment snaps step targets to the propagation-interval grid so
   sibling views maintained with the same intervals produce identical delta
   windows — the precondition for the service's cross-view delta memo to
   hit. Deferred processes keep their literal Figure 10 pacing. *)
let window_alignment t =
  match t.process with
  | P_uniform (p, _) -> Propagate.align p
  | P_rolling (r, _) -> Rolling.align r
  | P_deferred _ -> false

let set_window_alignment t aligned =
  match t.process with
  | P_uniform (p, _) -> Propagate.set_align p aligned
  | P_rolling (r, _) -> Rolling.set_align r aligned
  | P_deferred _ -> ()

(* ------------------------------------------------------------------ *)
(* Step candidates and cost estimation (scheduler interface)           *)

type candidate = {
  relation : int;
  lo : Time.t;
  hi : Time.t;
  est_rows : int;
  est_cost : float;
}

(* Planner-estimated rows touched by the forward query that windows
   [relation] over (lo, hi]: the delta window drives the join, every other
   source is read as a base table. Built from catalog statistics alone so
   it never touches the capture cursors — estimating a window that is not
   fully captured yet must not raise. *)
let estimate_step_cost t ~relation ~lo ~hi =
  let view = t.ctx.Ctx.view in
  let n = View.n_sources view in
  let infos =
    Array.init n (fun j ->
        let table_name = View.source_table view j in
        if j = relation then
          {
            Planner.name = "\xce\x94" ^ table_name;
            card =
              Delta.window_count
                (Capture.delta t.ctx.Ctx.capture ~table:table_name)
                ~lo ~hi;
            is_delta = true;
            indexed = [];
          }
        else
          let table = Database.table t.ctx.Ctx.db table_name in
          (* A fresh derived partial would replace this base read with a
             read of its (smaller) part mirrors; estimate with their summed
             cardinality so the scheduler prices steps the way the executor
             will run them. Index positions stay in base coordinates (what
             the predicate references) — close enough for a cost model. *)
          let card =
            match
              Option.bind t.ctx.Ctx.partial (fun f -> f ~peek:true j)
            with
            | Some (s : Ctx.source) ->
                List.fold_left
                  (fun n p -> n + Roll_storage.Table.distinct_count p)
                  0 s.Ctx.tables
            | None -> Roll_storage.Table.distinct_count table
          in
          {
            Planner.name = table_name;
            card;
            is_delta = false;
            indexed = Roll_storage.Table.indexed_columns table;
          })
  in
  let plan = Planner.plan (View.predicate view) infos in
  let rows =
    List.fold_left
      (fun acc (s : Planner.step) -> acc +. s.Planner.est_in)
      0. plan.Planner.steps
  in
  (* On a paged store, base-table reads that miss the block cache cost a
     disk fetch; weight the estimate by the observed miss rate so the
     scheduler favours windows whose working set is resident. *)
  rows *. Database.cold_read_factor t.ctx.Ctx.db

let candidate t i ~start ~interval ~now =
  (* Mirror the step functions' own target computation (including grid
     alignment) so schedulers see the exact window the step would run. *)
  let hi = Rolling.window_hi ~align:(window_alignment t) ~start ~interval ~now in
  let table = View.source_table t.ctx.Ctx.view i in
  let est_rows =
    Delta.window_count (Capture.delta t.ctx.Ctx.capture ~table) ~lo:start ~hi
  in
  (* An empty window is a quiet advance: no query runs, no rows move. *)
  let est_cost =
    if est_rows = 0 then 0.
    else estimate_step_cost t ~relation:i ~lo:start ~hi
  in
  { relation = i; lo = start; hi; est_rows; est_cost }

let rolling_candidates t frontiers ~policy ~now =
  let n = Array.length frontiers in
  List.init n Fun.id
  |> List.filter (fun i -> frontiers.(i) < now)
  (* Stable sort on the frontier alone: ties keep the lower relation index
     first, matching the strict-minimum choice the step functions make. *)
  |> List.stable_sort (fun a b -> Time.compare frontiers.(a) frontiers.(b))
  |> List.map (fun i -> candidate t i ~start:frontiers.(i) ~interval:(policy i) ~now)

let step_candidates t =
  let now = Database.now t.ctx.Ctx.db in
  match t.process with
  | P_uniform (p, interval) ->
      let start = Propagate.hwm p in
      if start >= now then []
      else
        (* One uniform step propagates every relation's window at once:
           fold the per-relation candidates into a single item driven by
           the busiest relation. *)
        let n = View.n_sources t.ctx.Ctx.view in
        let per = List.init n (fun i -> candidate t i ~start ~interval ~now) in
        let driving =
          List.fold_left
            (fun best c -> if c.est_rows > best.est_rows then c else best)
            (List.hd per) per
        in
        [
          {
            driving with
            est_rows = List.fold_left (fun a c -> a + c.est_rows) 0 per;
            est_cost = List.fold_left (fun a c -> a +. c.est_cost) 0. per;
          };
        ]
  | P_rolling (r, policy) -> rolling_candidates t (Rolling.frontiers r) ~policy ~now
  | P_deferred (r, policy) ->
      rolling_candidates t (Rolling_deferred.frontiers r) ~policy ~now

(* Checkpointing is a durability event: record the frontier first so the
   WAL's latest marker is always at least as fresh as any snapshot.
   Without this, quiet-window advances (never recorded as markers) could
   be captured by a snapshot and recovery would land beyond the last
   marker. *)
let checkpoint t path =
  if t.durable then record_frontier t;
  (* On a paged store, push the data file to a consistent on-disk snapshot
     (WAL fsync, dirty-page write-back, meta flip) before the text
     snapshot: recovery from [path] then resumes against a store that is
     at least as fresh as the frontier just recorded. *)
  Database.sync t.ctx.Ctx.db;
  Checkpoint.save t.ctx ~hwm:(hwm t) ~apply:t.apply path

(* ------------------------------------------------------------------ *)
(* Reliable stepping                                                   *)

(* Run one step under a retry policy. A failed attempt aborts its
   transaction: its partial brick is truncated from the view delta and its
   memo fills are evicted — served to a sibling view (or to the re-run)
   they would replay rows that never committed. Eviction is scoped to this
   context's owner slot, so sibling wave steps' concurrent fills survive.
   Frontiers need no restore: every injection point fires before the
   frontier advances (the post-success undo path is {!undo_window}). *)
let reliably t ~what ~retry ~sleep run =
  let ctx = t.ctx in
  let counters = ctx.Ctx.counters in
  let mark = Delta.length ctx.Ctx.out in
  let memo_mark = Memo.mark ctx.Ctx.memo in
  let retried = ref false in
  let rollback () =
    Delta.truncate ctx.Ctx.out mark;
    Memo.evict_since ctx.Ctx.memo ~owner:ctx.Ctx.memo_owner memo_mark
  in
  let result =
    Retry.run retry ~sleep
      ~on_retry:(fun ~attempt:_ ~delay:_ ->
        retried := true;
        Counters.incr counters Counters.retries;
        rollback ())
      run
  in
  match result with
  | Ok _ ->
      if !retried then Counters.incr counters Counters.recoveries;
      result
  | Error failure ->
      rollback ();
      Counters.incr counters Counters.aborts;
      Log.err (fun m ->
          m "view %s: %s aborted at %s (hit %d) after %d attempts"
            (View.name ctx.Ctx.view) what failure.Retry.point
            failure.Retry.hit failure.Retry.attempts);
      result

let propagate_step_reliable t ~retry ~sleep =
  reliably t ~what:"propagation step" ~retry ~sleep (fun () ->
      propagate_step t)

(* ------------------------------------------------------------------ *)
(* Window stepping (parallel waves)                                    *)

(* Only rolling processes (including Adaptive, which is a policy over
   P_rolling) decompose into per-relation window steps with explicit
   bounds; Uniform and Deferred keep their own pacing and take plain
   steps. *)
let supports_window_step t =
  match t.process with
  | P_rolling _ -> true
  | P_uniform _ | P_deferred _ -> false

let rolling_exn t =
  match t.process with
  | P_rolling (r, _) -> r
  | P_uniform _ | P_deferred _ ->
      invalid_arg "Controller: window steps require a rolling process"

let step_window_body t ~relation ~hi ~frozen =
  let ctx = t.ctx in
  let r = rolling_exn t in
  let queries_before = Counters.get ctx.Ctx.counters Counters.queries in
  ctx.Ctx.frozen_exec <- Some frozen;
  let advanced =
    Fun.protect
      ~finally:(fun () -> ctx.Ctx.frozen_exec <- None)
      (fun () ->
        match Rolling.step_window r relation ~hi with
        | `Advanced _ -> true
        | `Idle -> false)
  in
  (* Whether the step physically ran a query (vs. a quiet-window advance):
     the frozen-mode analogue of the plain step's "did the database clock
     move" test, which is meaningless here because frozen steps never
     commit markers. *)
  let executed = Counters.get ctx.Ctx.counters Counters.queries > queries_before in
  (advanced, executed)

let step_window t ~relation ~hi ~frozen =
  traced_step t ~advanced:fst (fun () ->
      step_window_body t ~relation ~hi ~frozen)

let step_window_reliable t ~relation ~hi ~frozen ~retry ~sleep =
  reliably t ~what:"window step" ~retry ~sleep (fun () ->
      step_window t ~relation ~hi ~frozen)

(* Post-join bookkeeping for a wave item that succeeded, run on the drain
   domain in wave order: the frozen-mode counterpart of
   [propagate_step_body]'s marker rule. Quiet advances record no marker
   (they replay deterministically on recovery), mirroring the plain
   step's "clock did not move" test. *)
let note_step_durable t ~advanced ~executed =
  if advanced && t.durable && executed then record_frontier t

(* Roll back a wave item that completed successfully but must be undone
   because an earlier item of the same wave failed: drop its emitted rows,
   evict its memo fills, and restore its frontier. Runs on the drain
   domain after every worker has joined. *)
let undo_window t ~relation ~lo ~out_mark ~memo_mark ~owner =
  Delta.truncate t.ctx.Ctx.out out_mark;
  Memo.evict_since t.ctx.Ctx.memo ~owner memo_mark;
  Rolling.set_tfwd (rolling_exn t) relation lo

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

(* Bring a [Rolling] process from its current frontier vector to [target]
   by replaying the recorded trajectory axis by axis. Each recorded vector
   is a monotone staircase refinement of the previous one, and any schedule
   of [step_relation] calls over the same vectors regenerates an exact
   tiling of the same region — the bricks differ from the original run's,
   but their union (and hence the accumulated delta's net effect) is
   identical. *)
let replay_rolling rolling (target : Time.t array) =
  Array.iteri
    (fun i target_i ->
      let cur = Rolling.tfwd rolling i in
      if target_i > cur then
        match Rolling.step_relation rolling i ~interval:(target_i - cur) with
        | `Advanced _ -> ()
        | `Idle ->
            invalid_arg
              "Controller.recover: recorded frontier beyond restored log")
    target

(* Regenerate the view delta from a rolling process positioned at some
   uniform time up to the recorded frontier, following the recorded
   trajectory so per-relation frontiers land exactly where they were. *)
let regenerate rolling ~(trajectory : Frontier.t list) ~(last : Frontier.t)
    ~uniform_target =
  if uniform_target then begin
    (* Uniform and deferred processes restart from a uniform vector at the
       recovered high-water mark; only replay up to hwm on every axis. *)
    let n = Array.length last.Frontier.tfwd in
    replay_rolling rolling (Array.make n last.Frontier.hwm)
  end
  else begin
    List.iter (fun (f : Frontier.t) -> replay_rolling rolling f.Frontier.tfwd)
      trajectory;
    replay_rolling rolling last.Frontier.tfwd
  end

let recover_body ~geometry ?checkpoint ~obs db capture view ~algorithm =
  build_join_indexes db view;
  let name = View.name view in
  Capture.advance capture;
  let wal = Database.wal db in
  let recorded = Frontier.latest wal ~view:name in
  let trajectory = Frontier.history wal ~view:name in
  (* Checkpoint fast path: resume delta rows and stored contents from the
     snapshot, then roll forward. A torn or damaged checkpoint falls back
     to WAL-only recovery rather than failing the restart. *)
  let resumed =
    match checkpoint with
    | None -> None
    | Some path -> (
        match Checkpoint.resume db capture view path with
        | resumed -> Some resumed
        | exception Roll_storage.Wal_codec.Corrupt reason ->
            Log.warn (fun m ->
                m "view %s: checkpoint %s unusable (%s); recovering from WAL"
                  name path reason);
            None
        | exception Sys_error reason ->
            Log.warn (fun m ->
                m "view %s: checkpoint %s unreadable (%s); recovering from WAL"
                  name path reason);
            None)
  in
  let ctx, apply, rolling =
    match resumed with
    | Some (ctx, apply, rolling) -> (ctx, apply, rolling)
    | None -> (
        (* WAL-only recovery: rebuild V_t0 from the restored history at the
           first recorded frontier time, then regenerate the whole delta by
           replaying the trajectory. *)
        match trajectory with
        | [] ->
            invalid_arg
              (Printf.sprintf
                 "Controller.recover: no durable state for view %s (no \
                  checkpoint, no frontier markers)"
                 name)
        | first :: _ ->
            let t0 = first.Frontier.hwm in
            let ctx = Ctx.create ~t_initial:t0 db capture view in
            let contents = Oracle.view_at (History.create db) view t0 in
            let apply = Apply.create_restored ctx ~contents ~as_of:t0 in
            (ctx, apply, Rolling.create ctx ~t_initial:t0))
  in
  install_obs db capture ctx obs;
  if geometry then
    ctx.Ctx.geometry <-
      Some
        (Geometry.create ~n:(View.n_sources view)
           ~origin:(Rolling.hwm rolling));
  let last =
    match recorded with
    | Some f -> f
    | None ->
        (* Checkpoint but no markers: the durable frontier is the
           checkpoint's own uniform position. *)
        let h = Rolling.hwm rolling in
        {
          Frontier.view = name;
          tfwd = Array.make (View.n_sources view) h;
          tcomp = Array.make (View.n_sources view) h;
          hwm = h;
          as_of = Apply.as_of apply;
        }
  in
  let uniform_target =
    match algorithm with
    | Uniform _ | Deferred _ -> true
    | Rolling _ | Adaptive _ -> false
  in
  (* Only replay trajectory suffix beyond the resume point; earlier
     recorded vectors are already inside the resumed coverage. *)
  let beyond =
    List.filter
      (fun (f : Frontier.t) ->
        let tfwd = f.Frontier.tfwd in
        let any = ref false in
        Array.iteri
          (fun i v -> if v > Rolling.tfwd rolling i then any := true)
          tfwd;
        !any)
      trajectory
  in
  regenerate rolling ~trajectory:beyond ~last ~uniform_target;
  let process =
    match algorithm with
    | Uniform interval ->
        P_uniform (Propagate.create ctx ~t_initial:(Rolling.hwm rolling), interval)
    | Rolling policy -> P_rolling (rolling, policy)
    | Deferred policy ->
        P_deferred
          (Rolling_deferred.create ctx ~t_initial:(Rolling.hwm rolling), policy)
    | Adaptive target_rows ->
        let tuner = Autotune.create ~target_rows ctx in
        P_rolling (rolling, Autotune.policy tuner)
  in
  let t =
    { ctx; apply; process; durable = true; gc_horizon = Apply.as_of apply }
  in
  (* Roll the stored view forward to the recorded apply position. *)
  let target_as_of = Time.min last.Frontier.as_of (hwm t) in
  if target_as_of > Apply.as_of t.apply then
    Apply.roll_to t.apply ~hwm:(hwm t) target_as_of;
  Counters.incr ctx.Ctx.counters Counters.recoveries;
  record_frontier t;
  let source =
    if resumed = None then "WAL replay" else "checkpoint + WAL replay"
  in
  if Roll_obs.Obs.tracing ctx.Ctx.obs then
    Roll_obs.Trace.add_attr
      (Roll_obs.Obs.trace ctx.Ctx.obs)
      "source" (Roll_obs.Trace.Str source);
  Log.info (fun m ->
      m "view %s recovered: hwm=%d as_of=%d (%s)" name (hwm t) (as_of t) source);
  t

let recover ?(geometry = false) ?checkpoint ?obs db capture view ~algorithm
    =
  let go () =
    recover_body ~geometry ?checkpoint ~obs db capture view ~algorithm
  in
  match obs with
  | Some o when Roll_obs.Obs.tracing o ->
      Roll_obs.Trace.with_span (Roll_obs.Obs.trace o)
        ~attrs:[ ("view", Roll_obs.Trace.Str (View.name view)) ]
        "recovery" go
  | _ -> go ()
