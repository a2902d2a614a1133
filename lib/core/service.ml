module Time = Roll_delta.Time
module Delta = Roll_delta.Delta
module Database = Roll_storage.Database
module Capture = Roll_capture.Capture

let log_src = Logs.Src.create "roll.service" ~doc:"multi-view maintenance service"

module Log = (val Logs.src_log log_src)

type entry = {
  name : string;
  controller : Controller.t;
  mutable paused : bool;
  mutable sla : int;
  mutable checkpoint : (string * int) option;  (** path, commits between *)
  mutable last_checkpoint : Time.t;
  partial_of : Partial.part option;
      (** [Some] when this entry maintains a part of a derived partial
          (an auxiliary view or a heavy key's partial): the part whose
          mirror must be synced after the controller's high-water mark
          advances *)
}

type status = {
  name : string;
  as_of : Time.t;
  hwm : Time.t;
  staleness : int;
  sla : int;
  slack : int;
  delta_rows : int;
  paused : bool;
  retries : int;
  aborts : int;
  recoveries : int;
  memo_hits : int;
  memo_misses : int;
  shared_builds : int;
  aux : bool;  (** this entry is an auxiliary view *)
  aux_hits : int;  (** substitution probes served from fresh auxiliaries *)
  aux_misses : int;  (** probes that fell back to the base table *)
  aux_lag : int;
      (** a part's mirror lag behind the clock; for a user view, the worst
          lag across its partials' parts (0 when it has none) *)
  hot : bool;  (** this entry is a heavy key's partial *)
  hot_hits : int;  (** substitution reads served from fresh partitions *)
  hot_misses : int;  (** partition consultations that fell back *)
  heavy_keys : int;  (** currently-heavy keys across the view's partitions *)
  light_rows : int;  (** rows in the view's light residual mirrors *)
  reads_served : int;
  reads_rejected : int;
  read_wait : float;
}

type step_error = { view : string; point : string; hit : int; attempts : int }

type t = {
  db : Database.t;
  capture : Capture.t;
  scheduler : Scheduler.t;
  sharing : bool;
  memo : Memo.t;  (** the shared drain-scoped delta memo (enabled iff sharing) *)
  default_sla : int;
  obs : Roll_obs.Obs.t;
  pool : Roll_util.Dpool.t;  (** the slots every drain's waves run on *)
  mutable gc_threshold : int;
  mutable entries : entry list;  (** registration order *)
  partials : Partial.registry;  (** every derived partial's parts *)
  narrowing : bool;  (** whether auxiliary views are enabled *)
  hotset : Hotset.t option;
      (** the partitioning policy; [Some] iff skew-aware partitioning is
          enabled for this service *)
}

let env_domains () =
  match Sys.getenv_opt "ROLL_DOMAINS" with
  | None -> None
  | Some s when String.trim s = "" -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | Some _ | None ->
          invalid_arg
            (Printf.sprintf
               "ROLL_DOMAINS=%S: expected a positive domain count" s))

(* ROLL_SHARING / ROLL_AUX / ROLL_HOTSET: environment defaults for the
   [sharing], [auxiliary] and [hotset] flags, so the whole test/bench
   matrix can flip any feature on without threading parameters (explicit
   arguments win). *)
let env_flag name =
  match Sys.getenv_opt name with
  | None -> false
  | Some v -> (
      match String.lowercase_ascii (String.trim v) with
      | "" | "0" | "false" | "off" | "no" -> false
      | _ -> true)

let create ?policy ?cost_weight ?capture_batch ?sharing ?auxiliary ?hotset
    ?(default_sla = 100) ?(gc_threshold = max_int) ?obs ?(domains = 1) db
    capture =
  let sharing =
    match sharing with Some s -> s | None -> env_flag "ROLL_SHARING"
  in
  let auxiliary =
    match auxiliary with Some a -> a | None -> env_flag "ROLL_AUX"
  in
  let hotset =
    match hotset with Some h -> h | None -> env_flag "ROLL_HOTSET"
  in
  if default_sla <= 0 then invalid_arg "Service.create: default_sla";
  if domains < 1 then invalid_arg "Service.create: domains must be >= 1";
  let obs = match obs with Some o -> o | None -> Roll_obs.Obs.disabled () in
  let scheduler = Scheduler.create ?policy ?cost_weight ?capture_batch db capture in
  if Roll_obs.Obs.enabled obs then begin
    Scheduler.set_obs scheduler obs;
    Database.set_obs db obs;
    Capture.set_obs capture obs;
    (* Capture retries/aborts land on the scheduler's stats record. *)
    Stats.register
      ~labels:[ ("scope", "scheduler") ]
      (Scheduler.stats scheduler)
      (Roll_obs.Obs.metrics obs)
  end;
  let partials = Partial.create db capture in
  {
    db;
    capture;
    scheduler;
    sharing;
    memo = Memo.create ~enabled:sharing ();
    default_sla;
    obs;
    pool = Roll_util.Dpool.create ~domains ();
    gc_threshold;
    entries = [];
    partials;
    narrowing = auxiliary;
    hotset = (if hotset then Some (Hotset.create partials) else None);
  }

let scheduler t = t.scheduler

(* Read demand feeds the scheduler's reader boost; the serving layer
   (Roll_serve.Engine) installs its waiting-reader census here. *)
let set_read_demand t f = Scheduler.set_read_demand t.scheduler f

let domains t = Roll_util.Dpool.size t.pool

(* Join the worker domains (a one-slot pool has none). The pool also
   shuts down on process exit, but callers creating many short-lived
   multi-slot services (tests, benches) must release each one to stay
   under the runtime's domain limit. *)
let shutdown t = Roll_util.Dpool.shutdown t.pool

(* View-name shard: which domain slot a view's propagate items are homed
   to for queue-depth reporting. Purely observational — waves assign work
   by wave position, not by shard — but stable, so operators can watch a
   view's backlog stay on one shard across drains. *)
let shard_of t name = Hashtbl.hash name mod domains t

let obs t = t.obs

let sharing t = t.sharing

let memo t = t.memo

(* Plug the registered view's context into the service-wide memo and align
   its step windows to the interval grid, so sibling views converge on
   identical delta windows (the memo key). Alignment must only be switched
   on after any recovery replay — replay targets recorded frontiers
   exactly and must not snap. *)
let enable_sharing t controller =
  if t.sharing then begin
    (Controller.ctx controller).Ctx.memo <- t.memo;
    Controller.set_window_alignment controller true
  end

let add_entry ?partial_of t name controller =
  let e =
    {
      name;
      controller;
      paused = false;
      sla = t.default_sla;
      checkpoint = None;
      last_checkpoint = Database.now t.db;
      partial_of;
    }
  in
  t.entries <- t.entries @ [ e ];
  if Roll_obs.Obs.enabled t.obs then begin
    let m = Roll_obs.Obs.metrics t.obs in
    let labels = [ ("view", name) ] in
    Stats.register ~labels (Controller.stats controller) m;
    (* Operational freshness gauges: one collector per view per name,
       merged into one labeled family at snapshot time. *)
    let gauge ?help gname read =
      Roll_obs.Metrics.register_collector m ?help
        ~kind:Roll_obs.Metrics.Gauge gname (fun () -> [ (labels, read ()) ])
    in
    gauge "roll_view_hwm" ~help:"View-delta high-water mark (CSN)" (fun () ->
        float_of_int (Controller.hwm controller));
    gauge "roll_view_as_of"
      ~help:"Materialization time of the stored view (CSN)" (fun () ->
        float_of_int (Controller.as_of controller));
    gauge "roll_view_staleness" ~help:"Commits behind current time" (fun () ->
        float_of_int (Database.now t.db - Controller.hwm controller));
    gauge "roll_view_slack" ~help:"SLA minus staleness, in commits" (fun () ->
        float_of_int (e.sla - (Database.now t.db - Controller.hwm controller)));
    gauge "roll_view_delta_rows" ~help:"Rows held in the view delta"
      (fun () ->
        float_of_int (Delta.length (Controller.ctx controller).Ctx.out));
    gauge "roll_view_paused" ~help:"1 when propagation is paused" (fun () ->
        if e.paused then 1. else 0.)
  end

let obs_arg t = if Roll_obs.Obs.enabled t.obs then Some t.obs else None

(* Parts handed back by a partial policy become ordinary service entries —
   scheduler items, waves, durable frontiers and recovery all come from
   the same machinery as a user view's. Sibling views share parts through
   the registry's signature dedupe, so a part may already be an entry. *)
let add_part_entries t parts =
  List.iter
    (fun part ->
      let name = Partial.name part in
      if
        not
          (List.exists (fun (e : entry) -> String.equal e.name name) t.entries)
      then add_entry ~partial_of:part t name (Partial.controller part))
    parts

(* Derive and wire the partials of a freshly registered view. Narrowing
   attaches first, so at a source with both an auxiliary and a partition
   group the executor consults the auxiliary first. Parts are durable
   exactly when their owner is: substitution is an optimization, so it
   must never out-persist the view it serves. *)
let attach_partials t ~recover owner_controller =
  let durable = Controller.durable owner_controller in
  let obs = obs_arg t in
  let narrowed =
    if t.narrowing then
      Partial.attach ~durable ~recover ?obs t.partials owner_controller
    else []
  in
  let heavy =
    match t.hotset with
    | Some h -> Hotset.attach ~durable ~recover ?obs h owner_controller
    | None -> []
  in
  add_part_entries t (narrowed @ heavy)

let register ?(durable = false) t ~algorithm view =
  let name = View.name view in
  if List.exists (fun (e : entry) -> String.equal e.name name) t.entries then
    invalid_arg ("Service.register: view already registered: " ^ name);
  let controller =
    Controller.create ~durable ?obs:(obs_arg t) t.db t.capture view ~algorithm
  in
  enable_sharing t controller;
  add_entry t name controller;
  attach_partials t ~recover:false controller;
  controller

let register_recovered ?checkpoint t ~algorithm view =
  let name = View.name view in
  if List.exists (fun (e : entry) -> String.equal e.name name) t.entries then
    invalid_arg ("Service.register_recovered: view already registered: " ^ name);
  let controller =
    Controller.recover ?checkpoint ?obs:(obs_arg t) t.db t.capture view
      ~algorithm
  in
  (* After recover: the trajectory replay inside [Controller.recover] must
     land frontiers exactly where the markers recorded them, un-snapped. *)
  enable_sharing t controller;
  add_entry t name controller;
  attach_partials t ~recover:true controller;
  controller

let partials t = t.partials

let hotset t = t.hotset

let find t name =
  match List.find_opt (fun (e : entry) -> String.equal e.name name) t.entries with
  | Some e -> e
  | None -> raise Not_found

let controller t name = (find t name).controller

let names t = List.map (fun (e : entry) -> e.name) t.entries

let set_sla t name sla =
  if sla <= 0 then invalid_arg "Service.set_sla";
  (find t name).sla <- sla

let sla t name = (find t name).sla

let set_checkpoint t name ~path ~every =
  if every <= 0 then invalid_arg "Service.set_checkpoint: every";
  let e = find t name in
  e.checkpoint <- Some (path, every);
  e.last_checkpoint <- Database.now t.db

let set_gc_threshold t rows =
  if rows <= 0 then invalid_arg "Service.set_gc_threshold";
  t.gc_threshold <- rows

(* A part's mirror lag; for a user view, the worst lag across every part
   of the partials its probes depend on. *)
let partial_lag t (e : entry) =
  match e.partial_of with
  | Some part -> Partial.lag t.partials part
  | None -> Partial.owner_lag t.partials ~owner:e.name

let status t =
  let now = Database.now t.db in
  List.map
    (fun (e : entry) ->
      let hwm = Controller.hwm e.controller in
      let stats = Controller.stats e.controller in
      let staleness = now - hwm in
      let narrowed =
        Option.map
          (fun (part : Partial.part) -> part.Partial.key = None)
          e.partial_of
      in
      {
        name = e.name;
        as_of = Controller.as_of e.controller;
        hwm;
        staleness;
        sla = e.sla;
        slack = e.sla - staleness;
        delta_rows = Delta.length (Controller.ctx e.controller).Ctx.out;
        paused = e.paused;
        retries = Stats.retries stats;
        aborts = Stats.aborts stats;
        recoveries = Stats.recoveries stats;
        memo_hits = Stats.memo_hits stats;
        memo_misses = Stats.memo_misses stats;
        shared_builds = Stats.shared_builds stats;
        aux = narrowed = Some true;
        aux_hits = Stats.aux_hits stats;
        aux_misses = Stats.aux_misses stats;
        aux_lag = partial_lag t e;
        hot = narrowed = Some false;
        hot_hits = Stats.hot_hits stats;
        hot_misses = Stats.hot_misses stats;
        heavy_keys =
          (match t.hotset with
          | Some h when narrowed = None -> Hotset.heavy_count h ~owner:e.name
          | _ -> 0);
        light_rows =
          (match t.hotset with
          | Some h when narrowed = None -> Hotset.light_rows h ~owner:e.name
          | _ -> 0);
        reads_served = Stats.reads_served stats;
        reads_rejected = Stats.reads_rejected stats;
        read_wait = Stats.read_wait stats;
      })
    t.entries

let pause t name = (find t name).paused <- true

let resume t name = (find t name).paused <- false

(* Removing a user view releases its claim on its partials; parts left
   with no owner at all are orphans — their entries leave the service with
   the registry entry, so no more maintenance items are planned for them
   and their mirrors become unreachable. *)
let remove_part_entries t parts =
  t.entries <-
    List.filter
      (fun (x : entry) ->
        not
          (List.exists
             (fun part -> String.equal (Partial.name part) x.name)
             parts))
      t.entries

let unregister t name =
  let e = find t name in
  (match e.partial_of with
  | Some part ->
      invalid_arg
        (Printf.sprintf
           "Service.unregister: %s is %s; it is retired when its last owner \
            goes"
           name
           (if part.Partial.key = None then "an auxiliary view"
            else "a heavy-key partial"))
  | None -> ());
  t.entries <-
    List.filter (fun (x : entry) -> not (String.equal x.name name)) t.entries;
  remove_part_entries t (Partial.release t.partials ~owner:name)

(* ------------------------------------------------------------------ *)
(* Scheduler drain                                                     *)

(* Applied view-delta rows: rows at or before the apply position are the
   only ones gc can reclaim. *)
let applied_rows (e : entry) =
  let out = (Controller.ctx e.controller).Ctx.out in
  Delta.length out
  - Delta.window_count out ~lo:(Controller.as_of e.controller) ~hi:max_int

let sources ?(skip = fun _ -> false) ?(bg_done = fun _ _ -> false) t =
  let now = Database.now t.db in
  List.map
    (fun (e : entry) ->
      {
        Scheduler.name = e.name;
        controller = e.controller;
        paused = e.paused || skip e.name;
        sla = e.sla;
        apply_due = not (bg_done "apply" e.name);
        checkpoint_due =
          (match e.checkpoint with
          | Some (_, every) -> now - e.last_checkpoint >= every
          | None -> false)
          && not (bg_done "checkpoint" e.name);
        gc_due =
          applied_rows e >= t.gc_threshold && not (bg_done "gc" e.name);
        partial = Option.is_some e.partial_of;
      })
    t.entries

let schedule ?full t = Scheduler.plan ?full t.scheduler (sources t)

(* WAL prefix reclaim, piggybacked on view gc: records at or below every
   consumer's horizon are dead — each view replays history from its gc
   horizon at the earliest, and capture has folded everything up to its
   high-water mark into the delta tables. On a paged store this deletes
   whole WAL segments (and Database clamps to the data snapshot); in
   memory it is a no-op. Returns the number of segments deleted. *)
let reclaim_wal t =
  match t.entries with
  | [] -> 0
  | entries ->
      let horizon =
        List.fold_left
          (fun acc (e : entry) -> min acc (Controller.horizon e.controller))
          max_int entries
      in
      let upto = min horizon (Capture.hwm t.capture) in
      if upto <= 0 then 0 else Database.reclaim_wal t.db ~upto

(* Work-item execution shared by the plain and reliable drains. [step]
   runs one propagation step for a view and [capture_run] one capture
   advance (wrapped in the retry policy on the reliable path); everything
   else is common. Views whose propagate step reports idle are skipped for
   the rest of the drain as a defensive guard — by construction a view with
   candidates always advances. Background items mark themselves done in
   [bg_done] so each runs at most once per view per drain: a durable apply
   or checkpoint commits a frontier marker, which re-stales the view by one
   commit and would otherwise re-offer the item forever. *)
(* Mirror maintenance piggybacks on the items that move a part's
   high-water mark: every new permanently-committed view-delta row folds
   into the probe mirror right after the step that produced it. *)
let sync_part (e : entry) = Option.iter Partial.sync e.partial_of

(* A part syncs its mirror before pruning: the mirror reads the very delta
   window the prune reclaims. *)
let gc_entry (e : entry) =
  match e.partial_of with
  | Some part -> Partial.gc part
  | None -> Controller.gc e.controller

let skip_idle skipped view =
  Log.warn (fun m ->
      m "view %s: scheduled step was idle; skipping for this drain" view);
  Hashtbl.replace skipped view ()

let exec_item t ~skipped ~bg_done ~step ~capture_run (scored : Scheduler.scored)
    =
  let mark_bg kind view = Hashtbl.replace bg_done (kind, view) () in
  match scored.Scheduler.item with
  | Scheduler.Capture_advance -> (
      match capture_run () with Ok () -> Ok false | Error e -> Error e)
  | Scheduler.Propagate_step { view; _ } -> (
      let e = find t view in
      match step e.controller with
      | Ok true ->
          sync_part e;
          Ok true
      | Ok false ->
          skip_idle skipped view;
          Ok false
      | Error e -> Error e)
  | Scheduler.Apply_refresh view ->
      mark_bg "apply" view;
      let e = find t view in
      Controller.refresh_to e.controller (Controller.hwm e.controller);
      sync_part e;
      Ok true
  | Scheduler.Checkpoint view -> (
      mark_bg "checkpoint" view;
      let e = find t view in
      match e.checkpoint with
      | Some (path, _) ->
          Controller.checkpoint e.controller path;
          e.last_checkpoint <- Database.now t.db;
          Ok true
      | None -> Ok false)
  | Scheduler.Gc view ->
      mark_bg "gc" view;
      (* Memoized deltas hold copies, not positions, so pruning cannot
         corrupt them — but a replay could re-emit rows the prune just
         reclaimed. Drop the memo rather than reason about overlap. *)
      if t.sharing then Memo.clear t.memo;
      ignore (gc_entry (find t view));
      ignore (reclaim_wal t);
      Ok true

let advance_capture t =
  Capture.advance ?max_records:(Scheduler.capture_batch t.scheduler) t.capture

let step_error view (f : Roll_util.Retry.failure) =
  {
    view;
    point = f.Roll_util.Retry.point;
    hit = f.Roll_util.Retry.hit;
    attempts = f.Roll_util.Retry.attempts;
  }

(* Capture advances under the retry policy: the capture fault point fires
   before any delta mutation, so a failed advance left nothing behind and
   can simply be re-run. Capture retries are counted on the scheduler's
   stats (capture has no per-view controller to count them on). *)
let reliable_capture t ~retry ~sleep () =
  let sched_stats = Scheduler.stats t.scheduler in
  match
    Roll_util.Retry.run retry ~sleep
      ~on_retry:(fun ~attempt:_ ~delay:_ -> Stats.incr_retries sched_stats)
      (fun () -> advance_capture t)
  with
  | Ok () -> Ok ()
  | Error f ->
      Stats.incr_aborts sched_stats;
      Error (step_error "(capture)" f)

(* Rows a propagate item appended to its view delta, measured around the
   execution (memo replays count too — they append real rows). *)
let out_length t (item : Scheduler.item) =
  match item with
  | Scheduler.Propagate_step { view; _ } -> (
      match
        List.find_opt (fun (e : entry) -> String.equal e.name view) t.entries
      with
      | Some e -> Delta.length (Controller.ctx e.controller).Ctx.out
      | None -> 0)
  | _ -> 0

(* Drain-start partition upkeep: pump the sketches and light residuals
   forward, then let the registry migrate keys whose class flipped. Each
   promoted key's partial becomes a service entry (scheduler items, waves,
   recovery — ordinary machinery); each demoted key's entry leaves with its
   registry entry. Running this once per drain keeps class churn off the
   per-item hot path and gives migrations the quiet point they need: the
   registry defers migration while capture is pending, so promotions land
   at the start of the drain {e after} the one that caught the log up —
   and that drain then propagates every view past the promote-marker
   commits, so a caught-up service ends its drain caught up. *)
let rebalance_hotset t =
  match t.hotset with
  | None -> ()
  | Some h ->
      Hotset.pump h;
      let promoted, demoted = Hotset.rebalance h in
      add_part_entries t promoted;
      remove_part_entries t demoted

(* Attributes of an item's ["sched.item"] span. Read on the drain domain
   before the item runs: the queue wait ends at [Scheduler.note_ran]. *)
let item_attrs t (s : Scheduler.scored) =
  let module T = Roll_obs.Trace in
  [
    ("kind", T.Str (Scheduler.kind_name s.Scheduler.item));
    ("item", T.Str (Format.asprintf "%a" Scheduler.pp_item s.Scheduler.item));
    ("score", T.Float s.Scheduler.score);
    ("slack", T.Int s.Scheduler.slack);
    ("est_rows", T.Int s.Scheduler.est_rows);
  ]
  @
  match Scheduler.queue_wait t.scheduler s.Scheduler.item with
  | Some w -> [ ("queue_wait", T.Float w) ]
  | None -> []

let item_span obs attrs run =
  if Roll_obs.Obs.tracing obs then
    Roll_obs.Trace.with_span (Roll_obs.Obs.trace obs) ~attrs "sched.item" run
  else run ()

let mark_failed obs (f : step_error) =
  if Roll_obs.Obs.tracing obs then
    Roll_obs.Trace.set_error (Roll_obs.Obs.trace obs)
      (Printf.sprintf "%s failed at %s" f.view f.point)

(* Per-item metrics of an executed item; [emitted] counts the view-delta
   rows a propagate item appended. *)
let item_metrics t (s : Scheduler.scored) ~wall ~emitted =
  if Roll_obs.Obs.enabled t.obs then begin
    let m = Roll_obs.Obs.metrics t.obs in
    let kind = Scheduler.kind_name s.Scheduler.item in
    Roll_obs.Metrics.observe
      (Roll_obs.Metrics.histogram m
         ~help:"Wall-clock seconds per executed work item"
         ~labels:[ ("kind", kind) ]
         "roll_item_latency_seconds")
      wall;
    (match s.Scheduler.window with
    | Some (_, lo, hi) ->
        Roll_obs.Metrics.observe
          (Roll_obs.Metrics.histogram m
             ~help:"Delta-window width of executed propagate steps, in commits"
             "roll_step_window_width")
          (float_of_int (hi - lo))
    | None -> ());
    if String.equal kind "propagate" then
      Roll_obs.Metrics.observe
        (Roll_obs.Metrics.histogram m
           ~help:"View-delta rows emitted per propagate step"
           "roll_step_rows_emitted")
        (float_of_int (max 0 emitted))
  end

type outcome =
  | Not_run
  | Ran of (bool * bool, step_error) result  (** [(advanced, executed)] *)
  | Raised of exn

(* One wave member: a window step, the marks an undo needs, and what its
   run left behind. [owner] is the member's wave position — unique within
   the wave (members are distinct views), so an undo evicts exactly its
   memo fills. *)
type member = {
  scored : Scheduler.scored;
  entry : entry;
  slot : int;
  owner : int;
  relation : int;
  lo : Time.t;
  hi : Time.t;
  out_mark : int;
  memo_mark : int;
  obs : Roll_obs.Obs.t;  (** the context's own handle, restored after *)
  attrs : (string * Roll_obs.Trace.attr) list;
  mutable outcome : outcome;  (** a chain stops at its first failure *)
  mutable sleep : float;  (** retry backoff, applied after the join *)
  mutable wall : float;
}

(* The first [n] members of a wave, in wave order (slot by slot). *)
let rec truncate_wave n = function
  | [] -> []
  | _ when n <= 0 -> []
  | chain :: rest ->
      let len = List.length chain in
      if len <= n then chain :: truncate_wave (n - len) rest
      else [ List.filteri (fun i _ -> i < n) chain ]

let drain_items ?(full = false) t ~budget ~step ~capture_run ~wave_step
    ~apply_sleep =
  let skipped = Hashtbl.create 4 in
  let bg_done = Hashtbl.create 4 in
  (* The tables are re-read through [sources] on every take. *)
  Scheduler.begin_drain t.scheduler;
  rebalance_hotset t;
  (* The delta memo is drain-scoped: entries from a previous drain would
     still be sound (their windows are immutable), clearing just bounds
     memory to one drain's worth of shared work. *)
  if t.sharing then Memo.clear t.memo;
  let skip name = Hashtbl.mem skipped name in
  let done_bg kind name = Hashtbl.mem bg_done (kind, name) in
  let executed = ref 0 in
  let failure = ref None in
  let continue = ref true in
  let enabled = Roll_obs.Obs.enabled t.obs in
  let tracing = Roll_obs.Obs.tracing t.obs in
  (* The obs clock: real time by default, the injected manual clock under
     test — which also makes the scheduler's wall counters deterministic. *)
  let now () = Roll_obs.Obs.now t.obs in
  (* A capture, apply, checkpoint or gc item, or a step of a process
     without window steps: one plain item on the drain domain. *)
  let exec_one (scored : Scheduler.scored) =
    let attrs = if tracing then item_attrs t scored else [] in
    item_span t.obs attrs (fun () ->
        let before = if enabled then out_length t scored.Scheduler.item else 0 in
        let t0 = now () in
        let result = exec_item t ~skipped ~bg_done ~step ~capture_run scored in
        let wall = now () -. t0 in
        Scheduler.note_ran t.scheduler scored.Scheduler.item ~wall;
        if enabled then
          item_metrics t scored ~wall
            ~emitted:(out_length t scored.Scheduler.item - before);
        (match result with Error f -> mark_failed t.obs f | Ok _ -> ());
        result)
  in
  (* One wave: one chain of window steps per slot, the slots' windows
     pairwise disjoint. Slot [i] runs on pool slot [i] (slot 0 on this
     domain) in frozen-clock mode, its chain back to back; then this
     single-writer domain commits in wave order. The earliest wave-order
     failure wins and every later member — even a successful one — is
     undone as if it never ran. *)
  let exec_wave chains =
    let frozen = Capture.hwm t.capture in
    let owner = ref 0 in
    let member slot (s : Scheduler.scored) =
      match (s.Scheduler.item, s.Scheduler.window) with
      | Scheduler.Propagate_step { view; relation }, Some (_, lo, hi) ->
          let entry = find t view in
          let ctx = Controller.ctx entry.controller in
          (* The step's forward query reads one source's capture delta and
             its compensations read all the others'. A read of an
             out-of-order delta merges its index in place, so index every
             one of them here, before the workers share them read-only. *)
          let view_def = ctx.Ctx.view in
          for i = 0 to View.n_sources view_def - 1 do
            let table = View.source_table view_def i in
            Delta.freshen (Capture.delta t.capture ~table)
          done;
          ctx.Ctx.memo_owner <- !owner;
          incr owner;
          {
            scored = s;
            entry;
            slot;
            owner = ctx.Ctx.memo_owner;
            relation;
            lo;
            hi;
            out_mark = Delta.length ctx.Ctx.out;
            memo_mark = Memo.mark ctx.Ctx.memo;
            obs = ctx.Ctx.obs;
            attrs = (if tracing then item_attrs t s else []);
            outcome = Not_run;
            sleep = 0.;
            wall = 0.;
          }
      | _ -> assert false
    in
    let slots =
      Array.of_list (List.mapi (fun i c -> List.map (member i) c) chains)
    in
    (* The trace recorder is single-domain: members on worker slots trace
       into a per-slot fork, spliced back after the join. *)
    let forks =
      Array.mapi
        (fun i chain ->
          if tracing && i > 0 then begin
            let fork = Roll_obs.Obs.fork t.obs in
            List.iter
              (fun m -> (Controller.ctx m.entry.controller).Ctx.obs <- fork)
              chain;
            Some fork
          end
          else None)
        slots
    in
    let run_chain chain (_slot : int) =
      let rec go = function
        | [] -> ()
        | m :: rest -> (
            let ctl = m.entry.controller in
            let obs = (Controller.ctx ctl).Ctx.obs in
            let run () =
              let t0 = Roll_obs.Obs.now obs in
              let result =
                wave_step ctl ~relation:m.relation ~hi:m.hi ~frozen
                  ~sleep:(fun d ->
                    (* Workers must not touch the (single-writer) simulated
                       wall clock; backoff accumulates here and this domain
                       applies it deterministically after the join. *)
                    m.sleep <- m.sleep +. d)
              in
              m.wall <- Roll_obs.Obs.now obs -. t0;
              (match result with Error f -> mark_failed obs f | Ok _ -> ());
              result
            in
            match item_span obs m.attrs run with
            | Ok _ as r ->
                m.outcome <- Ran r;
                go rest
            | Error _ as r -> m.outcome <- Ran r
            | exception exn -> m.outcome <- Raised exn)
      in
      go chain
    in
    Array.iter
      (function Ok () -> () | Error exn -> raise exn)
      (Roll_util.Dpool.map t.pool (Array.map run_chain slots));
    (* Restore the contexts' handles and splice the forked traces back
       first, so commit-phase spans and errors land on the parent. *)
    Array.iteri
      (fun i chain ->
        Option.iter
          (fun fork ->
            List.iter
              (fun m -> (Controller.ctx m.entry.controller).Ctx.obs <- m.obs)
              chain;
            Roll_obs.Obs.absorb t.obs fork)
          forks.(i))
      slots;
    let members = Array.of_list (List.concat (Array.to_list slots)) in
    let n = Array.length members in
    let fe =
      let rec first k =
        if k = n then n
        else
          match members.(k).outcome with
          | Ran (Ok _) -> first (k + 1)
          | Ran (Error _) | Raised _ | Not_run -> k
      in
      first 0
    in
    (* Everything ordered after the first failure is undone — a completed
       member's rows, memo fills and frontier; a failed later member's
       partial emissions (its internal rollback, if any, makes this a
       no-op); an unrun member's nothing. *)
    for k = n - 1 downto fe + 1 do
      let m = members.(k) in
      Controller.undo_window m.entry.controller ~relation:m.relation ~lo:m.lo
        ~out_mark:m.out_mark ~memo_mark:m.memo_mark ~owner:m.owner
    done;
    for k = 0 to min fe (n - 1) do
      let m = members.(k) in
      let ctl = m.entry.controller in
      (* Retry backoff accumulated on the worker, applied in wave order so
         the simulated wall clock advances deterministically. *)
      if m.sleep > 0. then apply_sleep m.sleep;
      let note_ran () =
        Scheduler.note_ran ~domain:m.slot t.scheduler m.scored.Scheduler.item
          ~wall:m.wall;
        item_metrics t m.scored ~wall:m.wall
          ~emitted:(Delta.length (Controller.ctx ctl).Ctx.out - m.out_mark)
      in
      match m.outcome with
      | Ran (Ok (advanced, ran_query)) ->
          Controller.note_step_durable ctl ~advanced ~executed:ran_query;
          (* Committed members are final (everything after the first
             failure was already undone above), so a part's mirror can
             fold the step's rows in now. *)
          sync_part m.entry;
          note_ran ();
          if advanced then incr executed else skip_idle skipped m.entry.name
      | Ran (Error f) ->
          note_ran ();
          mark_failed t.obs f;
          failure := Some f
      | Raised exn ->
          (* A plain (retry-less) drain propagates step exceptions. *)
          raise exn
      | Not_run -> assert false (* a chain stops only after a failure *)
    done
  in
  let is_wave_member (s : Scheduler.scored) =
    match (s.Scheduler.item, s.Scheduler.window) with
    | Scheduler.Propagate_step { view; _ }, Some _ ->
        Controller.supports_window_step (find t view).controller
    | _ -> false
  in
  let body () =
    while !continue && !failure = None && !executed < budget do
      (* Probes never mutate (they run on workers): keep the partitions'
         light residuals pumped and parts synced here, on the single
         writer, before every wave. *)
      Option.iter Hotset.pump t.hotset;
      let srcs = sources ~skip ~bg_done:done_bg t in
      let left = budget - !executed in
      match
        Scheduler.take_wave ~full t.scheduler srcs
          ~max:(min (Roll_util.Dpool.size t.pool) left)
      with
      | [] -> continue := false
      | wave when List.for_all (List.for_all is_wave_member) wave ->
          exec_wave (truncate_wave left wave)
      | [ chain ] ->
          (* Budget and failure checks still apply per item. *)
          List.iter
            (fun (scored : Scheduler.scored) ->
              if !failure = None && !executed < budget then
                match exec_one scored with
                | Ok counts -> if counts then incr executed
                | Error f -> failure := Some f)
            chain
      | _ -> assert false (* only all-window-step waves have several slots *)
    done;
    match !failure with Some f -> Error f | None -> Ok !executed
  in
  if tracing then begin
    let trace = Roll_obs.Obs.trace t.obs in
    Roll_obs.Trace.with_span trace
      ~attrs:
        [
          ("budget", Roll_obs.Trace.Int budget);
          ("full", Roll_obs.Trace.Bool full);
          ("sharing", Roll_obs.Trace.Bool t.sharing);
        ]
      "service.drain"
      (fun () ->
        let result = body () in
        Roll_obs.Trace.add_attr trace "executed" (Roll_obs.Trace.Int !executed);
        (match result with
        | Error (f : step_error) ->
            Roll_obs.Trace.set_error trace
              (Printf.sprintf "%s failed at %s after %d attempts" f.view
                 f.point f.attempts)
        | Ok _ -> ());
        result)
  end
  else body ()

(* The one drain behind [step_all], [try_step_all] and [maintain]: plain
   steps (exceptions propagate) without [retry], steps under the retry
   policy with it, where the first exhausted budget stops the drain as a
   typed [step_error]. *)
let drain ?retry ?sleep ~full t ~budget =
  let sleep =
    match sleep with Some f -> f | None -> Database.advance_wall t.db
  in
  match retry with
  | None ->
      drain_items ~full t ~budget
        ~step:(fun ctl -> Ok (Controller.propagate_step ctl))
        ~capture_run:(fun () -> Ok (advance_capture t))
        ~wave_step:(fun ctl ~relation ~hi ~frozen ~sleep:_ ->
          Ok (Controller.step_window ctl ~relation ~hi ~frozen))
        ~apply_sleep:sleep
  | Some retry ->
      let of_view ctl =
        Result.map_error (step_error (View.name (Controller.view ctl)))
      in
      drain_items ~full t ~budget
        ~step:(fun ctl ->
          of_view ctl (Controller.propagate_step_reliable ctl ~retry ~sleep))
        ~capture_run:(reliable_capture t ~retry ~sleep)
        ~wave_step:(fun ctl ~relation ~hi ~frozen ~sleep ->
          of_view ctl
            (Controller.step_window_reliable ctl ~relation ~hi ~frozen ~retry
               ~sleep))
        ~apply_sleep:sleep

let step_all t ~budget =
  match drain ~full:false t ~budget with
  | Ok steps -> steps
  | Error (_ : step_error) -> assert false

let try_step_all ?sleep t ~budget ~retry =
  drain ~retry ?sleep ~full:false t ~budget

let maintain ?retry ?sleep t ~budget = drain ?retry ?sleep ~full:true t ~budget

let refresh_all t =
  List.iter
    (fun (e : entry) ->
      if not e.paused then begin
        ignore (Controller.refresh_latest e.controller);
        sync_part e
      end)
    t.entries

let gc_all t =
  let pruned =
    List.fold_left
      (fun acc (e : entry) -> acc + gc_entry e)
      0 t.entries
  in
  ignore (reclaim_wal t);
  pruned

(* ------------------------------------------------------------------ *)
(* JSON renderings (rollctl --json, CI assertions)                     *)

let status_json t =
  let module E = Roll_obs.Export in
  let buf = Buffer.create 512 in
  Buffer.add_char buf '[';
  List.iteri
    (fun i (s : status) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"view\":%s,\"as_of\":%d,\"hwm\":%d,\"staleness\":%d,\"sla\":%d,\"slack\":%d,\"delta_rows\":%d,\"paused\":%b,\"retries\":%d,\"aborts\":%d,\"recoveries\":%d,\"memo_hits\":%d,\"memo_misses\":%d,\"shared_builds\":%d,\"aux\":%b,\"aux_hits\":%d,\"aux_misses\":%d,\"aux_lag\":%d,\"hot\":%b,\"hot_hits\":%d,\"hot_misses\":%d,\"heavy_keys\":%d,\"light_rows\":%d,\"reads_served\":%d,\"reads_rejected\":%d,\"read_wait\":%s}"
           (E.json_string s.name) s.as_of s.hwm s.staleness s.sla s.slack
           s.delta_rows s.paused s.retries s.aborts s.recoveries s.memo_hits
           s.memo_misses s.shared_builds s.aux s.aux_hits s.aux_misses
           s.aux_lag s.hot s.hot_hits s.hot_misses s.heavy_keys s.light_rows
           s.reads_served s.reads_rejected
           (E.json_float s.read_wait)))
    (status t);
  Buffer.add_char buf ']';
  Buffer.contents buf

(* Per-shard queue depth: planned propagate items hashed by view name onto
   the domain slots; every other kind belongs to the single-writer drain
   domain (slot 0). Sharding is observational — waves assign work by wave
   position — but it shows how the planned queue would spread. *)
let shard_depths ?full t =
  let d = Array.make (domains t) 0 in
  List.iter
    (fun (s : Scheduler.scored) ->
      match s.Scheduler.item with
      | Scheduler.Propagate_step { view; _ } ->
          let i = shard_of t view in
          d.(i) <- d.(i) + 1
      | _ -> d.(0) <- d.(0) + 1)
    (schedule ?full t);
  d

let ran_by_domain t = Scheduler.ran_by_domain t.scheduler

let shards_json ?full t =
  let module E = Roll_obs.Export in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "{\"domains\":%d,\"shards\":[" (domains t));
  Array.iteri
    (fun i depth ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"shard\":%d,\"depth\":%d}" i depth))
    (shard_depths ?full t);
  Buffer.add_string buf "],\"ran\":[";
  List.iteri
    (fun i ((kind, domain), count) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"kind\":%s,\"domain\":%d,\"count\":%d}"
           (E.json_string kind) domain count))
    (ran_by_domain t);
  Buffer.add_string buf "]}";
  Buffer.contents buf

let schedule_json ?full t =
  let module E = Roll_obs.Export in
  let buf = Buffer.create 512 in
  Buffer.add_char buf '[';
  List.iteri
    (fun i (s : Scheduler.scored) ->
      if i > 0 then Buffer.add_char buf ',';
      let window =
        match s.Scheduler.window with
        | Some (table, lo, hi) ->
            Printf.sprintf "{\"table\":%s,\"lo\":%d,\"hi\":%d}"
              (E.json_string table) lo hi
        | None -> "null"
      in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"item\":%s,\"kind\":%s,\"score\":%s,\"staleness\":%d,\"slack\":%d,\"est_rows\":%d,\"est_cost\":%s,\"deferred\":%b,\"readers\":%d,\"partial\":%b,\"window\":%s}"
           (E.json_string
              (Format.asprintf "%a" Scheduler.pp_item s.Scheduler.item))
           (E.json_string (Scheduler.kind_name s.Scheduler.item))
           (E.json_float s.Scheduler.score)
           s.Scheduler.staleness s.Scheduler.slack s.Scheduler.est_rows
           (E.json_float s.Scheduler.est_cost)
           s.Scheduler.deferred s.Scheduler.readers s.Scheduler.partial
           window))
    (schedule ?full t);
  Buffer.add_char buf ']';
  Buffer.contents buf
