module Time = Roll_delta.Time
module Delta = Roll_delta.Delta
module Database = Roll_storage.Database
module Capture = Roll_capture.Capture
module Heap = Roll_util.Heap

let log_src = Logs.Src.create "roll.scheduler" ~doc:"maintenance-task scheduler"

module Log = (val Logs.src_log log_src)

type policy = Slack | Round_robin

type item =
  | Capture_advance
  | Propagate_step of { view : string; relation : int }
  | Apply_refresh of string
  | Checkpoint of string
  | Gc of string

type scored = {
  item : item;
  score : float;
  staleness : int;
  slack : int;
  est_rows : int;
  est_cost : float;
  deferred : bool;
  window : (string * Time.t * Time.t) option;
  readers : int;  (** clients waiting on this view's hwm when planned *)
  partial : bool;  (** the item maintains a part of a derived partial *)
}

type source = {
  name : string;
  controller : Controller.t;
  paused : bool;
  sla : int;
  apply_due : bool;
  checkpoint_due : bool;
  gc_due : bool;
  partial : bool;
}

type t = {
  db : Database.t;
  capture : Capture.t;
  mutable policy : policy;
  cost_weight : float;
  capture_batch : int option;
  stats : Stats.t;
  (* Per-drain round-robin state: how many propagate turns each view has
     taken since [begin_drain]. *)
  rounds : (string, int) Hashtbl.t;
  mutable obs : Roll_obs.Obs.t;
  (* Queue-wait bookkeeping: clock reading when each pending item was first
     offered by [plan], keyed by rendered item. Entries die when the item
     runs, so a later re-offering starts a fresh wait. *)
  first_seen : (string, float) Hashtbl.t;
  (* Which domain slot executed how many items of each kind — the
     provenance [rollctl status] reports under parallel drains. Slot 0 is
     the drain domain itself. *)
  by_domain : (string * int, int) Hashtbl.t;
  (* Read demand: how many admitted readers are waiting for this view's
     hwm to reach their target time. Installed by the serving layer
     (Roll_serve.Engine); the default reports no demand anywhere. *)
  mutable read_demand : string -> int;
}

(* Score bands: every runnable item's score stays far below [deferred_band],
   so a deferred propagate step can never outrank runnable work. *)
let background_band = 1.0e6
let gc_band = 1.0e9
let rr_sweep_band = 1.0e4
let deferred_band = 1.0e15

(* Reader boost: a runnable propagate step with waiting readers drops by a
   whole band, outranking any slack score — readers are latency the view is
   accumulating right now, slack is latency it may accumulate later. The
   band sits far above the backpressure boost (-deferred_band), so capture
   still wins when the boosted window is under-captured, and a deferred
   boosted step stays deferred. Starvation-free for the same reason the
   base policy is: every boosted step strictly advances its view's
   frontier toward the readers' target, after which the demand (and the
   boost) disappears and the queue reverts to slack order. *)
let reader_band = 1.0e5

(* Partial band: a runnable propagate step of a derived partial's part (an
   auxiliary view or a heavy key's partial) normally drops below every
   user-view slack score, so parts freshen first within a drain and the
   substitution reads they feed actually hit. The boost flips sign the
   moment any unpaused user view is in SLA breach (slack < 0): partials
   are an optimization, and they must never hold a late user view's
   budget hostage — scored below user-view SLAs, exactly. The band sits
   below the reader boost: a view with blocked readers is accumulating
   latency right now and still outranks partial freshening. *)
let partial_band = 1.0e4

let create ?(policy = Slack) ?(cost_weight = 0.01) ?capture_batch db capture =
  (match capture_batch with
  | Some n when n <= 0 ->
      invalid_arg "Scheduler.create: capture_batch must be positive"
  | _ -> ());
  {
    db;
    capture;
    policy;
    cost_weight;
    capture_batch;
    stats = Stats.create ();
    rounds = Hashtbl.create 8;
    obs = Roll_obs.Obs.disabled ();
    first_seen = Hashtbl.create 16;
    by_domain = Hashtbl.create 8;
    read_demand = (fun _ -> 0);
  }

let set_read_demand t f = t.read_demand <- f

let set_obs t obs =
  t.obs <- obs;
  Hashtbl.reset t.first_seen

let policy t = t.policy

let set_policy t policy = t.policy <- policy

let stats t = t.stats

let capture_batch t = t.capture_batch

let kind_name = function
  | Capture_advance -> "capture"
  | Propagate_step _ -> "propagate"
  | Apply_refresh _ -> "apply"
  | Checkpoint _ -> "checkpoint"
  | Gc _ -> "gc"

let pp_item ppf = function
  | Capture_advance -> Format.pp_print_string ppf "capture-advance"
  | Propagate_step { view; relation } ->
      Format.fprintf ppf "propagate %s/R%d" view relation
  | Apply_refresh view -> Format.fprintf ppf "apply %s" view
  | Checkpoint view -> Format.fprintf ppf "checkpoint %s" view
  | Gc view -> Format.fprintf ppf "gc %s" view

let item_key item = Format.asprintf "%a" pp_item item

let begin_drain t =
  Hashtbl.reset t.rounds;
  Hashtbl.reset t.first_seen

let queue_wait t item =
  match Hashtbl.find_opt t.first_seen (item_key item) with
  | None -> None
  | Some since -> Some (Float.max 0. (Roll_obs.Obs.now t.obs -. since))

let rounds_of t name =
  match Hashtbl.find_opt t.rounds name with Some n -> n | None -> 0

let note_ran ?(domain = 0) t item ~wall =
  let c = Stats.sched_kind t.stats (kind_name item) in
  c.Stats.ran <- c.Stats.ran + 1;
  c.Stats.wall <- c.Stats.wall +. wall;
  let dk = (kind_name item, domain) in
  Hashtbl.replace t.by_domain dk
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.by_domain dk));
  Hashtbl.remove t.first_seen (item_key item);
  match item with
  | Propagate_step { view; _ } ->
      Hashtbl.replace t.rounds view (rounds_of t view + 1)
  | Capture_advance | Apply_refresh _ | Checkpoint _ | Gc _ -> ()

let ran_by_domain t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.by_domain []
  |> List.sort (fun ((ka, da), _) ((kb, db), _) ->
         match String.compare ka kb with 0 -> Int.compare da db | c -> c)

(* ------------------------------------------------------------------ *)
(* Planning                                                            *)

(* One propagate item per steppable non-paused view. A step whose window
   reaches past the capture high-water mark is marked deferred: running it
   would make the executor read an under-captured window. *)
let propagate_items t ~now ~capture_hwm sources =
  (* Any user view already past its SLA flips the partial boost: late
     user work runs before part freshening, fresh-enough user work after. *)
  let user_breach =
    List.exists
      (fun (src : source) ->
        (not src.paused) && (not src.partial)
        && now - Controller.hwm src.controller > src.sla)
      sources
  in
  List.concat
    (List.mapi
       (fun reg_index (src : source) ->
         if src.paused then []
         else
           match Controller.step_candidates src.controller with
           | [] -> []
           | c :: _ ->
               let hwm = Controller.hwm src.controller in
               let staleness = now - hwm in
               let slack = src.sla - staleness in
               let deferred = c.Controller.hi > capture_hwm in
               let readers = t.read_demand src.name in
               let score =
                 if deferred then deferred_band +. float_of_int reg_index
                 else
                   let base =
                     match t.policy with
                     | Slack ->
                         float_of_int slack
                         +. (t.cost_weight *. c.Controller.est_cost)
                     | Round_robin ->
                         (float_of_int (rounds_of t src.name) *. rr_sweep_band)
                         +. float_of_int reg_index
                   in
                   if src.partial then
                     if user_breach then base +. partial_band
                     else base -. partial_band
                   else if readers > 0 then base -. reader_band
                   else base
               in
               let table =
                 View.source_table
                   (Controller.view src.controller)
                   c.Controller.relation
               in
               [
                 {
                   item =
                     Propagate_step
                       { view = src.name; relation = c.Controller.relation };
                   score;
                   staleness;
                   slack;
                   est_rows = c.Controller.est_rows;
                   est_cost = c.Controller.est_cost;
                   deferred;
                   window = Some (table, c.Controller.lo, c.Controller.hi);
                   readers;
                   partial = src.partial;
                 };
               ])
       sources)

let capture_item t =
  let lag = Capture.lag t.capture in
  if lag = 0 then []
  else
    let score =
      match t.policy with
      | Slack -> -.float_of_int lag
      | Round_robin ->
          (* The legacy loop advanced capture inside each step; explicit
             capture work runs after the sweep unless backpressure boosts
             it. *)
          background_band
    in
    [
      {
        item = Capture_advance;
        score;
        staleness = lag;
        slack = -lag;
        est_rows = lag;
        est_cost = 0.;
        deferred = false;
        window = None;
        readers = 0;
        partial = false;
      };
    ]

(* Apply, checkpoint and gc are background freshness work: apply rolls the
   stored view forward to coverage that already exists, the others are
   housekeeping. They are only offered to full drains. *)
let background_items t ~now sources =
  List.concat_map
    (fun (src : source) ->
      if src.paused then []
      else begin
        let ctl = src.controller in
        let hwm = Controller.hwm ctl in
        let as_of = Controller.as_of ctl in
        let apply =
          if (not src.apply_due) || hwm <= as_of then []
          else
            let staleness = now - as_of in
            let slack = src.sla - staleness in
            let rows =
              Delta.window_count (Controller.ctx ctl).Ctx.out ~lo:as_of ~hi:hwm
            in
            let score =
              match t.policy with
              | Slack -> float_of_int slack +. 0.5
              | Round_robin -> background_band +. 1.
            in
            [
              {
                item = Apply_refresh src.name;
                score;
                staleness;
                slack;
                est_rows = rows;
                est_cost = float_of_int rows;
                deferred = false;
                window = None;
                readers = 0;
                partial = src.partial;
              };
            ]
        in
        let fixed item band =
          {
            item;
            score = band;
            staleness = 0;
            slack = src.sla;
            est_rows = Delta.length (Controller.ctx ctl).Ctx.out;
            est_cost = 0.;
            deferred = false;
            window = None;
            readers = 0;
            partial = src.partial;
          }
        in
        let checkpoint =
          if src.checkpoint_due then [ fixed (Checkpoint src.name) (background_band +. 2.) ]
          else []
        in
        let gc = if src.gc_due then [ fixed (Gc src.name) gc_band ] else [] in
        apply @ checkpoint @ gc
      end)
    sources

let plan ?(full = false) t sources =
  let now = Database.now t.db in
  let capture_hwm = Capture.hwm t.capture in
  let items =
    propagate_items t ~now ~capture_hwm sources
    @ capture_item t
    @ (if full then background_items t ~now sources else [])
  in
  (* Heap order: lowest score first; insertion order breaks ties, keeping
     registration order deterministic. *)
  let heap = Heap.create () in
  List.iter (fun s -> Heap.add heap ~priority:s.score s) items;
  let rec drain acc =
    match Heap.pop heap with
    | Some (_, s) -> drain (s :: acc)
    | None -> List.rev acc
  in
  let planned = drain [] in
  if Roll_obs.Obs.enabled t.obs then begin
    let now = Roll_obs.Obs.now t.obs in
    List.iter
      (fun s ->
        let key = item_key s.item in
        if not (Hashtbl.mem t.first_seen key) then
          Hashtbl.add t.first_seen key now)
      planned
  end;
  planned

let select ?full t sources =
  let items = plan ?full t sources in
  List.iter
    (fun s ->
      let c = Stats.sched_kind t.stats (kind_name s.item) in
      c.Stats.scheduled <- c.Stats.scheduled + 1)
    items;
  let deferred, runnable = List.partition (fun s -> s.deferred) items in
  List.iter
    (fun s ->
      let c = Stats.sched_kind t.stats (kind_name s.item) in
      c.Stats.deferred <- c.Stats.deferred + 1)
    deferred;
  let head =
    if deferred <> [] && Capture.lag t.capture > 0 then begin
      (* Backpressure: some propagate step is waiting on capture. Boost
         capture to the front of the queue regardless of policy, so capture
         lag can never deadlock propagation — every boosted advance strictly
         reduces the lag until the deferred windows are fully captured. *)
      match List.find_opt (fun s -> s.item = Capture_advance) runnable with
      | Some capture ->
          let c = Stats.sched_kind t.stats "capture" in
          c.Stats.backpressured <- c.Stats.backpressured + 1;
          Log.debug (fun m ->
              m "backpressure: %d propagate step(s) deferred, boosting \
                 capture (lag=%d)"
                (List.length deferred)
                (Capture.lag t.capture));
          Some { capture with score = -.deferred_band }
      | None -> (match runnable with [] -> None | s :: _ -> Some s)
    end
    else match runnable with [] -> None | s :: _ -> Some s
  in
  (head, runnable)

(* Two windows conflict when they overlap on the same delta table; any
   other pair can run in the same wave. Identical windows (aligned sibling
   views) deliberately conflict across slots: they chain onto one slot
   instead, where back to back they serve each other from the memo. *)
let windows_disjoint (ta, loa, hia) (tb, lob, hib) =
  (not (String.equal ta tb)) || hia <= lob || hib <= loa

let supports_wave sources (s : scored) =
  match s.item with
  | Propagate_step { view; _ } -> (
      match List.find_opt (fun (src : source) -> src.name = view) sources with
      | Some src -> Controller.supports_window_step src.controller
      | None -> false)
  | Capture_advance | Apply_refresh _ | Checkpoint _ | Gc _ -> false

(* A slot's chain: under Slack, a propagate head plus every other runnable
   propagate step reading the very same delta window, in score order —
   executed back to back they hit the drain-scoped delta memo and share
   hash builds. Windows coincide under grid alignment, or when views are
   caught up to the same clock reading; Round_robin keeps one-item
   chains. *)
let chain t runnable ~eligible (head : scored) =
  match (t.policy, head.item, head.window) with
  | Slack, Propagate_step _, Some w ->
      (* Only propagate items carry a window. *)
      head
      :: List.filter
           (fun s -> s.item <> head.item && s.window = Some w && eligible s)
           runnable
  | _ -> [ head ]

let take_wave ?full t sources ~max:limit =
  if limit <= 0 then invalid_arg "Scheduler.take_wave: max must be positive";
  let head, runnable = select ?full t sources in
  match head with
  | None -> []
  | Some head ->
      let first = chain t runnable ~eligible:(fun _ -> true) head in
      let wave =
        match head.window with
        | Some w0 when limit > 1 && List.for_all (supports_wave sources) first
          ->
            (* Greedy fill in score order: each candidate heads a new slot
               if its window is disjoint from every slot's. Chain members
               share their head's window, and [propagate_items] offers at
               most one item per view, so members are distinct views by
               construction — the other half of the no-conflict rule (a
               view's ctx/out/frontiers belong to one domain at a time). *)
            let slots = ref [ (first, w0) ] in
            List.iter
              (fun s ->
                if List.length !slots < limit && supports_wave sources s then
                  match s.window with
                  | Some w
                    when List.for_all
                           (fun (_, w') -> windows_disjoint w w')
                           !slots ->
                      let c =
                        chain t runnable ~eligible:(supports_wave sources) s
                      in
                      slots := !slots @ [ (c, w) ]
                  | _ -> ())
              runnable;
            List.map fst !slots
        | _ -> [ first ]
      in
      let c = Stats.sched_kind t.stats "propagate" in
      c.Stats.batched <-
        List.fold_left (fun n ch -> n + List.length ch) (c.Stats.batched - 1) wave;
      wave
