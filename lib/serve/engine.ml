(** The serving engine: admission control and the blocked-reader queue.

    rolld keeps the single-writer discipline of the maintenance loop: the
    engine never runs maintenance itself and connection threads never
    touch the database. A connection thread {!submit}s a read and blocks
    in {!await}; the drain loop (the server's engine thread, or a test
    driving the engine inline) calls {!pump} between maintenance drains
    to resolve whatever has become servable. All database access — clock
    reads, snapshot construction, status — happens inside {!pump} on the
    pumping thread, so reads are always served against a quiescent
    engine.

    {2 Admission}

    For [READ view AT t] with current database time [now], view
    high-water mark [hwm] and gc horizon [h]:

    - [t > now]: rejected [too_new] — the time has not been committed, no
      amount of waiting on this server can serve it;
    - [t < h]: rejected [gc_horizon] — the applied delta prefix below [h]
      was pruned, the snapshot is gone forever;
    - [t <= hwm]: served immediately from the view delta, no maintenance
      needed: the view's last served snapshot is rolled to [t] through the
      delta rows between the two times
      ({!Roll_core.Controller.roll_rows}), and built in full
      ({!Roll_core.Controller.view_at}) only when the view has none the
      gc horizon has left reconstructible;
    - [hwm < t <= now]: {e queued}. The reader blocks until propagation
      rolls the high-water mark past [t]; queued readers are what the
      scheduler's reader boost counts ({!demand} is installed as the
      {!Roll_core.Service.set_read_demand} census).

    [READ view FRESH] serves at the current high-water mark and never
    queues. A full queue sheds new reads with [overloaded] instead of
    growing without bound. *)

module Service = Roll_core.Service
module Controller = Roll_core.Controller
module Counters = Roll_core.Counters
module Database = Roll_storage.Database
module Obs = Roll_obs.Obs
module Metrics = Roll_obs.Metrics
module Json = Roll_util.Json

type ticket = {
  request : Protocol.request;
  submitted : float;  (** wall clock ({!Unix.gettimeofday}) at submit *)
  t_mutex : Mutex.t;
  t_cond : Condition.t;
  mutable result : Protocol.response option;
}

(* Per-view read histograms, resolved once per view. *)
type read_hists = {
  wait : string -> Metrics.histogram;
  staleness : string -> Metrics.histogram;
}

(* [ctl] is the controller the rows were built from: a view registered
   again under the same name starts a new delta. *)
type memo = {
  ctl : Controller.t;
  at : Roll_delta.Time.t;
  rows : Roll_relation.Sorted_rows.t;
}

type t = {
  service : Service.t;
  db : Database.t;
  queue_limit : int;
  mutex : Mutex.t;  (** guards [pending] and [accepting] *)
  mutable pending : ticket list;  (** newest first; {!pump} serves oldest first *)
  mutable accepting : bool;
  counters : Counters.t;
      (** reads no view owns: unknown views and reads shed by a full queue
          or at shutdown. Every other read counts in its view's counters;
          the engine's totals are the sum of the two. *)
  read_hists : read_hists option;  (** [Some] iff observability is on *)
  (* The last snapshot served per view, as sorted rows, and its time.
     Reads at a fixed (view, t) with [t <= hwm] are deterministic — the
     applied delta below the high-water mark is append-only — so a read at
     the memo's time re-serves its rows, and a read at any other servable
     time rolls them there through the view delta between the two times
     ({!Controller.roll_rows}) instead of rebuilding the whole snapshot.
     Pump-thread only (like every db touch). *)
  snapshots : (string, memo) Hashtbl.t;
  mutable snapshot_hits : int;
}

let create ?(queue_limit = 1024) db service =
  if queue_limit < 1 then invalid_arg "Engine.create: queue_limit < 1";
  let obs = Service.obs service in
  let read_hists =
    if Obs.enabled obs then
      let m = Obs.metrics obs in
      Some
        {
          wait =
            Metrics.histogram_by m ~key:"view"
              ~help:"seconds admitted readers spent blocked on freshness"
              "rolld_read_wait_seconds";
          staleness =
            Metrics.histogram_by m ~key:"view"
              ~help:"commits behind current time at serve"
              "rolld_read_staleness_commits";
        }
    else None
  in
  let t =
    {
      service;
      db;
      queue_limit;
      mutex = Mutex.create ();
      pending = [];
      accepting = true;
      counters = Counters.create ();
      read_hists;
      snapshots = Hashtbl.create 8;
      snapshot_hits = 0;
    }
  in
  if Obs.enabled obs then
    Metrics.register_collector (Obs.metrics obs) (fun () ->
        Metrics.with_labels
          [ ("scope", "engine") ]
          (Metrics.snapshot (Counters.metrics t.counters)));
  (* Plug the blocked-reader census into the scheduler so drains
     prioritize views clients are waiting on. *)
  Service.set_read_demand service (fun view ->
      Mutex.protect t.mutex (fun () ->
          List.length
            (List.filter
               (fun ticket ->
                 match ticket.request with
                 | Protocol.Read_at { view = v; _ } -> v = view
                 | _ -> false)
               t.pending)));
  t

let service t = t.service

let db t = t.db

let pending t = Mutex.protect t.mutex (fun () -> List.length t.pending)

(* One read count: the views' own counters plus the engine's, so the
   totals always equal the exported series. *)
let total t c =
  List.fold_left
    (fun acc name ->
      let counters = Controller.counters (Service.controller t.service name) in
      acc + Counters.count counters c)
    (Counters.count t.counters c)
    (Service.names t.service)

let reads_served t = total t Counters.reads_served

let reads_rejected t = total t Counters.reads_rejected

let demand t view =
  Mutex.protect t.mutex (fun () ->
      List.length
        (List.filter
           (fun ticket ->
             match ticket.request with
             | Protocol.Read_at { view = v; _ } -> v = view
             | _ -> false)
           t.pending))

let resolve ticket response =
  Mutex.protect ticket.t_mutex (fun () ->
      ticket.result <- Some response;
      Condition.broadcast ticket.t_cond)

let await ticket =
  Mutex.protect ticket.t_mutex (fun () ->
      let rec wait () =
        match ticket.result with
        | Some r -> r
        | None ->
            Condition.wait ticket.t_cond ticket.t_mutex;
            wait ()
      in
      wait ())

let poll ticket = Mutex.protect ticket.t_mutex (fun () -> ticket.result)

let submit t request =
  (match request with
  | Protocol.Read_at _ | Protocol.Read_fresh _ | Protocol.Status -> ()
  | _ -> invalid_arg "Engine.submit: only READ and STATUS requests are queued");
  let ticket =
    {
      request;
      submitted = Unix.gettimeofday ();
      t_mutex = Mutex.create ();
      t_cond = Condition.create ();
      result = None;
    }
  in
  let reject =
    Mutex.protect t.mutex (fun () ->
        if not t.accepting then Some Protocol.Shutting_down
        else if List.length t.pending >= t.queue_limit then
          Some
            (Protocol.Overloaded
               { pending = List.length t.pending; limit = t.queue_limit })
        else begin
          t.pending <- ticket :: t.pending;
          None
        end)
  in
  (match reject with
  | Some r ->
      Counters.incr t.counters Counters.reads_rejected;
      resolve ticket (Protocol.Rejected r)
  | None -> ());
  ticket

(* Serving (pump thread only — the single place that touches the db). *)

let observe_read t ~view ~wait ~staleness =
  match t.read_hists with
  | None -> ()
  | Some h ->
      Metrics.observe (h.wait view) wait;
      Metrics.observe (h.staleness view) (float_of_int staleness)

(* A full build sorts the whole view; rolling the memo sorts only the
   window. The build is the fallback for a view with no memo yet, or
   whose memo the gc horizon has passed (its window was pruned). *)
let snapshot_rows t ~view ~ctl ~time =
  let remember rows =
    Hashtbl.replace t.snapshots view { ctl; at = time; rows };
    rows
  in
  match Hashtbl.find_opt t.snapshots view with
  | Some m when m.ctl == ctl && m.at >= Controller.horizon ctl ->
      if m.at = time then begin
        t.snapshot_hits <- t.snapshot_hits + 1;
        m.rows
      end
      else remember (Controller.roll_rows ctl m.rows ~from:m.at time)
  | _ -> remember (Controller.view_at ctl time)

let snapshot_memo_hits t = t.snapshot_hits

let serve t ticket ~view ~ctl ~time =
  let hwm = Controller.hwm ctl in
  let wait = Unix.gettimeofday () -. ticket.submitted in
  let rows = snapshot_rows t ~view ~ctl ~time in
  let counters = Controller.counters ctl in
  Counters.incr counters Counters.reads_served;
  Counters.add counters Counters.read_wait wait;
  observe_read t ~view ~wait ~staleness:(Database.now t.db - time);
  resolve ticket
    (Protocol.Rows { view; at = time; hwm; wait; rows = Array.to_list rows })

let reject t ticket ?(counters = t.counters) r =
  Counters.incr counters Counters.reads_rejected;
  resolve ticket (Protocol.Rejected r)

let status t =
  let pending = Mutex.protect t.mutex (fun () -> List.length t.pending) in
  Json.Obj
    [
      ("now", Json.Int (Database.now t.db));
      ("domains", Json.Int (Service.domains t.service));
      ("pending", Json.Int pending);
      ("served", Json.Int (reads_served t));
      ("rejected", Json.Int (reads_rejected t));
      ("views", Service.status_json t.service);
    ]

(* Try to resolve one ticket against current state; [false] = keep it
   queued (admitted, waiting for the high-water mark). *)
let step t ticket =
  match ticket.request with
  | Protocol.Status ->
      resolve ticket (Protocol.Status_report (status t));
      true
  | (Protocol.Read_at { view; _ } | Protocol.Read_fresh view) as request -> (
      match Service.controller t.service view with
      | exception Not_found ->
          reject t ticket (Protocol.Unknown_view view);
          true
      | ctl -> (
          match request with
          | Protocol.Read_fresh _ ->
              serve t ticket ~view ~ctl ~time:(Controller.hwm ctl);
              true
          | Protocol.Read_at { time; _ } ->
              let now = Database.now t.db in
              let horizon = Controller.horizon ctl in
              if time > now then begin
                reject t ticket ~counters:(Controller.counters ctl)
                  (Protocol.Too_new { requested = time; now });
                true
              end
              else if time < horizon then begin
                reject t ticket ~counters:(Controller.counters ctl)
                  (Protocol.Gc_horizon { requested = time; horizon });
                true
              end
              else if time <= Controller.hwm ctl then begin
                serve t ticket ~view ~ctl ~time;
                true
              end
              else false
          | _ -> assert false))
  | _ -> assert false

(* With no reader queued, the pump is idle time in the engine loop, so it
   pays a major GC slice there: reads allocate too little to trigger the
   slices that would otherwise run inside them, and without this the
   collector's debt lands in the next maintenance drain instead, on the
   commit-visibility path. *)
let pump t =
  let batch =
    Mutex.protect t.mutex (fun () ->
        let oldest_first = List.rev t.pending in
        t.pending <- [];
        oldest_first)
  in
  if batch = [] then ignore (Gc.major_slice 0);
  let still_pending, resolved =
    List.fold_left
      (fun (pending, resolved) ticket ->
        if step t ticket then (pending, resolved + 1)
        else (ticket :: pending, resolved))
      ([], 0) batch
  in
  (* Re-queue survivors (they are newest-first again, as [pending] expects). *)
  Mutex.protect t.mutex (fun () -> t.pending <- still_pending @ t.pending);
  resolved

let close t =
  let orphans =
    Mutex.protect t.mutex (fun () ->
        t.accepting <- false;
        let orphans = t.pending in
        t.pending <- [];
        orphans)
  in
  Counters.add t.counters Counters.reads_rejected
    (float_of_int (List.length orphans));
  List.iter
    (fun ticket -> resolve ticket (Protocol.Rejected Protocol.Shutting_down))
    orphans
