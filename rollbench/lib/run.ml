(* One workload run: set-up, warm-up, the closed loop, the open loop and
   the correctness gate, driven only through public entry points —
   workload generators committing into Roll_storage.Database,
   Service.maintain, and Roll_serve.Engine with its Protocol.

   Every phase does a fixed amount of work. The open loop replays rolld's
   engine loop in-process on a fixed schedule; its latencies are timed
   from each operation's due time on a virtual clock (see [open_loop]).

   Every time is process CPU time ([cpu]), not wall time. The benchmark
   is one thread, so on an idle host the two agree; on a shared host
   wall time also counts the moments other tenants hold the core, and
   that share changes from minute to minute. The one wait CPU time does
   not see is fsync, which only checkpoints and WAL rotation issue. *)

module C = Roll_core
module W = Roll_workload
module S = Roll_serve
module Database = Roll_storage.Database
module Relation = Roll_relation.Relation
module Obs = Roll_obs.Obs
module Trace = Roll_obs.Trace
module Prng = Roll_util.Prng
module Capture = Roll_capture.Capture

exception Gate of string

let gate fmt = Printf.ksprintf (fun s -> raise (Gate s)) fmt

(* Process CPU time (getrusage), to the microsecond. *)
let cpu = Sys.time

type instance = {
  w : Workloads.t;
  star : W.Star.t;
  db : Database.t;
  service : C.Service.t;
  engine : S.Engine.t;
  users : (Workloads.view_def * C.Controller.t) list;
  obs : Obs.t option;
  mutable lag : float list;
      (** capture lag in commits at each maintain call, traced runs only *)
}

(* Failure accounting, shared by every phase of an instance. *)
type tally = {
  mutable attempted : int;
  mutable step_errors : int;
  mutable rejected : int;
  mutable unresolved : int;
}

let tally () = { attempted = 0; step_errors = 0; rejected = 0; unresolved = 0 }

let failed t = t.step_errors + t.rejected + t.unresolved

let span inst name f =
  match inst.obs with
  | Some o -> Trace.with_span (Obs.trace o) name f
  | None -> f ()

let span_attr inst key v =
  match inst.obs with
  | Some o -> Trace.add_attr (Obs.trace o) key (Trace.Int v)
  | None -> ()

(* --- set-up --- *)

let setup ?obs (w : Workloads.t) ~seed =
  let wrap name f =
    match obs with
    | Some o -> Trace.with_span (Obs.trace o) name f
    | None -> f ()
  in
  let t0 = cpu () in
  let star =
    wrap "bench.setup.load" (fun () ->
        let star = W.Star.create { w.star with W.Star.seed } in
        W.Star.load_initial star;
        star)
  in
  let db = W.Star.db star in
  let service, users =
    wrap "bench.setup.register" (fun () ->
        let service = C.Service.create ?obs db (W.Star.capture star) in
        C.Service.set_gc_threshold service Workloads.gc_threshold;
        let users =
          List.map
            (fun (d : Workloads.view_def) ->
              let ctl =
                C.Service.register service ~algorithm:d.algorithm d.view
              in
              (match (w.checkpoint_every, Database.store_dir db) with
              | Some every, Some dir ->
                  let name = C.View.name d.view in
                  C.Service.set_checkpoint service name
                    ~path:(Filename.concat dir (name ^ ".ckpt"))
                    ~every
              | _ -> ());
              (d, ctl))
            (w.views star)
        in
        (service, users))
  in
  let engine = S.Engine.create db service in
  let inst = { w; star; db; service; engine; users; obs; lag = [] } in
  (inst, cpu () -. t0)

let min_hwm inst =
  List.fold_left
    (fun acc (_, ctl) -> min acc (C.Controller.hwm ctl))
    max_int inst.users

(* --- the two pieces every loop is made of --- *)

let commit inst =
  span inst "bench.commit" (fun () ->
      W.Star.mixed_txns inst.star ~n:1 ~dim_fraction:inst.w.dim_fraction);
  Database.now inst.db

let maintain inst tally =
  if inst.obs <> None then
    inst.lag <-
      float_of_int (Database.now inst.db - Capture.hwm (W.Star.capture inst.star))
      :: inst.lag;
  tally.attempted <- tally.attempted + 1;
  span inst "bench.maintain" (fun () ->
      match C.Service.maintain inst.service ~budget:Workloads.budget with
      | Ok items ->
          span_attr inst "items" items;
          items
      | Error (_ : C.Service.step_error) ->
          tally.step_errors <- tally.step_errors + 1;
          0)

(* --- closed loop --- *)

(* Drain until every user view's high-water mark reaches [target]. A
   drain that makes no progress for many calls in a row is a hang. *)
let drain_to inst tally target =
  let idle = ref 0 in
  while min_hwm inst < target do
    if maintain inst tally = 0 then begin
      incr idle;
      if !idle > 10_000 then
        gate "%s: maintain stalled below hwm %d (at %d)" inst.w.name target
          (min_hwm inst)
    end
    else idle := 0
  done

(* [rounds] rounds of [batch] commits, each drained to its last commit.
   Returns (transactions, CPU seconds). *)
let closed ?(on_idle = ignore) inst tally ~rounds =
  let busy = ref 0. in
  for _ = 1 to rounds do
    let t0 = cpu () in
    for _ = 1 to Workloads.batch do
      tally.attempted <- tally.attempted + 1;
      ignore (commit inst)
    done;
    drain_to inst tally (Database.now inst.db);
    busy := !busy +. (cpu () -. t0);
    on_idle ()
  done;
  (rounds * Workloads.batch, !busy)

(* --- open loop --- *)

type pending_read = {
  due : float;
  ticket : S.Engine.ticket;
  submit_iter : int;
  sample : bool;  (** re-checked against the oracle once served *)
}

type open_result = {
  txns : int;
  visible : float array;  (** seconds, due time to visible *)
  reads : float array;  (** seconds, due time to encoded response *)
  late : float array;  (** seconds each operation was issued after due *)
  backlog_end : int;
  rows_encoded : int;
  bytes_encoded : int;
  reads_served : int;
  queued : int;  (** reads not resolved by the pump of their own iteration *)
  checked : int;  (** served reads re-checked against the oracle *)
  paused : float;  (** wall seconds of oracle re-checks and [between] *)
  idle : float;  (** virtual seconds skipped while idle: spare capacity *)
  elapsed : float;  (** virtual seconds from the first due time to the end *)
  wall : float;  (** wall seconds the loop took *)
}

(* How many served reads the gate re-checks per run. *)
let read_checks = 8

(* After the schedule ends, how long stragglers may take to finish. *)
let drain_grace = 30.

let oracle_rows inst (d : Workloads.view_def) at =
  C.Oracle.view_at (W.Star.history inst.star) d.view at

let check_read inst line =
  match S.Protocol.decode_response line with
  | Error e -> gate "%s: undecodable READ response: %s" inst.w.name e
  | Ok (S.Protocol.Rows { view; at; rows; _ }) ->
      let d, _ =
        List.find
          (fun ((d : Workloads.view_def), _) -> C.View.name d.view = view)
          inst.users
      in
      let served = Relation.of_list (C.View.output_schema d.view) rows in
      if not (Relation.equal served (oracle_rows inst d at)) then
        gate "%s: READ %s served at %d differs from the oracle" inst.w.name
          view at
  | Ok _ -> gate "%s: sampled READ was not served rows" inst.w.name

let pick_view inst rng =
  let x = Prng.float rng 1.0 in
  let rec go acc = function
    | [] -> fst (List.hd (List.rev inst.users))
    | ((d : Workloads.view_def), _) :: rest ->
        let acc = acc +. d.read_share in
        if x < acc then d else go acc rest
  in
  go 0. inst.users


(* [on_idle] runs at the end of every iteration, when no span is open.

   The clock is virtual. It runs on the process CPU time while the loop
   works; where rolld would sleep because nothing is due, it jumps
   straight to the next due time instead (once the schedule is over, by
   rolld's 1 ms wait). So a latency is the engine's CPU time from an
   operation's due time to its result, queueing behind earlier work
   included, but never a late wake-up from sleep or a slice the host gave
   another tenant: on a shared host those set the tail of a wall-clock
   open loop and change from run to run. The clock also stops while the
   gate re-checks a sampled read against the oracle.

   [between] runs, clock stopped, each time the clock crosses one of
   [slices - 1] evenly spaced points of the schedule, so other work can
   be spread over the whole loop. *)
let open_loop ?(on_idle = ignore) ?(slices = 1) ?(between = ignore) inst
    tally ~seconds ~seed =
  let w = inst.w in
  (* The read stream draws from its own generator, so the base
     transactions a seed produces do not depend on the read mix. *)
  let rng = Prng.create ~seed:((seed * 7919) + 1) in
  let n_txn = int_of_float (w.txn_rate *. seconds) in
  let n_read = int_of_float (w.read_rate *. seconds) in
  let check_every = max 1 (n_read / read_checks) in
  let stopped = ref 0. and skipped = ref 0. and paused = ref 0. in
  let clock () = cpu () -. !stopped +. !skipped in
  let wall0 = Unix.gettimeofday () in
  let t0 = clock () in
  let txn_due i = t0 +. (float_of_int i /. w.txn_rate) in
  (* Commits are due on a fixed period. Read j is due at a seeded
     uniform point of the j-th read period, so reads fall at every phase
     of the commit period instead of in lockstep with it: which reads
     wait behind a drain then varies smoothly with the drain's length. *)
  let jitter = Prng.create ~seed:((seed * 7919) + 2) in
  let read_at = Array.init n_read (fun _ -> Prng.float jitter 1.0) in
  let read_due j = t0 +. ((float_of_int j +. read_at.(j)) /. w.read_rate) in
  let visible = ref [] and reads = ref [] and late = ref [] in
  let invisible = Queue.create () in
  let pending = ref [] in
  let next_txn = ref 0 and next_read = ref 0 in
  let rows_encoded = ref 0 and bytes_encoded = ref 0 in
  let served = ref 0 and queued = ref 0 and checked = ref 0 in
  let backlog_end = ref (-1) in
  let idle = ref 0. in
  let iter = ref 0 in
  let schedule_done () = !next_txn >= n_txn && !next_read >= n_read in
  let finished () =
    schedule_done () && Queue.is_empty invisible && !pending = []
  in
  let next_due () =
    if schedule_done () then clock () +. 0.001
    else
      Float.min
        (if !next_txn < n_txn then txn_due !next_txn else infinity)
        (if !next_read < n_read then read_due !next_read else infinity)
  in
  let deadline = ref infinity in
  let next_slice = ref 1 in
  let slice_at k = t0 +. (seconds *. float_of_int k /. float_of_int slices) in
  while (not (finished ())) && clock () < !deadline do
    incr iter;
    let now = clock () in
    let committed = ref 0 in
    while !next_txn < n_txn && txn_due !next_txn <= now do
      tally.attempted <- tally.attempted + 1;
      let due = txn_due !next_txn in
      let csn = commit inst in
      late := (clock () -. due) :: !late;
      Queue.push (csn, due) invisible;
      incr next_txn;
      incr committed
    done;
    let items = maintain inst tally in
    (* A commit is visible once the drain that moved every user view's
       hwm past it returns; reads served later in the iteration do not
       delay it. *)
    let hwm = min_hwm inst in
    let drained = clock () in
    let rec settle () =
      match Queue.peek_opt invisible with
      | Some (csn, due) when csn <= hwm ->
          ignore (Queue.pop invisible);
          visible := (drained -. due) :: !visible;
          settle ()
      | _ -> ()
    in
    settle ();
    let now = clock () in
    let submitted = ref 0 in
    while !next_read < n_read && read_due !next_read <= now do
      let j = !next_read in
      let d = pick_view inst rng in
      let name = C.View.name d.view in
      let line =
        if Prng.chance rng Workloads.fresh_frac then
          Printf.sprintf "READ %s FRESH" name
        else
          let back = Prng.int rng (Workloads.at_window + 1) in
          Printf.sprintf "READ %s AT %d" name
            (max 0 (Database.now inst.db - back))
      in
      let due = read_due j in
      tally.attempted <- tally.attempted + 1;
      let ticket =
        span inst "bench.submit" (fun () ->
            match S.Protocol.parse_request line with
            | Ok request -> S.Engine.submit inst.engine request
            | Error e -> gate "%s: request %S did not parse: %s" w.name line e)
      in
      late := (clock () -. due) :: !late;
      pending :=
        { due; ticket; submit_iter = !iter;
          sample = j mod check_every = 0 }
        :: !pending;
      incr next_read;
      incr submitted
    done;
    span inst "bench.pump" (fun () ->
        span_attr inst "resolved" (S.Engine.pump inst.engine));
    let still = ref [] in
    List.iter
      (fun p ->
        match S.Engine.poll p.ticket with
        | None -> still := p :: !still
        | Some response ->
            let line =
              span inst "bench.encode" (fun () ->
                  S.Protocol.encode_response response)
            in
            reads := (clock () -. p.due) :: !reads;
            if p.submit_iter <> !iter then incr queued;
            (match response with
            | S.Protocol.Rows { rows; _ } ->
                incr served;
                rows_encoded := !rows_encoded + List.length rows;
                bytes_encoded := !bytes_encoded + String.length line;
                if p.sample then begin
                  let c = cpu () and t = Unix.gettimeofday () in
                  check_read inst line;
                  incr checked;
                  stopped := !stopped +. (cpu () -. c);
                  paused := !paused +. (Unix.gettimeofday () -. t)
                end
            | _ -> tally.rejected <- tally.rejected + 1))
      (List.rev !pending);
    pending := List.rev !still;
    if schedule_done () && !backlog_end < 0 then begin
      backlog_end := Queue.length invisible + List.length !pending;
      deadline := clock () +. drain_grace
    end;
    if !committed = 0 && items = 0 && !submitted = 0 then begin
      let now = clock () in
      let wake = Float.max now (next_due ()) in
      skipped := !skipped +. (wake -. now);
      idle := !idle +. (wake -. now)
    end;
    while !next_slice < slices && clock () >= slice_at !next_slice do
      incr next_slice;
      let c = cpu () and t = Unix.gettimeofday () in
      between ();
      stopped := !stopped +. (cpu () -. c);
      paused := !paused +. (Unix.gettimeofday () -. t)
    done;
    on_idle ()
  done;
  (* Anything left after the grace period is a failure, never a sample. *)
  tally.unresolved <-
    tally.unresolved + Queue.length invisible + List.length !pending;
  let arr l = Array.of_list (List.rev l) in
  {
    txns = n_txn;
    visible = arr !visible;
    reads = arr !reads;
    late = arr !late;
    backlog_end = max 0 !backlog_end;
    rows_encoded = !rows_encoded;
    bytes_encoded = !bytes_encoded;
    reads_served = !served;
    queued = !queued;
    checked = !checked;
    paused = !paused;
    idle = !idle;
    elapsed = clock () -. t0;
    wall = Unix.gettimeofday () -. wall0;
  }

(* --- the final gate --- *)

(* Refresh every user view to the final commit and compare it with the
   oracle's recomputation at that time. *)
let final_gate inst =
  let last = Database.now inst.db in
  C.Service.refresh_all inst.service;
  List.iter
    (fun ((d : Workloads.view_def), ctl) ->
      let at = C.Controller.as_of ctl in
      if at < last then
        gate "%s: view %s refreshed to %d, before the last commit %d"
          inst.w.name (C.View.name d.view) at last;
      if not (Relation.equal (C.Controller.contents ctl) (oracle_rows inst d at))
      then
        gate "%s: view %s differs from the oracle at %d" inst.w.name
          (C.View.name d.view) at)
    inst.users
