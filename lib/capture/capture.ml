open Roll_storage
module Delta = Roll_delta.Delta
module Time = Roll_delta.Time

let log_src = Logs.Src.create "roll.capture" ~doc:"log capture (DPropR analogue)"

module Log = (val Logs.src_log log_src)

type t = {
  db : Database.t;
  deltas : (string, Delta.t) Hashtbl.t;
  uow : Uow.t;
  mutable cursor : int;  (** next WAL position to read *)
  mutable hwm : Time.t;
  mutable fault : Roll_util.Fault.t;
  mutable obs : Roll_obs.Obs.t;
}

let create db =
  {
    db;
    deltas = Hashtbl.create 8;
    uow = Uow.create ();
    cursor = 0;
    hwm = Time.origin;
    fault = Roll_util.Fault.none;
    obs = Roll_obs.Obs.disabled ();
  }

let set_fault t fault = t.fault <- fault

let set_obs t obs = t.obs <- obs

let attach t ~table =
  if Hashtbl.mem t.deltas table then
    invalid_arg ("Capture.attach: already attached: " ^ table);
  let tbl = Database.table t.db table in
  (* Refuse to attach if changes to this table are already behind the
     cursor: they would never be captured and the delta would be silently
     wrong. Logged changes the cursor has not reached yet are fine — a
     restarted capture process (cursor at 0) re-reads the whole log, which
     is exactly how crash recovery rebuilds the delta tables. *)
  let wal = Database.wal t.db in
  let missed = ref false in
  (* Positions below [Wal.first_pos] were reclaimed; their effects are in
     the applied base state, which a fresh attach starts from anyway. *)
  for pos = Wal.first_pos wal to t.cursor - 1 do
    if
      List.exists
        (fun (c : Wal.change) -> String.equal c.table table)
        (Wal.get wal pos).changes
    then missed := true
  done;
  if !missed then
    invalid_arg
      ("Capture.attach: cursor already passed logged changes of: " ^ table);
  Hashtbl.add t.deltas table (Delta.create (Table.schema tbl))

let attached t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.deltas []
  |> List.sort String.compare

let delta t ~table =
  match Hashtbl.find_opt t.deltas table with
  | Some d -> d
  | None -> raise Not_found

let window_cursor t ~table ~lo ~hi =
  if hi > t.hwm then
    invalid_arg
      (Printf.sprintf
         "Capture.window_cursor: window (%d,%d] beyond capture high-water mark %d"
         lo hi t.hwm);
  Delta.window_cursor (delta t ~table) ~lo ~hi

let uow t = t.uow

let capture_record t (record : Wal.record) =
  Roll_util.Fault.hit t.fault "capture.record";
  let relevant = ref (record.marker <> None) in
  List.iter
    (fun (c : Wal.change) ->
      match Hashtbl.find_opt t.deltas c.table with
      | None -> ()
      | Some d ->
          relevant := true;
          Delta.append d c.tuple ~count:c.count ~ts:record.csn)
    record.changes;
  if !relevant then
    Uow.record t.uow
      { Uow.txn_id = record.txn_id; csn = record.csn; wall = record.wall };
  t.hwm <- record.csn

let advance ?max_records t =
  let wal = Database.wal t.db in
  (* A reclaimed prefix can only be below every consumer's horizon, so a
     cursor inside it (fresh capture on a reopened store) skips forward:
     those records' effects are part of the base state, not the delta. *)
  if t.cursor < Wal.first_pos wal then begin
    t.cursor <- Wal.first_pos wal;
    t.hwm <- Time.max t.hwm (Wal.first_pos wal)
  end;
  let stop =
    match max_records with
    | None -> Wal.length wal
    | Some n -> min (Wal.length wal) (t.cursor + n)
  in
  let from = t.cursor in
  let loop () =
    while t.cursor < stop do
      capture_record t (Wal.get wal t.cursor);
      t.cursor <- t.cursor + 1
    done
  in
  (* Count whatever was captured even if a fault crashed the loop midway. *)
  let note () =
    if t.cursor > from then begin
      if Roll_obs.Obs.enabled t.obs then
        Roll_obs.Metrics.add
          (Roll_obs.Metrics.counter
             (Roll_obs.Obs.metrics t.obs)
             ~help:"Log records captured into delta tables"
             "roll_capture_records_total")
          (float_of_int (t.cursor - from));
      Log.debug (fun m ->
          m "captured %d records, hwm=%d lag=%d" (t.cursor - from) t.hwm
            (Wal.length wal - t.cursor))
    end
  in
  Fun.protect ~finally:note (fun () ->
      (* Idle polls (nothing past the cursor) stay span-free so traces of
         long drains are not drowned in empty capture steps. *)
      if stop > from && Roll_obs.Obs.tracing t.obs then
        Roll_obs.Trace.with_span
          (Roll_obs.Obs.trace t.obs)
          ~attrs:[ ("records", Roll_obs.Trace.Int (stop - from)) ]
          "capture.advance" loop
      else loop ())

let hwm t = t.hwm

let lag t = Wal.length (Database.wal t.db) - t.cursor

(* Read-only scan of the uncaptured WAL suffix. Freshness tests (the
   auxiliary-view substitution in the executor) need to know whether the
   table changed *at all* since a point in time; the delta only answers for
   the captured prefix, this answers for the rest. The cursor is usually at
   the log's end (capture advances before every plain query, and drains
   advance it ahead of any step whose window it does not cover yet), so
   the common case inspects zero records. *)
let pending_changes t ~table =
  let wal = Database.wal t.db in
  let stop = Wal.length wal in
  let rec scan pos =
    pos < stop
    && (List.exists
          (fun (c : Wal.change) -> String.equal c.table table)
          (Wal.get wal pos).changes
       || scan (pos + 1))
  in
  scan (max t.cursor (Wal.first_pos wal))
