module Time = Roll_delta.Time
module Database = Roll_storage.Database
module Capture = Roll_capture.Capture
module Delta = Roll_delta.Delta

(* A forward window that is provably empty (fully captured and containing
   no change rows) contributes nothing, and neither does its compensation:
   every query derived from it contains the empty window. Skipping it keeps
   quiet relations free and makes propagation processes able to go idle
   instead of chasing their own marker commits. *)
let window_known_empty (ctx : Ctx.t) i ~lo ~hi =
  ctx.skip_empty_windows
  && hi <= Capture.hwm ctx.capture
  &&
  let table = View.source_table ctx.view i in
  Delta.window_count (Capture.delta ctx.capture ~table) ~lo ~hi = 0

(* The net effect of the skipped forward query plus its compensation is the
   query evaluated at the intended vector time; record it as a virtual box
   so the geometry trace still tiles exactly. *)
let record_virtual_box (ctx : Ctx.t) ~sign (q : Pquery.t) tau_old i t_new =
  match ctx.geometry with
  | None -> ()
  | Some g ->
      let spans =
        Array.mapi
          (fun j term ->
            match term with
            | Pquery.Win { lo; hi } -> Geometry.Window (lo, hi)
            | Pquery.Base ->
                if j = i then Geometry.Window (tau_old.(i), t_new)
                else if j < i then Geometry.Full_upto tau_old.(j)
                else Geometry.Full_upto t_new)
          q
      in
      Geometry.record ~label:"(skipped empty window)" g ~sign spans

(* ------------------------------------------------------------------ *)
(* Memoization                                                         *)

(* The memo is sound because the net result of a compensated computation is
   a mathematically fixed timed delta: the windows it reads are fixed row
   sets (their [hi] is at or below the capture high-water mark) and
   base-table history is immutable, so the appended rows depend only on the
   canonical query, the time vector at Base positions, the target time and
   the sign — never on the wall-clock moments the queries physically
   execute. Components of the vector at window positions are normalized to
   0: they are never read by the recursion, and callers pass differing
   unused values there. *)
let memo_tau (q : Pquery.t) tau =
  Array.mapi
    (fun i v -> match q.(i) with Pquery.Win _ -> 0 | Pquery.Base -> v)
    tau

let memo_key (ctx : Ctx.t) q tau t_new sign =
  {
    Memo.signature = Pquery.signature ctx.view ~rule:ctx.timestamp_rule q;
    tau = memo_tau q tau;
    t_new;
    sign;
  }

(* A memo hit replays literal rows and records no geometry boxes, so the
   memo stands down whenever a geometry trace is attached (coverage
   checking needs the real brick structure). *)
let memo_active (ctx : Ctx.t) = Memo.enabled ctx.memo && ctx.geometry = None

let replay (ctx : Ctx.t) rows =
  Counters.incr ctx.counters Counters.memo_hits;
  Array.iter
    (fun (r : Delta.row) ->
      ctx.on_emit ~description:"(memo replay)" r.Delta.tuple r.Delta.count
        r.Delta.ts;
      Delta.append_row ctx.out r)
    rows

(* Attribute on the enclosing "compute_delta.node" span, so memoized
   replays are distinguishable in a trace. *)
let note_memo (ctx : Ctx.t) outcome =
  if Roll_obs.Obs.tracing ctx.obs then
    Roll_obs.Trace.add_attr
      (Roll_obs.Obs.trace ctx.obs)
      "memo"
      (Roll_obs.Trace.Str outcome)

let with_memo (ctx : Ctx.t) key f =
  match Memo.find ctx.memo key with
  | Some rows ->
      note_memo ctx "hit";
      replay ctx rows
  | None ->
      note_memo ctx "miss";
      Counters.incr ctx.counters Counters.memo_misses;
      let from = Delta.length ctx.out in
      f ();
      Memo.add ~owner:ctx.memo_owner ctx.memo key
        (Delta.sub ctx.out ~pos:from ~len:(Delta.length ctx.out - from))

(* One span per ComputeDelta node — the memo consult/fill unit. The span's
   depth is the compensation recursion depth; sign distinguishes forward
   work from compensation. *)
let node_span (ctx : Ctx.t) ~sign (q : Pquery.t) f =
  if Roll_obs.Obs.tracing ctx.obs then
    Roll_obs.Trace.with_span
      (Roll_obs.Obs.trace ctx.obs)
      ~attrs:
        [
          ("query", Roll_obs.Trace.Str (Pquery.describe ctx.view q));
          ("sign", Roll_obs.Trace.Int sign);
        ]
      "compute_delta.node" f
  else f ()

(* ------------------------------------------------------------------ *)
(* The recursion                                                       *)

(* [run_body] is the original Figure 4 loop; [run] and [eval_at] wrap it
   with the memo consult/fill. The recursion routes every execute +
   compensate pair through [eval_at], whose net effect — "q' as of the
   intended vector v" — is the deterministic unit worth sharing. *)
let rec run_body ~sign (ctx : Ctx.t) (q : Pquery.t) tau_old t_new =
  if ctx.auto_capture && ctx.frozen_exec = None then
    Capture.advance ctx.capture;
  Roll_util.Fault.hit ctx.fault "compensate.enter";
  Counters.incr ctx.counters Counters.compute_delta_calls;
  let n = Array.length q in
  for i = 0 to n - 1 do
    match q.(i) with
    | Pquery.Win _ -> ()
    | Pquery.Base ->
        if tau_old.(i) < t_new then begin
          if window_known_empty ctx i ~lo:tau_old.(i) ~hi:t_new then
            record_virtual_box ctx ~sign q tau_old i t_new
          else begin
            let q' =
              Pquery.replace q i (Pquery.Win { lo = tau_old.(i); hi = t_new })
            in
            (* Per Equation 2's convention, tables left of the delta were
               intended at their old times, tables right of it at t_new;
               [eval_at] executes now and compensates back to that
               vector. *)
            let v =
              Array.init n (fun j -> if j < i then tau_old.(j) else t_new)
            in
            eval_at ~sign ctx q' v
          end
        end
  done

and eval_at ?(sign = 1) ?on_executed (ctx : Ctx.t) (q : Pquery.t) v =
  if Array.length v <> Array.length q then
    invalid_arg "ComputeDelta.eval_at: timestamp vector arity mismatch";
  if Pquery.n_deltas q = 0 then
    invalid_arg "ComputeDelta.eval_at: query has no window term";
  let go () =
    let t_exec = Executor.execute ctx ~sign q in
    (match on_executed with Some f -> f () | None -> ());
    if Pquery.has_base q then run_body ~sign:(-sign) ctx q v t_exec
  in
  node_span ctx ~sign q (fun () ->
      if memo_active ctx then
        (* t_new = -1 marks eval-at entries; [run] keys use t_new >= 0, so
           the two families can never collide. *)
        with_memo ctx (memo_key ctx q v (-1) sign) go
      else go ())

let run ?(sign = 1) (ctx : Ctx.t) (q : Pquery.t) tau_old t_new =
  if Array.length tau_old <> Array.length q then
    invalid_arg "ComputeDelta: timestamp vector arity mismatch";
  if t_new > Database.now ctx.db then
    invalid_arg "ComputeDelta: target time has not elapsed yet";
  let go () = run_body ~sign ctx q tau_old t_new in
  node_span ctx ~sign q (fun () ->
      if memo_active ctx then
        with_memo ctx (memo_key ctx q tau_old t_new sign) go
      else go ())

let view_delta (ctx : Ctx.t) ~lo ~hi =
  let n = View.n_sources ctx.view in
  run ctx (Pquery.all_base n) (Time.Vector.const n lo) hi
