open Roll_relation
module Time = Roll_delta.Time
module Delta = Roll_delta.Delta

type t = {
  ctx : Ctx.t;  (** for the live fault handle *)
  delta : Delta.t;
  store : Relation.t;
  mutable as_of : Time.t;
}

let create_empty (ctx : Ctx.t) ~t_initial =
  {
    ctx;
    delta = ctx.out;
    store = Relation.create (View.output_schema ctx.view);
    as_of = t_initial;
  }

let create_materialized (ctx : Ctx.t) =
  let store, t_exec = Executor.materialize ctx in
  { ctx; delta = ctx.out; store; as_of = t_exec }

let create_restored (ctx : Ctx.t) ~contents ~as_of =
  if not (Roll_relation.Schema.equal (Relation.schema contents) (View.output_schema ctx.view))
  then invalid_arg "Apply.create_restored: schema mismatch";
  { ctx; delta = ctx.out; store = Relation.copy contents; as_of }

let contents t = t.store

let as_of t = t.as_of

let roll_to t ~hwm target =
  if target < t.as_of then
    invalid_arg "Apply.roll_to: target earlier than the view (use roll_back_to)";
  if target > hwm then
    invalid_arg
      (Printf.sprintf "Apply.roll_to: target %d beyond high-water mark %d"
         target hwm);
  let roll () =
    Roll_util.Fault.hit t.ctx.Ctx.fault "apply.roll";
    Delta.apply_window t.delta ~lo:t.as_of ~hi:target t.store;
    t.as_of <- target
  in
  if Roll_obs.Obs.tracing t.ctx.Ctx.obs then
    Roll_obs.Trace.with_span
      (Roll_obs.Obs.trace t.ctx.Ctx.obs)
      ~attrs:
        [
          ("lo", Roll_obs.Trace.Int t.as_of);
          ("hi", Roll_obs.Trace.Int target);
          ( "rows",
            Roll_obs.Trace.Int
              (Delta.window_count t.delta ~lo:t.as_of ~hi:target) );
        ]
      "apply.roll" roll
  else roll ()

let roll_back_to t target =
  if target > t.as_of then invalid_arg "Apply.roll_back_to: target is ahead";
  Delta.window_iter t.delta ~lo:target ~hi:t.as_of (fun (row : Delta.row) ->
      Relation.add t.store row.tuple (-row.count));
  t.as_of <- target

(* The window between two times as sorted rows: (lo, hi] as it is, or
   negated when rolling back. *)
let window_rows t ~lo ~hi ~sign =
  let rows = Array.make (Delta.window_count t.delta ~lo ~hi) ([||], 0) in
  let i = ref 0 in
  Delta.window_iter t.delta ~lo ~hi (fun (row : Delta.row) ->
      rows.(!i) <- (row.tuple, sign * row.count);
      incr i);
  Sorted_rows.consolidate rows

let roll_rows t ~hwm rows ~from time =
  if time > hwm || from > hwm then
    invalid_arg "Apply.roll_rows: time beyond high-water mark";
  let delta =
    if time >= from then window_rows t ~lo:from ~hi:time ~sign:1
    else window_rows t ~lo:time ~hi:from ~sign:(-1)
  in
  Sorted_rows.merge rows delta

let view_at t ~hwm time =
  if time > hwm then invalid_arg "Apply.view_at: time beyond high-water mark";
  roll_rows t ~hwm (Relation.sorted t.store) ~from:t.as_of time

let prune_applied t = Delta.prune t.delta ~upto:t.as_of
