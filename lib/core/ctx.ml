open Roll_storage
open Roll_capture

type source = {
  tables : Table.t list;
  cols : int array;
  prefix : string;
}

type t = {
  db : Database.t;
  capture : Capture.t;
  view : View.t;
  out : Roll_delta.Delta.t;
  stats : Stats.t;
  mutable geometry : Geometry.t option;
  mutable on_execute : unit -> unit;
  mutable on_emit :
    description:string -> Roll_relation.Tuple.t -> int -> Roll_delta.Time.t -> unit;
  mutable auto_capture : bool;
  mutable skip_empty_windows : bool;
  mutable timestamp_rule : [ `Min | `Max ];
  mutable last_report : Exec.report option;
  mutable fault : Roll_util.Fault.t;
  mutable memo : Memo.t;
  mutable obs : Roll_obs.Obs.t;
  mutable frozen_exec : Roll_delta.Time.t option;
  mutable memo_owner : int;
  mutable partial : (peek:bool -> int -> source option) option;
}

let create ?(geometry = false) ?obs ?t_initial db capture view =
  let attached = Capture.attached capture in
  for i = 0 to View.n_sources view - 1 do
    let table = View.source_table view i in
    if not (List.mem table attached) then
      invalid_arg ("Ctx.create: table not attached to capture: " ^ table)
  done;
  let origin =
    match t_initial with Some t -> t | None -> Database.now db
  in
  {
    db;
    capture;
    view;
    out = Roll_delta.Delta.create (View.output_schema view);
    stats = Stats.create ();
    geometry =
      (if geometry then
         Some (Geometry.create ~n:(View.n_sources view) ~origin)
       else None);
    on_execute = (fun () -> ());
    on_emit = (fun ~description:_ _ _ _ -> ());
    auto_capture = true;
    skip_empty_windows = true;
    timestamp_rule = `Min;
    last_report = None;
    fault = Roll_util.Fault.none;
    memo = Memo.create ~enabled:false ();
    obs = (match obs with Some o -> o | None -> Roll_obs.Obs.disabled ());
    frozen_exec = None;
    memo_owner = 0;
    partial = None;
  }
