open Roll_relation
module Time = Roll_delta.Time
module Delta = Roll_delta.Delta
module Database = Roll_storage.Database
module Capture = Roll_capture.Capture

let log_src = Logs.Src.create "roll.executor" ~doc:"propagation-query execution"

module Log = (val Logs.src_log log_src)

(* One pipeline input per query term: base tables are probed or scanned
   lazily through cursors; delta windows stream out of the capture logs. *)
let source_of_term (ctx : Ctx.t) i = function
  | Pquery.Base ->
      let table_name = View.source_table ctx.view i in
      Exec.source_of_table (Database.table ctx.db table_name)
  | Pquery.Win { lo; hi } ->
      if lo > hi then invalid_arg "Executor: empty window bounds reversed";
      if hi > Capture.hwm ctx.capture then
        invalid_arg
          (Printf.sprintf
             "Executor: window (%d,%d] beyond capture high-water mark %d" lo hi
             (Capture.hwm ctx.capture));
      let table = View.source_table ctx.view i in
      Exec.source_of_delta_window
        ~name:("\xce\x94" ^ table)
        (Capture.delta ctx.capture ~table)
        ~lo ~hi

(* ------------------------------------------------------------------ *)
(* Derived-partial substitution                                        *)

(* A Base term whose source position has a fresh derived partial (the
   [ctx.partial] closure, installed by the Partial registry) reads the
   union of the partial's part mirrors instead of the base relation. The
   parts hold the per-relation partial π(σ(R_j)) — single-source atoms
   pre-applied, only the columns the join and the projection need
   retained — narrowed into one auxiliary mirror, or split by key into a
   light residual plus per-heavy-key partials. The query is rewritten to
   match: pre-applied atoms are dropped, every other column reference is
   remapped through the mirrors' column map. Because fresh parts equal the
   partial applied to the base table's current committed state, the
   rewritten query emits bit-identical rows to the original, and stale
   partials simply resolve to the base path. *)
type resolved = {
  sources : Exec.source array;
  predicate : Roll_relation.Predicate.t;
  project : Roll_relation.Tuple.t array -> Roll_relation.Tuple.t;
  substituted : int;  (** how many Base terms read a derived partial *)
}

let resolve (ctx : Ctx.t) (q : Pquery.t) =
  let module P = Roll_relation.Predicate in
  if Array.length q <> View.n_sources ctx.view then
    invalid_arg "Executor.evaluate: query arity mismatch";
  let view = ctx.view in
  let subs =
    Array.mapi
      (fun i term ->
        match term with
        | Pquery.Win _ -> None
        | Pquery.Base ->
            Option.bind ctx.partial (fun lookup -> lookup ~peek:false i))
      q
  in
let sources =
    Array.mapi
      (fun i term ->
        match subs.(i) with
        | Some (s : Ctx.source) ->
            Exec.source_of_parts
              ~name:(s.Ctx.prefix ^ View.source_table view i)
              s.Ctx.tables
        | None -> source_of_term ctx i term)
      q
  in
  if Array.for_all Option.is_none subs then
    {
      sources;
      predicate = View.predicate view;
      project = View.project_bindings view;
      substituted = 0;
    }
  else begin
    let remap_col (c : P.col) =
      match subs.(c.source) with
      | None -> c
      | Some (s : Ctx.source) ->
          let cols = s.Ctx.cols in
          let rec find k =
            if k >= Array.length cols then
              invalid_arg
                "Executor: substituted mirror is missing a referenced column"
            else if cols.(k) = c.P.column then { c with P.column = k }
            else find (k + 1)
          in
          find 0
    in
    let rec remap_operand = function
      | P.Col c -> P.Col (remap_col c)
      | P.Const _ as o -> o
      | P.Neg e -> P.Neg (remap_operand e)
      | P.Add (a, b) -> P.Add (remap_operand a, remap_operand b)
      | P.Sub (a, b) -> P.Sub (remap_operand a, remap_operand b)
      | P.Mul (a, b) -> P.Mul (remap_operand a, remap_operand b)
      | P.Div (a, b) -> P.Div (remap_operand a, remap_operand b)
    in
    (* Atoms local to a substituted source were applied when the partial
       was derived; re-applying them is impossible anyway (their pure-filter
       columns are not in the mirror). Everything else survives, remapped. *)
    let keep atom =
      match P.sources_of_atom atom with
      | [ j ] -> Option.is_none subs.(j)
      | _ -> true
    in
    let predicate =
      View.predicate view
      |> List.filter keep
      |> List.map (function
           | P.Join (a, b) -> P.Join (remap_col a, remap_col b)
           | P.Cmp (op, x, y) -> P.Cmp (op, remap_operand x, remap_operand y))
    in
    let ops =
      List.map (fun (_, op) -> remap_operand op) (View.projection view)
    in
    let project bindings =
      Array.of_list (List.map (P.eval_operand bindings) ops)
    in
    {
      sources;
      predicate;
      project;
      substituted =
        Array.fold_left
          (fun n s -> if Option.is_some s then n + 1 else n)
          0 subs;
    }
  end

let plan_parts (ctx : Ctx.t) (q : Pquery.t) =
  let r = resolve ctx q in
  let infos = Array.map (fun (s : Exec.source) -> s.info) r.sources in
  (r, Planner.plan r.predicate infos)

let plan_of ctx q = snd (plan_parts ctx q)

(* Per-input read counts in input order (the footprint shape Stats and the
   contention simulator expect). *)
let reads_of (sources : Exec.source array) (report : Exec.report) =
  let reads = Array.make (Array.length sources) 0 in
  Array.iter
    (fun (st : Exec.step_stat) ->
      reads.(st.source) <- reads.(st.source) + st.rows_in)
    report.steps;
  Array.to_list
    (Array.mapi (fun i r -> (sources.(i).Exec.info.Planner.name, r)) reads)

let record_report (ctx : Ctx.t) (report : Exec.report) =
  ctx.last_report <- Some report;
  let t = Exec.totals report in
  Stats.record_exec ctx.stats ~scanned:t.scanned ~probed:t.probed
    ~hash_builds:t.hash_builds ~wall:t.wall;
  Array.iter
    (fun (st : Exec.step_stat) ->
      let scanned, probed =
        match st.access with
        | Planner.Index_probe _ -> (0, st.rows_in)
        | Planner.Scan | Planner.Hash_join _ | Planner.Nested_loop ->
            (st.rows_in, 0)
      in
      Stats.record_resource ctx.stats st.resource ~scanned ~probed
        ~wall:st.wall)
    report.steps

(* Synthesize one "exec.operator" span per plan step from the finished
   report, parented under whichever span is open (the "exec.query" span on
   the maintenance path). Steps are laid out back to back by exclusive wall
   time from [t0] — a visual decomposition of the drain, not the
   interleaved pull order, which would cost a timestamp pair per row. *)
let record_operator_spans (ctx : Ctx.t) ~t0 (report : Exec.report) =
  let trace = Roll_obs.Obs.trace ctx.obs in
  let at = ref t0 in
  Array.iter
    (fun (st : Exec.step_stat) ->
      let start = !at in
      let stop = start +. Float.max 0. st.wall in
      at := stop;
      Roll_obs.Trace.record_complete trace ~start ~stop
        ~attrs:
          [
            ("resource", Roll_obs.Trace.Str st.resource);
            ("access", Roll_obs.Trace.Str (Planner.access_name st.access));
            ("est_rows", Roll_obs.Trace.Float st.est_rows);
            ("actual_rows", Roll_obs.Trace.Int st.actual_rows);
            ("rows_in", Roll_obs.Trace.Int st.rows_in);
            ("hash_builds", Roll_obs.Trace.Int st.hash_builds);
          ]
        "exec.operator")
    report.steps

let evaluate_parts (ctx : Ctx.t) (q : Pquery.t) =
  let r, plan = plan_parts ctx q in
  let sources = r.sources in
  let out = ref [] in
  (* The build cache shares the memo's enablement and drain lifetime:
     standalone contexts (disabled memo) run the pipeline exactly as
     before sharing existed. *)
  let cache =
    if Memo.enabled ctx.memo then Some (Memo.exec_cache ctx.memo) else None
  in
  let hits_before =
    match cache with Some c -> Exec.cache_hits c | None -> 0
  in
  let now =
    if Roll_obs.Obs.enabled ctx.obs then
      Some (fun () -> Roll_obs.Obs.now ctx.obs)
    else None
  in
  let tracing = Roll_obs.Obs.tracing ctx.obs in
  let t0 = if tracing then Roll_obs.Obs.now ctx.obs else 0. in
  let report =
    Exec.run ?cache ?now ~rule:ctx.Ctx.timestamp_rule ~sources ~plan
      ~emit:(fun bindings count ts ->
        let tuple = r.project bindings in
        (* Base rows carry the no-timestamp sentinel; it is neutral under
           the combination rule but must never escape into a view delta
           (Section 4.2's min-of-contributors convention): a row produced
           purely from base rows is part of the original content and is
           stamped with the origin time. *)
        let ts = if ts = Cursor.no_ts then Time.origin else ts in
        out := (tuple, count, ts) :: !out)
      ()
  in
  record_report ctx report;
  if tracing then record_operator_spans ctx ~t0 report;
  (match cache with
  | Some c -> Stats.add_shared_builds ctx.stats (Exec.cache_hits c - hits_before)
  | None -> ());
  (List.rev !out, sources, report, r.substituted)

let evaluate (ctx : Ctx.t) (q : Pquery.t) =
  let rows, sources, report, _substituted = evaluate_parts ctx q in
  (rows, reads_of sources report)

let explain (ctx : Ctx.t) (q : Pquery.t) =
  let r, plan = plan_parts ctx q in
  let infos = Array.map (fun (s : Exec.source) -> s.info) r.sources in
  Pquery.describe ctx.view q ^ "\n" ^ Planner.describe infos plan

let explain_analyze (ctx : Ctx.t) (q : Pquery.t) =
  let _rows, _sources, report, _substituted = evaluate_parts ctx q in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Pquery.describe ctx.view q);
  Buffer.add_char buf '\n';
  Array.iter
    (fun (st : Exec.step_stat) ->
      let keys =
        match st.access with
        | Planner.Hash_join pairs ->
            Printf.sprintf " on columns [%s]"
              (String.concat "," (List.map (fun (_, c) -> string_of_int c) pairs))
        | Planner.Index_probe (_, columns) ->
            Printf.sprintf " on columns [%s]"
              (String.concat "," (List.map string_of_int columns))
        | Planner.Scan | Planner.Nested_loop -> ""
      in
      let builds =
        if st.hash_builds > 0 then
          Printf.sprintf ", %d hash build%s" st.hash_builds
            (if st.hash_builds > 1 then "s" else "")
        else ""
      in
      Buffer.add_string buf
        (Printf.sprintf
           "  %s %s%s: est %.0f rows, actual %d rows, read %d%s, %.3f ms\n"
           (Planner.access_name st.access)
           st.resource keys st.est_rows st.actual_rows st.rows_in builds
           (st.wall *. 1000.)))
    report.steps;
  Buffer.add_string buf
    (Printf.sprintf "  => %d rows emitted in %.3f ms\n" report.emitted
       (report.total_wall *. 1000.));
  Buffer.contents buf

let execute_body (ctx : Ctx.t) ~sign (q : Pquery.t) =
  ctx.on_execute ();
  (* Frozen-clock mode: the wave already advanced capture before
     dispatching, and base tables do not change mid-wave, so there is
     nothing new to capture. *)
  if ctx.auto_capture && ctx.frozen_exec = None then
    Capture.advance ctx.capture;
  Roll_util.Fault.hit ctx.fault "exec.query";
  let rows, sources, report, substituted = evaluate_parts ctx q in
  let reads = reads_of sources report in
  let description = Pquery.describe ctx.view q in
  let tag = (if sign < 0 then "-" else "+") ^ description in
  if Roll_obs.Obs.tracing ctx.obs then begin
    let trace = Roll_obs.Obs.trace ctx.obs in
    Roll_obs.Trace.add_attr trace "query" (Roll_obs.Trace.Str tag);
    Roll_obs.Trace.add_attr trace "rows" (Roll_obs.Trace.Int (List.length rows));
    if substituted > 0 then
      Roll_obs.Trace.add_attr trace "aux_sources"
        (Roll_obs.Trace.Int substituted)
  end;
  Roll_util.Fault.hit ctx.fault "exec.emit";
  List.iter
    (fun (tuple, count, ts) ->
      ctx.on_emit ~description:tag tuple (sign * count) ts;
      Delta.append ctx.out tuple ~count:(sign * count) ~ts)
    rows;
  Roll_util.Fault.hit ctx.fault "exec.marker";
  (* In frozen-clock mode the query's execution time is the wave's frozen
     instant: no marker transaction is committed (workers must not touch
     the single-writer database clock), and because base tables are frozen
     for the wave's duration, every window evaluates to the same row set
     it would at any physical execution time. *)
  let t_exec =
    match ctx.frozen_exec with
    | Some t -> t
    | None -> Database.commit_marker ctx.db ~tag
  in
  Log.debug (fun m ->
      m "executed %s at t=%d: %d rows emitted" tag t_exec (List.length rows));
  Stats.record_query ctx.stats
    { Stats.exec = t_exec; description = tag; reads; emitted = List.length rows };
  (match ctx.geometry with
  | None -> ()
  | Some g ->
      let spans =
        Array.map
          (function
            | Pquery.Base -> Geometry.Full_upto t_exec
            | Pquery.Win { lo; hi } -> Geometry.Window (lo, hi))
          q
      in
      Geometry.record ~label:tag g ~sign spans);
  t_exec

let execute (ctx : Ctx.t) ~sign (q : Pquery.t) =
  if Roll_obs.Obs.tracing ctx.obs then
    Roll_obs.Trace.with_span
      (Roll_obs.Obs.trace ctx.obs)
      ~attrs:
        [
          ("view", Roll_obs.Trace.Str (View.name ctx.view));
          ("sign", Roll_obs.Trace.Int sign);
        ]
      "exec.query"
      (fun () -> execute_body ctx ~sign q)
  else execute_body ctx ~sign q

let materialize (ctx : Ctx.t) =
  if ctx.auto_capture then Capture.advance ctx.capture;
  let q = Pquery.all_base (View.n_sources ctx.view) in
  let rows, _reads = evaluate ctx q in
  let relation = Relation.create (View.output_schema ctx.view) in
  List.iter (fun (tuple, count, _) -> Relation.add relation tuple count) rows;
  let t_exec = Database.commit_marker ctx.db ~tag:("materialize " ^ View.name ctx.view) in
  (relation, t_exec)
