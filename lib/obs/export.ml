module Json = Roll_util.Json

let json_attr = function
  | Trace.Int i -> Json.Int i
  | Trace.Float f -> Json.number f
  | Trace.Str s -> Json.Str s
  | Trace.Bool b -> Json.Bool b

let span_args (s : Trace.span) =
  let attrs = List.map (fun (k, v) -> (k, json_attr v)) s.Trace.attrs in
  let status =
    match s.Trace.status with
    | Trace.Ok -> [ ("status", Json.Str "ok") ]
    | Trace.Error e -> [ ("status", Json.Str "error"); ("error", Json.Str e) ]
  in
  attrs @ status

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON                                             *)

let span_category (s : Trace.span) =
  match String.index_opt s.Trace.name '.' with
  | Some i -> String.sub s.Trace.name 0 i
  | None -> s.Trace.name

(* One complete ("ph":"X") event per span; ts/dur in microseconds as the
   trace-event format requires. Spans share pid/tid 1 — the viewer nests
   them by time containment, which well-nestedness guarantees. *)
let chrome_trace_event (s : Trace.span) =
  Json.Obj
    [
      ("name", Json.Str s.Trace.name);
      ("cat", Json.Str (span_category s));
      ("ph", Json.Str "X");
      ("ts", Json.number (s.Trace.start *. 1e6));
      ("dur", Json.number (Float.max 0. (s.Trace.stop -. s.Trace.start) *. 1e6));
      ("pid", Json.Int 1);
      ("tid", Json.Int 1);
      ("args", Json.Obj (span_args s));
    ]

let chrome_trace ?(process = "rolling-ivm") trace =
  let process_name =
    Json.Obj
      [
        ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("pid", Json.Int 1);
        ("args", Json.Obj [ ("name", Json.Str process) ]);
      ]
  in
  Json.pretty
    (Json.Obj
       [
         ( "traceEvents",
           Json.List
             (process_name :: List.map chrome_trace_event (Trace.spans trace))
         );
         ("displayTimeUnit", Json.Str "ms");
       ])

(* ------------------------------------------------------------------ *)
(* JSONL span log                                                      *)

let span_jsonl (s : Trace.span) =
  Json.Obj
    ([
       ("id", Json.Int s.Trace.id);
       ("parent", Json.Int s.Trace.parent);
       ("depth", Json.Int s.Trace.depth);
       ("name", Json.Str s.Trace.name);
       ("start", Json.number s.Trace.start);
       ("stop", Json.number s.Trace.stop);
     ]
    @ span_args s)

let spans_jsonl trace =
  String.concat ""
    (List.map (fun s -> Json.to_string (span_jsonl s) ^ "\n") (Trace.spans trace))

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)

let label_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prom_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (label_escape v))
             labels)
      ^ "}"

let prom_number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let prom_bound f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let prometheus metrics =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (sf : Metrics.sample_family) ->
      if sf.Metrics.points <> [] then begin
        if sf.Metrics.sf_help <> "" then
          Buffer.add_string buf
            (Printf.sprintf "# HELP %s %s\n" sf.Metrics.sf_name sf.Metrics.sf_help);
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s %s\n" sf.Metrics.sf_name
             (Metrics.kind_name sf.Metrics.sf_kind));
        List.iter
          (fun (p : Metrics.point) ->
            match p.Metrics.p_hist with
            | None ->
                Buffer.add_string buf
                  (Printf.sprintf "%s%s %s\n" sf.Metrics.sf_name
                     (prom_labels p.Metrics.p_labels)
                     (prom_number p.Metrics.p_value))
            | Some h ->
                let cumulative = ref 0 in
                Array.iteri
                  (fun i bound ->
                    cumulative := !cumulative + h.Metrics.h_counts.(i);
                    Buffer.add_string buf
                      (Printf.sprintf "%s_bucket%s %d\n" sf.Metrics.sf_name
                         (prom_labels
                            (p.Metrics.p_labels @ [ ("le", prom_bound bound) ]))
                         !cumulative))
                  h.Metrics.h_bounds;
                Buffer.add_string buf
                  (Printf.sprintf "%s_bucket%s %d\n" sf.Metrics.sf_name
                     (prom_labels (p.Metrics.p_labels @ [ ("le", "+Inf") ]))
                     h.Metrics.h_count);
                Buffer.add_string buf
                  (Printf.sprintf "%s_sum%s %s\n" sf.Metrics.sf_name
                     (prom_labels p.Metrics.p_labels)
                     (prom_number h.Metrics.h_sum));
                Buffer.add_string buf
                  (Printf.sprintf "%s_count%s %d\n" sf.Metrics.sf_name
                     (prom_labels p.Metrics.p_labels)
                     h.Metrics.h_count))
          sf.Metrics.points
      end)
    (Metrics.snapshot metrics);
  Buffer.contents buf
