(** Exporters: Chrome trace-event JSON, Prometheus text exposition, JSONL.
    The JSON documents are built as {!Roll_util.Json} values and printed
    by its codec.

    All output is deterministic given a deterministic clock: spans export
    in start order, metric families sorted by name, series sorted by
    rendered labels — so golden tests can compare whole documents. *)

val chrome_trace : ?process:string -> Trace.t -> string
(** The trace as a Chrome trace-event JSON document (one complete ["X"]
    event per span, timestamps in microseconds) — loadable in
    [chrome://tracing] and Perfetto. Span attributes and status land in
    each event's [args]. *)

val spans_jsonl : Trace.t -> string
(** One JSON object per line per finished span — the stable format the
    test suite parses back. *)

val prometheus : Metrics.t -> string
(** Prometheus text exposition format version 0.0.4: [# HELP]/[# TYPE]
    headers, counters/gauges as single series, histograms as cumulative
    [_bucket{le=...}] series plus [_sum] and [_count]. *)
