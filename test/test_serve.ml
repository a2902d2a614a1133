(* rolld, the point-in-time read server: protocol codec round-trips and
   golden lines, engine admission rules (too_new / gc_horizon /
   unknown_view / overloaded / shutting_down), the snapshot-consistency
   property — every admitted [READ view AT t] is row-identical to the
   oracle's evaluation at [t] — fuzzed across fault seeds and domain
   counts, and a live socket session through Server/Client. *)

open Test_support.Helpers
module C = Roll_core
module S = Roll_serve
module P = Roll_serve.Protocol
module Json = Roll_util.Json
module Prng = Roll_util.Prng
module Fault = Roll_util.Fault
module Retry = Roll_util.Retry
module Database = Roll_storage.Database
module Relation = Roll_relation.Relation
module Value = Roll_relation.Value
module Tuple = Roll_relation.Tuple

(* Same CI matrix convention as test_parallel: honor ROLL_DOMAINS,
   default to a 4-domain pool for the parallel side. *)
let pool_domains =
  match C.Service.env_domains () with Some n -> n | None -> 4

(* Protocol: request lines *)

let test_request_round_trip () =
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "parse (encode %S)" (P.encode_request r))
        true
        (P.parse_request (P.encode_request r) = Ok r))
    [
      P.Read_at { view = "star"; time = 42 };
      P.Read_at { view = "rs"; time = 0 };
      P.Read_fresh "star";
      P.Status;
      P.Quit;
      P.Shutdown;
    ];
  Alcotest.(check string) "READ AT golden" "READ star AT 42"
    (P.encode_request (P.Read_at { view = "star"; time = 42 }));
  Alcotest.(check string) "READ FRESH golden" "READ star FRESH"
    (P.encode_request (P.Read_fresh "star"));
  (* Tolerant of the whitespace a human with nc produces. *)
  Alcotest.(check bool) "extra whitespace accepted" true
    (P.parse_request "  READ   star   FRESH  " = Ok (P.Read_fresh "star"))

let test_request_parse_errors () =
  List.iter
    (fun line ->
      match P.parse_request line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected a parse error for %S" line)
    [ ""; "   "; "FROB"; "READ star"; "READ star AT"; "READ star AT xyz";
      "READ star AT 1 2"; "read star FRESH" ]

(* Protocol: response codec. Polymorphic [compare] treats nan as equal to
   itself, which is exactly the equality a round-trip check wants. *)

let check_response_round_trip r =
  let line = P.encode_response r in
  Alcotest.(check bool)
    (Printf.sprintf "decode (encode %s...)"
       (String.sub line 0 (min 40 (String.length line))))
    true
    (compare (P.decode_response line) (Ok r) = 0)

let test_response_round_trip () =
  let every_value_kind =
    Tuple.make
      [
        Value.Int 7;
        Value.Str "a\"b\\c\nd";
        Value.Null;
        Value.Bool true;
        Value.Float 2.0;
        (* integral float must stay Float *)
        Value.Float 0.1;
        Value.Float Float.nan;
        Value.Float Float.infinity;
        Value.Float Float.neg_infinity;
      ]
  in
  List.iter check_response_round_trip
    [
      P.Rows
        {
          view = "rs";
          at = 17;
          hwm = 20;
          wait = 0.0;
          rows = [ (every_value_kind, 3); (Tuple.ints [ 1; 2 ], 1) ];
        };
      P.Rows { view = "empty"; at = 0; hwm = 0; wait = 0.125; rows = [] };
      P.Status_report
        (Json.Obj
           [ ("now", Json.Int 9); ("views", Json.List [ Json.Str "rs" ]) ]);
      P.Rejected (P.Too_new { requested = 9; now = 5 });
      P.Rejected (P.Gc_horizon { requested = 2; horizon = 6 });
      P.Rejected (P.Unknown_view "nope");
      P.Rejected (P.Overloaded { pending = 1024; limit = 1024 });
      P.Rejected (P.Malformed "unknown verb \"FROB\"");
      P.Rejected P.Shutting_down;
      P.Bye;
    ]

(* Golden lines: scripts (the CI smoke session among them) are written
   against these exact bytes, not the server source. *)
let test_response_golden () =
  Alcotest.(check string) "bye golden" {|{"ok":true,"kind":"bye"}|}
    (P.encode_response P.Bye);
  Alcotest.(check string) "too_new golden"
    {|{"ok":false,"error":"too_new","message":"time 9 is beyond current time 5","requested":9,"now":5}|}
    (P.encode_response (P.Rejected (P.Too_new { requested = 9; now = 5 })));
  Alcotest.(check string) "rows golden"
    {|{"ok":true,"kind":"rows","view":"rs","at":3,"hwm":4,"wait":0.5,"rows":[[2,[1,7]]]}|}
    (P.encode_response
       (P.Rows
          {
            view = "rs";
            at = 3;
            hwm = 4;
            wait = 0.5;
            rows = [ (Tuple.ints [ 1; 7 ], 2) ];
          }))

let test_decode_errors () =
  List.iter
    (fun line ->
      match P.decode_response line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected a decode error for %S" line)
    [
      "not json";
      "{}";
      {|{"ok":true}|};
      {|{"ok":true,"kind":"frob"}|};
      {|{"ok":false,"error":"frob","message":"m"}|};
      {|{"ok":true,"kind":"rows","view":"v"}|};
      {|{"ok":false,"error":"too_new","message":"m"}|};
    ]

(* The Rows encoder writes straight into a buffer; this is the [Json.t]
   tree encoding of the same response, kept as the reference for its
   bytes. *)
let reference_json_of_value = function
  | Value.Null -> Json.Null
  | Value.Bool b -> Json.Bool b
  | Value.Int i -> Json.Int i
  | Value.Float f ->
      if Float.is_finite f then Json.Float f
      else Json.Obj [ ("float", Json.Str (string_of_float f)) ]
  | Value.Str s -> Json.Str s

let reference_rows_line ~view ~at ~hwm ~wait rows =
  Json.to_string
    (Json.Obj
       [
         ("ok", Json.Bool true);
         ("kind", Json.Str "rows");
         ("view", Json.Str view);
         ("at", Json.Int at);
         ("hwm", Json.Int hwm);
         ("wait", Json.Float wait);
         ( "rows",
           Json.List
             (List.map
                (fun (tuple, count) ->
                  Json.List
                    [
                      Json.Int count;
                      Json.List
                        (List.map reference_json_of_value
                           (Array.to_list tuple));
                    ])
                rows) );
       ])

let rows_response_arb =
  let open QCheck.Gen in
  let extreme_int =
    oneof
      [ int; oneofl [ 0; -1; 1; min_int; max_int; min_int + 1; max_int - 1 ] ]
  in
  let float_value =
    oneof
      [
        float;
        oneofl
          [
            Float.nan; Float.infinity; Float.neg_infinity; 0.1; -0.0; 2.0; 1e300;
          ];
      ]
  in
  (* Quotes, backslashes, control bytes and high bytes all need care. *)
  let str =
    string_size
      ~gen:
        (oneof
           [ printable; oneofl [ '"'; '\\'; '\n'; '\001'; '\x7f'; '\xe9' ] ])
      (0 -- 8)
  in
  let value =
    frequency
      [
        (4, map (fun i -> Value.Int i) extreme_int);
        (2, map (fun f -> Value.Float f) float_value);
        (2, map (fun s -> Value.Str s) str);
        (1, return Value.Null);
        (1, map (fun b -> Value.Bool b) bool);
      ]
  in
  let row = pair (map Array.of_list (list_size (0 -- 4) value)) extreme_int in
  let response =
    map
      (fun (view, (at, hwm), wait, rows) ->
        P.Rows { view; at; hwm; wait; rows })
      (quad str (pair extreme_int extreme_int) float_value
         (list_size (0 -- 6) row))
  in
  QCheck.make ~print:P.encode_response response

let prop_rows_encoder_matches_reference =
  QCheck.Test.make ~name:"Rows encoder = Json.t reference, and decodes back"
    ~count:500 rows_response_arb (fun r ->
      match r with
      | P.Rows { view; at; hwm; wait; rows } ->
          let line = P.encode_response r in
          String.equal line (reference_rows_line ~view ~at ~hwm ~wait rows)
          (* A non-finite wait prints null, which has no float to decode. *)
          && ((not (Float.is_finite wait))
             || compare (P.decode_response line) (Ok r) = 0)
      | _ -> false)

(* Engine admission (inline, no sockets: submit + pump on one thread). *)

let serve_scenario ?gc_threshold ?queue_limit () =
  let s = two_table () in
  let service = C.Service.create ?gc_threshold s.db s.capture in
  let ctl =
    C.Service.register service
      ~algorithm:(C.Controller.Rolling (C.Rolling.uniform 3))
      s.view
  in
  let engine = S.Engine.create ?queue_limit s.db service in
  (s, service, ctl, engine)

let drain service =
  match C.Service.maintain service ~budget:10_000 with
  | Ok _ -> ()
  | Error (e : C.Service.step_error) ->
      Alcotest.failf "maintain failed: %s at %s" e.view e.point

let expect_reject ticket expected =
  match S.Engine.poll ticket with
  | Some (P.Rejected r) when compare r expected = 0 -> ()
  | other ->
      Alcotest.failf "expected %s, got %s" (P.reject_code expected)
        (match other with
        | None -> "a still-pending ticket"
        | Some (P.Rejected r) -> P.reject_code r
        | Some _ -> "a non-reject response")

let oracle_rows s time = Relation.to_list (C.Oracle.view_at s.history s.view time)

let still_pending ticket = S.Engine.poll ticket = None

let test_admission () =
  let s, service, ctl, engine = serve_scenario () in
  random_txns (Prng.create ~seed:601) s 25;
  let now = Database.now s.db in
  (* Beyond current time: typed too_new with both bounds. *)
  let t1 = S.Engine.submit engine (P.Read_at { view = "rs"; time = now + 5 }) in
  (* Unknown view. *)
  let t2 = S.Engine.submit engine (P.Read_at { view = "nope"; time = 1 }) in
  (* Admitted but not yet covered: hwm < t <= now queues. *)
  let t3 = S.Engine.submit engine (P.Read_at { view = "rs"; time = now }) in
  Alcotest.(check int) "three tickets pending" 3 (S.Engine.pending engine);
  ignore (S.Engine.pump engine);
  expect_reject t1 (P.Too_new { requested = now + 5; now });
  expect_reject t2 (P.Unknown_view "nope");
  Alcotest.(check bool) "admitted read still waiting" true (still_pending t3);
  (* The blocked reader is visible to the scheduler as read demand. *)
  Alcotest.(check int) "demand census sees the blocked reader" 1
    (S.Engine.demand engine "rs");
  Alcotest.(check bool) "schedule reports readers on the view" true
    (List.exists
       (fun (sc : C.Scheduler.scored) ->
         match sc.C.Scheduler.item with
         | C.Scheduler.Propagate_step { view = "rs"; _ } ->
             sc.C.Scheduler.readers = 1
         | _ -> false)
       (C.Service.schedule service));
  (* Propagation catches up; the queued read resolves to oracle rows. *)
  drain service;
  ignore (S.Engine.pump engine);
  (match S.Engine.poll t3 with
  | Some (P.Rows { at; hwm; rows; wait; view }) ->
      Alcotest.(check string) "served view" "rs" view;
      Alcotest.(check int) "served at the requested time" now at;
      Alcotest.(check bool) "hwm covers the serve" true (hwm >= now);
      Alcotest.(check bool) "wait is non-negative" true (wait >= 0.0);
      Alcotest.(check bool) "rows match the oracle" true
        (rows = oracle_rows s now)
  | _ -> Alcotest.fail "queued read did not resolve to rows");
  Alcotest.(check int) "nothing left pending" 0 (S.Engine.pending engine);
  Alcotest.(check int) "one read served" 1 (S.Engine.reads_served engine);
  Alcotest.(check int) "two reads rejected" 2 (S.Engine.reads_rejected engine);
  (* The serve and the typed rejects land in the view's counters and in
     status_json for rollctl status --json. *)
  Alcotest.(check int) "stats reads_served" 1
    (C.Counters.count (C.Controller.counters ctl) C.Counters.reads_served);
  Alcotest.(check bool) "stats reads_rejected counted" true
    (C.Counters.count (C.Controller.counters ctl) C.Counters.reads_rejected > 0);
  Alcotest.(check bool) "status_json surfaces read counters" true
    (contains
       (Json.to_string (C.Service.status_json service))
       "\"roll_reads_served_total\":1")

let test_fresh_serves_at_hwm () =
  let s, service, ctl, engine = serve_scenario () in
  random_txns (Prng.create ~seed:602) s 20;
  (* Partial drain: hwm strictly between 0 and now. *)
  ignore (C.Service.step_all service ~budget:3);
  let hwm = C.Controller.hwm ctl in
  let ticket = S.Engine.submit engine (P.Read_fresh "rs") in
  ignore (S.Engine.pump engine);
  match S.Engine.poll ticket with
  | Some (P.Rows { at; rows; _ }) ->
      Alcotest.(check int) "FRESH serves at the hwm" hwm at;
      Alcotest.(check bool) "rows match the oracle at the hwm" true
        (rows = oracle_rows s hwm)
  | _ -> Alcotest.fail "FRESH read did not resolve immediately"

(* A burst of reads at one (view, t) materializes the snapshot once; the
   memo dies when the gc horizon passes its time. *)
let test_snapshot_memo () =
  let s, service, ctl, engine = serve_scenario ~gc_threshold:1 () in
  random_txns (Prng.create ~seed:605) s 20;
  drain service;
  let hwm = C.Controller.hwm ctl in
  let read = P.Read_at { view = "rs"; time = hwm } in
  let t1 = S.Engine.submit engine read in
  let t2 = S.Engine.submit engine read in
  let t3 = S.Engine.submit engine read in
  ignore (S.Engine.pump engine);
  Alcotest.(check int) "second and third reads hit the memo" 2
    (S.Engine.snapshot_memo_hits engine);
  let rows_of t =
    match S.Engine.poll t with
    | Some (P.Rows { rows; _ }) -> rows
    | _ -> Alcotest.fail "memoized read not served"
  in
  Alcotest.(check bool) "memoized rows equal the oracle" true
    (rows_of t1 = oracle_rows s hwm);
  Alcotest.(check bool) "all three reads identical" true
    (rows_of t1 = rows_of t2 && rows_of t2 = rows_of t3);
  (* Push the gc horizon past the memoized time; the entry must be evicted,
     not served stale, and a fresh read must rebuild from the controller. *)
  random_txns (Prng.create ~seed:606) s 40;
  drain service;
  (* Roll the stored view to the new hwm and prune the applied delta so
     the horizon deterministically passes the memoized time. *)
  C.Service.refresh_all service;
  ignore (C.Service.gc_all service);
  let horizon = C.Controller.horizon ctl in
  Alcotest.(check bool) "gc horizon passed the memoized time" true
    (horizon > hwm);
  let hits_before = S.Engine.snapshot_memo_hits engine in
  let t4 =
    S.Engine.submit engine (P.Read_at { view = "rs"; time = C.Controller.hwm ctl })
  in
  ignore (S.Engine.pump engine);
  (match S.Engine.poll t4 with
  | Some (P.Rows { rows; at; _ }) ->
      Alcotest.(check bool) "post-eviction read matches the oracle" true
        (rows = oracle_rows s at)
  | _ -> Alcotest.fail "post-eviction read not served");
  Alcotest.(check int) "the evicted entry did not count as a hit" hits_before
    (S.Engine.snapshot_memo_hits engine);
  C.Service.shutdown service

let test_gc_horizon_reject () =
  let s, service, ctl, engine = serve_scenario ~gc_threshold:1 () in
  random_txns (Prng.create ~seed:603) s 30;
  drain service;
  (* maintain's gc item pruned the applied prefix; the horizon moved. *)
  let horizon = C.Controller.horizon ctl in
  Alcotest.(check bool) "gc advanced the horizon" true (horizon > 0);
  let t1 =
    S.Engine.submit engine (P.Read_at { view = "rs"; time = horizon - 1 })
  in
  (* The horizon itself is still reconstructible: oldest admitted time. *)
  let t2 =
    S.Engine.submit engine (P.Read_at { view = "rs"; time = horizon })
  in
  ignore (S.Engine.pump engine);
  expect_reject t1 (P.Gc_horizon { requested = horizon - 1; horizon });
  match S.Engine.poll t2 with
  | Some (P.Rows { rows; _ }) ->
      Alcotest.(check bool) "horizon snapshot matches the oracle" true
        (rows = oracle_rows s horizon)
  | _ -> Alcotest.fail "read at the horizon should be served"

let test_overload_and_shutdown () =
  let s, service, _ctl, engine = serve_scenario ~queue_limit:2 () in
  random_txns (Prng.create ~seed:604) s 10;
  let now = Database.now s.db in
  let read = P.Read_at { view = "rs"; time = now } in
  let q1 = S.Engine.submit engine read in
  let q2 = S.Engine.submit engine read in
  let shed = S.Engine.submit engine read in
  (* The shed ticket resolved at submit time, before any pump. *)
  expect_reject shed (P.Overloaded { pending = 2; limit = 2 });
  (* Close: queued readers are orphaned with shutting_down... *)
  S.Engine.close engine;
  expect_reject q1 P.Shutting_down;
  expect_reject q2 P.Shutting_down;
  (* ...and new submissions are refused at the door. *)
  expect_reject (S.Engine.submit engine read) P.Shutting_down;
  Alcotest.(check bool) "rejects counted" true
    (S.Engine.reads_rejected engine >= 4);
  drain service (* the service itself is untouched by engine close *)

(* One read count: STATUS's totals equal the exported
   roll_reads_*_total series, summed over the view's and the engine's,
   after a session with a served read, a too_new reject, an unknown view
   and a read shed by a full queue. *)
let test_status_totals_match_export () =
  let s = two_table () in
  let obs = Roll_obs.Obs.create () in
  let service = C.Service.create ~obs s.db s.capture in
  let _ctl =
    C.Service.register service
      ~algorithm:(C.Controller.Rolling (C.Rolling.uniform 3))
      s.view
  in
  let engine = S.Engine.create ~queue_limit:1 s.db service in
  random_txns (Prng.create ~seed:605) s 15;
  drain service;
  let now = Database.now s.db in
  let served = S.Engine.submit engine (P.Read_fresh "rs") in
  expect_reject
    (S.Engine.submit engine (P.Read_fresh "rs"))
    (P.Overloaded { pending = 1; limit = 1 });
  ignore (S.Engine.pump engine);
  let too_new = S.Engine.submit engine (P.Read_at { view = "rs"; time = now + 5 }) in
  ignore (S.Engine.pump engine);
  let unknown = S.Engine.submit engine (P.Read_fresh "nope") in
  ignore (S.Engine.pump engine);
  (match S.Engine.poll served with
  | Some (P.Rows _) -> ()
  | _ -> Alcotest.fail "FRESH read was not served");
  expect_reject too_new (P.Too_new { requested = now + 5; now });
  expect_reject unknown (P.Unknown_view "nope");
  let exported name =
    List.fold_left
      (fun acc (sf : Roll_obs.Metrics.sample_family) ->
        if String.equal sf.sf_name name then
          List.fold_left
            (fun acc (p : Roll_obs.Metrics.point) -> acc + int_of_float p.p_value)
            acc sf.points
        else acc)
      0
      (Roll_obs.Metrics.snapshot (Roll_obs.Obs.metrics obs))
  in
  let status field =
    match Json.member field (S.Engine.status engine) with
    | Some (Json.Int n) -> n
    | _ -> Alcotest.failf "STATUS has no %s count" field
  in
  Alcotest.(check int) "one read served" 1 (status "served");
  Alcotest.(check int) "three reads rejected" 3 (status "rejected");
  Alcotest.(check int) "served = exported series"
    (exported "roll_reads_served_total") (status "served");
  Alcotest.(check int) "rejected = exported series"
    (exported "roll_reads_rejected_total") (status "rejected");
  Alcotest.(check int) "shutdown line agrees" (status "rejected")
    (S.Engine.reads_rejected engine)

(* The tentpole property: for a random update stream, a partial drain and
   random admitted targets t <= hwm, READ view AT t returns exactly the
   oracle's rows at t — and a read admitted beyond the hwm resolves to the
   oracle's rows once the drain covers it. Fuzzed across fault seeds with
   transient faults injected into the maintenance path, at 1 domain and at
   the CI pool size: reads must be consistent whichever domain layout the
   drain used. *)
let run_reads ~seed ~domains =
  let s = three_table () in
  let rng = Prng.create ~seed in
  random_txns rng s 8;
  let service = C.Service.create ~domains s.db s.capture in
  let ctl =
    C.Service.register service
      ~algorithm:(C.Controller.Rolling (C.Rolling.uniform (2 + (seed mod 4))))
      s.view
  in
  random_txns rng s 20;
  if seed mod 3 = 0 then
    (C.Controller.ctx ctl).C.Ctx.fault <-
      Fault.transient_at "rolling.post_forward" ~hit:2 ~failures:2;
  if seed mod 7 = 0 then
    (C.Controller.ctx ctl).C.Ctx.fault <-
      Fault.transient_at "exec.query" ~hit:1 ~failures:1;
  let engine = S.Engine.create s.db service in
  let retry = Retry.policy ~max_attempts:5 () in
  let step budget =
    match C.Service.try_step_all ~sleep:(fun _ -> ()) service ~budget ~retry with
    | Ok _ -> ()
    | Error (e : C.Service.step_error) ->
        Alcotest.failf "seed %d: drain failed at %s" seed e.C.Service.point
  in
  (* Partial drain, so the hwm lands mid-stream and both admission paths
     (serve-now and queue) are exercised. *)
  step (2 + (seed mod 6));
  let hwm = C.Controller.hwm ctl in
  let check_rows label time = function
    | Some (P.Rows { at; rows; _ }) ->
        Alcotest.(check int)
          (Printf.sprintf "seed %d: %s served at its target" seed label)
          time at;
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: %s rows = oracle rows at %d" seed label
             time)
          true
          (rows = Relation.to_list (C.Oracle.view_at s.history s.view time))
    | other ->
        Alcotest.failf "seed %d: %s at %d did not resolve to rows (%s)" seed
          label time
          (match other with
          | None -> "still pending"
          | Some (P.Rejected r) -> P.reject_code r
          | Some _ -> "non-rows response")
  in
  (* Admitted targets: horizon <= t <= hwm (the horizon starts at the
     view's materialization time — earlier snapshots never existed). *)
  let horizon = C.Controller.horizon ctl in
  let targets =
    List.init 3 (fun _ -> horizon + Prng.int rng (hwm - horizon + 1))
  in
  let tickets =
    List.map
      (fun time ->
        (time, S.Engine.submit engine (P.Read_at { view = "abc"; time })))
      targets
  in
  ignore (S.Engine.pump engine);
  List.iter
    (fun (time, ticket) ->
      check_rows "covered read" time (S.Engine.poll ticket))
    tickets;
  (* A read beyond the hwm queues, boosts the view, and resolves to the
     oracle once propagation covers it. *)
  let now = Database.now s.db in
  if now > hwm then begin
    let time = hwm + 1 + Prng.int rng (now - hwm) in
    let ticket = S.Engine.submit engine (P.Read_at { view = "abc"; time }) in
    ignore (S.Engine.pump engine);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: uncovered read queued" seed)
      true
      (S.Engine.poll ticket = None && S.Engine.demand engine "abc" = 1);
    step 10_000;
    ignore (S.Engine.pump engine);
    check_rows "queued read" time (S.Engine.poll ticket)
  end;
  (* One read per pump, so each is served from the previous read's
     snapshot rolled forward or back to its own time. *)
  let hop label =
    let horizon = C.Controller.horizon ctl and hwm = C.Controller.hwm ctl in
    for _ = 1 to 4 do
      let time = horizon + Prng.int rng (hwm - horizon + 1) in
      let ticket = S.Engine.submit engine (P.Read_at { view = "abc"; time }) in
      ignore (S.Engine.pump engine);
      check_rows label time (S.Engine.poll ticket)
    done
  in
  hop "hop";
  (* Across a gc: the horizon moves to the stored view's time, often past
     the last snapshot's, which then cannot roll and is rebuilt; later
     hops roll again. *)
  random_txns rng s 10;
  step 10_000;
  C.Service.refresh_all service;
  ignore (C.Service.gc_all service);
  random_txns rng s 10;
  step (2 + (seed mod 6));
  hop "hop after gc";
  C.Service.shutdown service

let test_reads_match_oracle () =
  for seed = 0 to 99 do
    run_reads ~seed ~domains:1;
    run_reads ~seed ~domains:pool_domains
  done

(* Words allocated by [f]: minor allocations plus direct major ones.
   [Gc.quick_stat] counts the minor heap only as of the last minor
   collection, so the minor heap is emptied first and minor words are
   read exactly. *)
let allocated_words f =
  Gc.minor ();
  let m0 = Gc.minor_words () and before = Gc.quick_stat () in
  f ();
  let m1 = Gc.minor_words () and after = Gc.quick_stat () in
  let major (s : Gc.stat) = s.major_words -. s.promoted_words in
  m1 -. m0 +. (major after -. major before)

(* A read at a new time rolls the last snapshot through the view delta
   between the two times: a copy of the rows (and their list for the
   response), not a copy of the view plus a sort. Copying the view and
   sorting its rows on every read allocated about 97 words per row
   here. *)
let test_memo_roll_allocates_linear () =
  let db = Database.create () in
  let _ =
    Database.create_table db ~name:"r"
      (Roll_relation.Schema.make [ int_col "k"; int_col "v" ])
  in
  let capture = Roll_capture.Capture.create db in
  Roll_capture.Capture.attach capture ~table:"r";
  let b = C.View.binder db [ ("r", "r") ] in
  let view =
    C.View.create db ~name:"big" ~sources:[ ("r", "r") ] ~predicate:[]
      ~project:[ b "r" "k"; b "r" "v" ]
  in
  let n = 3_000 in
  ignore
    (Database.run db (fun txn ->
         for i = 1 to n do
           Database.insert txn ~table:"r" (Tuple.ints [ i; i mod 7 ])
         done));
  let service = C.Service.create db capture in
  let _ctl =
    C.Service.register service
      ~algorithm:(C.Controller.Rolling (C.Rolling.uniform 4))
      view
  in
  let engine = S.Engine.create db service in
  let read () =
    let ticket = S.Engine.submit engine (P.Read_fresh "big") in
    ignore (S.Engine.pump engine);
    ticket
  in
  ignore (read ());
  for i = 1 to 10 do
    ignore
      (Database.run db (fun txn ->
           Database.insert txn ~table:"r" (Tuple.ints [ n + i; 0 ])))
  done;
  drain service;
  let ticket = ref None in
  let words = allocated_words (fun () -> ticket := Some (read ())) in
  (match Option.bind !ticket S.Engine.poll with
  | Some (P.Rows { rows; at; _ }) ->
      Alcotest.(check int) "rows" (n + 10) (List.length rows);
      Alcotest.(check bool) "rolled rows = oracle" true
        (rows
        = Relation.to_list
            (C.Oracle.view_at (Roll_storage.History.create db) view at))
  | _ -> Alcotest.fail "read not served");
  let per_row = words /. float_of_int (n + 10) in
  if per_row > 8. then
    Alcotest.failf "rolling a %d-row snapshot by 10 rows: %.1f words per row"
      (n + 10) per_row;
  C.Service.shutdown service

(* Socket session: a live server with maintenance ticking, a scripted
   client exchange covering every response kind, then a clean SHUTDOWN —
   the same session the CI smoke job scripts via [rolld client]. *)
let test_socket_session () =
  let s = two_table () in
  let service = C.Service.create s.db s.capture in
  let _ctl =
    C.Service.register service
      ~algorithm:(C.Controller.Rolling (C.Rolling.uniform 3))
      s.view
  in
  random_txns (Prng.create ~seed:605) s 15;
  let engine = S.Engine.create s.db service in
  let socket = Filename.temp_file "rolld_test" ".sock" in
  Sys.remove socket;
  let tick () =
    match C.Service.maintain service ~budget:64 with Ok _ | Error _ -> ()
  in
  let server = S.Server.start ~tick ~socket engine in
  let conn = S.Client.connect_retry socket in
  let expect label want got =
    Alcotest.(check bool) label true (compare got (Ok want) = 0)
  in
  (* FRESH always serves; with the tick draining, at a covered hwm. *)
  (match S.Client.request conn (P.Read_fresh "rs") with
  | Ok (P.Rows { view = "rs"; at; hwm; rows; _ }) ->
      Alcotest.(check int) "fresh at = hwm" hwm at;
      Alcotest.(check bool) "fresh rows = oracle at the hwm" true
        (rows = Relation.to_list (C.Oracle.view_at s.history s.view at))
  | _ -> Alcotest.fail "FRESH over the socket did not return rows");
  (* An admitted point-in-time read resolves once the tick covers it. *)
  (match
     S.Client.request conn (P.Read_at { view = "rs"; time = Database.now s.db })
   with
  | Ok (P.Rows _) -> ()
  | _ -> Alcotest.fail "admitted AT read did not resolve over the socket");
  (* Typed rejections travel the wire intact. *)
  (match S.Client.request conn (P.Read_at { view = "rs"; time = 1_000_000 }) with
  | Ok (P.Rejected (P.Too_new _)) -> ()
  | _ -> Alcotest.fail "expected too_new over the socket");
  expect "unknown view over the socket"
    (P.Rejected (P.Unknown_view "nope"))
    (S.Client.request conn (P.Read_fresh "nope"));
  (match S.Client.request_raw conn "FROB" with
  | Ok (P.Rejected (P.Malformed _)) -> ()
  | _ -> Alcotest.fail "expected malformed for a bad request line");
  (* STATUS routes through the engine thread and reports the service. *)
  (match S.Client.request conn P.Status with
  | Ok (P.Status_report report) ->
      Alcotest.(check bool) "status has the clock" true
        (Json.member "now" report <> None);
      Alcotest.(check bool) "status counts serves" true
        (match Json.member "served" report with
        | Some (Json.Int n) -> n >= 2
        | _ -> false)
  | _ -> Alcotest.fail "STATUS over the socket did not return a report");
  expect "quit gets bye" P.Bye (S.Client.request conn P.Quit);
  S.Client.close conn;
  (* A second session shuts the whole server down cleanly. *)
  let conn2 = S.Client.connect_retry socket in
  expect "shutdown gets bye" P.Bye (S.Client.request conn2 P.Shutdown);
  S.Server.wait server;
  Alcotest.(check bool) "server stopped" false (S.Server.running server);
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket);
  S.Client.close conn2;
  C.Service.shutdown service

let suite =
  [
    Alcotest.test_case "request round-trip and goldens" `Quick
      test_request_round_trip;
    Alcotest.test_case "request parse errors" `Quick test_request_parse_errors;
    Alcotest.test_case "response round-trip (every kind)" `Quick
      test_response_round_trip;
    Alcotest.test_case "response goldens" `Quick test_response_golden;
    Alcotest.test_case "response decode errors" `Quick test_decode_errors;
    QCheck_alcotest.to_alcotest prop_rows_encoder_matches_reference;
    Alcotest.test_case "admission rules" `Quick test_admission;
    Alcotest.test_case "FRESH serves at the hwm" `Quick
      test_fresh_serves_at_hwm;
    Alcotest.test_case "gc horizon rejection" `Quick test_gc_horizon_reject;
    Alcotest.test_case "snapshot memo serves repeats and evicts at the horizon"
      `Quick test_snapshot_memo;
    Alcotest.test_case "overload and shutdown shedding" `Quick
      test_overload_and_shutdown;
    Alcotest.test_case "reads match the oracle (seeds 0-99, 1 and N domains)"
      `Slow test_reads_match_oracle;
    Alcotest.test_case "memo roll allocates O(rows)" `Quick
      test_memo_roll_allocates_linear;
    Alcotest.test_case "socket session end to end" `Quick test_socket_session;
    Alcotest.test_case "STATUS read totals equal the exported series" `Quick
      test_status_totals_match_export;
  ]
