(* Delta-table tests: window selection (σ_{a,b}), out-of-order appends,
   pruning, and the split/combine lemmas (Lemmas 4.1 and 4.2). *)

open Roll_relation
module Time = Roll_delta.Time
module Delta = Roll_delta.Delta
module H = Test_support.Helpers

let qtest = QCheck_alcotest.to_alcotest

let schema = Schema.make [ { Schema.name = "k"; ty = Value.T_int } ]

let delta_of rows =
  let d = Delta.create schema in
  List.iter (fun (k, count, ts) -> Delta.append d (Tuple.ints [ k ]) ~count ~ts) rows;
  d

let test_window_basic () =
  let d = delta_of [ (1, 1, 1); (2, 1, 2); (3, 1, 3); (4, 1, 4) ] in
  let w = Delta.window d ~lo:1 ~hi:3 in
  Alcotest.(check int) "half-open window" 2 (List.length w);
  Alcotest.(check int) "first is ts=2" 2 (List.hd w).Delta.ts;
  Alcotest.(check int) "empty window" 0 (Delta.window_count d ~lo:3 ~hi:3);
  Alcotest.(check int) "full window" 4 (Delta.window_count d ~lo:0 ~hi:99)

let test_window_out_of_order_appends () =
  (* View deltas receive compensation rows with old timestamps after newer
     rows have been appended; windows must still come out sorted. *)
  let d = delta_of [ (1, 1, 5); (2, 1, 2); (3, 1, 9); (4, 1, 2) ] in
  let ts_list = List.map (fun (r : Delta.row) -> r.ts) (Delta.window d ~lo:0 ~hi:10) in
  Alcotest.(check (list int)) "sorted with stable ties" [ 2; 2; 5; 9 ] ts_list;
  (* The two ts=2 rows must appear in arrival order. *)
  let ks =
    List.filter_map
      (fun (r : Delta.row) ->
        if r.ts = 2 then
          match Tuple.get r.tuple 0 with Value.Int k -> Some k | _ -> None
        else None)
      (Delta.window d ~lo:0 ~hi:10)
  in
  Alcotest.(check (list int)) "stable ties" [ 2; 4 ] ks

let test_zero_count_dropped () =
  let d = delta_of [ (1, 0, 1) ] in
  Alcotest.(check int) "zero-count rows dropped" 0 (Delta.length d)

let test_min_max_ts () =
  let d = delta_of [ (1, 1, 7); (2, 1, 3) ] in
  Alcotest.(check (option int)) "min" (Some 3) (Delta.min_ts d);
  Alcotest.(check (option int)) "max" (Some 7) (Delta.max_ts d);
  let e = Delta.create schema in
  Alcotest.(check (option int)) "empty min" None (Delta.min_ts e)

let test_net_effect () =
  let d = delta_of [ (1, 1, 1); (1, -1, 2); (2, 3, 2) ] in
  let net = Delta.net_effect d ~lo:0 ~hi:10 in
  Alcotest.(check int) "cancelled" 0 (Relation.count net (Tuple.ints [ 1 ]));
  Alcotest.(check int) "kept" 3 (Relation.count net (Tuple.ints [ 2 ]));
  let net1 = Delta.net_effect d ~lo:0 ~hi:1 in
  Alcotest.(check int) "window cut keeps insert" 1 (Relation.count net1 (Tuple.ints [ 1 ]))

let test_prune () =
  let d = delta_of [ (1, 1, 1); (2, 1, 5); (3, 1, 9) ] in
  Alcotest.(check int) "pruned" 2 (Delta.prune d ~upto:5);
  Alcotest.(check int) "remaining" 1 (Delta.length d);
  Alcotest.(check int) "window after prune" 1 (Delta.window_count d ~lo:0 ~hi:10);
  Alcotest.(check int) "prune nothing" 0 (Delta.prune d ~upto:5)

let test_append_conformance () =
  let d = Delta.create schema in
  Alcotest.(check bool) "bad tuple raises" true
    (try
       Delta.append d (Tuple.ints [ 1; 2 ]) ~count:1 ~ts:1;
       false
     with Invalid_argument _ -> true)

let test_copy_independent () =
  let d = delta_of [ (1, 1, 1) ] in
  let d' = Delta.copy d in
  Delta.append d' (Tuple.ints [ 2 ]) ~count:1 ~ts:2;
  Alcotest.(check int) "copy grew" 2 (Delta.length d');
  Alcotest.(check int) "original unchanged" 1 (Delta.length d)

let rows_gen =
  QCheck.Gen.(
    list_size (0 -- 30)
      (triple (int_range 0 4) (int_range (-2) 2) (int_range 1 20)))

let rows_arb =
  QCheck.make
    ~print:(fun rows ->
      String.concat ";"
        (List.map (fun (k, c, t) -> Printf.sprintf "(%d,%+d,@%d)" k c t) rows))
    rows_gen

(* Lemma 4.1: splitting a timed delta at t_x gives timed deltas of the
   sub-intervals; equivalently prefix windows compose. *)
let prop_window_split =
  QCheck.Test.make ~name:"lemma 4.1: sigma(0,x) + sigma(x,hi) = sigma(0,hi)"
    ~count:300
    QCheck.(pair rows_arb (int_range 0 20))
    (fun (rows, x) ->
      let d = delta_of rows in
      let a = Delta.net_effect d ~lo:0 ~hi:x in
      let b = Delta.net_effect d ~lo:x ~hi:20 in
      let whole = Delta.net_effect d ~lo:0 ~hi:20 in
      Relation.equal whole (Relation.union a b))

(* Lemma 4.2: concatenating deltas over adjacent intervals is a delta over
   the combined interval. *)
let prop_window_combine =
  QCheck.Test.make ~name:"lemma 4.2: adjacent deltas combine" ~count:300
    QCheck.(pair rows_arb rows_arb)
    (fun (rows_a, rows_b) ->
      (* rows_a stamped in (0,10], rows_b in (10,20] *)
      let clamp lo hi (k, c, t) = (k, c, lo + 1 + (t mod (hi - lo))) in
      let d = delta_of (List.map (clamp 0 10) rows_a @ List.map (clamp 10 20) rows_b) in
      let da = delta_of (List.map (clamp 0 10) rows_a) in
      let db = delta_of (List.map (clamp 10 20) rows_b) in
      Relation.equal
        (Delta.net_effect d ~lo:0 ~hi:20)
        (Relation.union
           (Delta.net_effect da ~lo:0 ~hi:10)
           (Delta.net_effect db ~lo:10 ~hi:20)))

let prop_apply_window_rolls =
  QCheck.Test.make ~name:"apply_window rolls a relation forward" ~count:300
    rows_arb
    (fun rows ->
      (* Build only non-negative running multiplicities to make a valid
         history: drop deletes that would go negative. *)
      let d = Delta.create schema in
      let counts = Hashtbl.create 8 in
      List.iter
        (fun (k, c, _) ->
          let cur = try Hashtbl.find counts k with Not_found -> 0 in
          let c = if cur + c < 0 then abs c else c in
          Hashtbl.replace counts k (cur + c))
        rows;
      (* re-stamp sequentially so the delta is a real history *)
      Hashtbl.reset counts;
      List.iteri
        (fun i (k, c, _) ->
          let cur = try Hashtbl.find counts k with Not_found -> 0 in
          let c = if cur + c < 0 then abs c else c in
          Hashtbl.replace counts k (cur + c);
          Delta.append d (Tuple.ints [ k ]) ~count:c ~ts:(i + 1))
        rows;
      let state = Relation.create schema in
      Delta.apply_window d ~lo:0 ~hi:(List.length rows) state;
      Relation.equal state (Delta.net_effect d ~lo:0 ~hi:(List.length rows)))

let suite =
  [
    Alcotest.test_case "window selection" `Quick test_window_basic;
    Alcotest.test_case "out-of-order appends" `Quick test_window_out_of_order_appends;
    Alcotest.test_case "zero-count appends dropped" `Quick test_zero_count_dropped;
    Alcotest.test_case "min/max timestamps" `Quick test_min_max_ts;
    Alcotest.test_case "net effect" `Quick test_net_effect;
    Alcotest.test_case "prune applied rows" `Quick test_prune;
    Alcotest.test_case "append conformance" `Quick test_append_conformance;
    Alcotest.test_case "copy independence" `Quick test_copy_independent;
    qtest prop_window_split;
    qtest prop_window_combine;
    qtest prop_apply_window_rolls;
  ]

let test_compact () =
  let d =
    delta_of [ (1, 1, 5); (2, 1, 3); (1, -1, 5); (2, 2, 3); (3, 1, 5) ]
  in
  let before = Relation.to_list (Delta.net_effect d ~lo:0 ~hi:10) in
  let mid = Relation.to_list (Delta.net_effect d ~lo:0 ~hi:4) in
  let removed = Delta.compact d in
  (* (1,+1,@5) and (1,-1,@5) vanish; the two key-2 rows merge. *)
  Alcotest.(check int) "rows removed" 3 removed;
  Alcotest.(check int) "rows left" 2 (Delta.length d);
  Alcotest.(check (list (pair (Alcotest.testable Tuple.pp Tuple.equal) int)))
    "full window preserved" before
    (Relation.to_list (Delta.net_effect d ~lo:0 ~hi:10));
  Alcotest.(check (list (pair (Alcotest.testable Tuple.pp Tuple.equal) int)))
    "partial window preserved" mid
    (Relation.to_list (Delta.net_effect d ~lo:0 ~hi:4))

let prop_compact_preserves_windows =
  QCheck.Test.make ~name:"compact preserves every window" ~count:200 rows_arb
    (fun rows ->
      let d = delta_of rows in
      let d' = Delta.copy d in
      ignore (Delta.compact d');
      let ok = ref true in
      for a = 0 to 20 do
        for b = a to 20 do
          if
            not
              (Relation.equal
                 (Delta.net_effect d ~lo:a ~hi:b)
                 (Delta.net_effect d' ~lo:a ~hi:b))
          then ok := false
        done
      done;
      !ok)

(* A shared window cursor outlives the drain that built it: rewinding after
   concurrent appends must restart over the delta's extended index, seeing
   rows that landed (inside the window, out of timestamp order) after the
   first drain. *)
let test_window_cursor_rewind_after_append () =
  let d = delta_of [ (1, 1, 5); (2, 1, 2) ] in
  let c = Delta.window_cursor d ~lo:0 ~hi:10 in
  let ts_seen () = List.map (fun (r : Cursor.row) -> r.ts) (Cursor.to_list c) in
  Alcotest.(check (list int)) "first drain, timestamp order" [ 2; 5 ] (ts_seen ());
  Delta.append d (Tuple.ints [ 3 ]) ~count:1 ~ts:3;
  Delta.append d (Tuple.ints [ 4 ]) ~count:1 ~ts:12;
  Cursor.rewind c;
  Alcotest.(check (list int))
    "rewind picks up the in-window append, still excludes ts>hi" [ 2; 3; 5 ]
    (ts_seen ());
  Cursor.rewind c;
  Alcotest.(check (list int)) "rewind is repeatable" [ 2; 3; 5 ] (ts_seen ())

let suite =
  suite
  @ [
      Alcotest.test_case "compact" `Quick test_compact;
      qtest prop_compact_preserves_windows;
      Alcotest.test_case "window cursor rewind after appends" `Quick
        test_window_cursor_rewind_after_append;
    ]

(* Reference model: random sequences of in-order and out-of-order appends,
   truncate, prune and compact, interleaved with every read, each checked
   against a naive model that keeps the rows in arrival order and sorts
   everything on every read. *)
type op =
  | Append_in_order of int * int * int  (** key, count, ts step *)
  | Append_late of int * int * int  (** key, count, ts back-step *)
  | Truncate of int  (** rows to drop, modulo the length *)
  | Prune of int
  | Compact
  | Window of int * int
  | Rewind of int  (** which open cursor *)
  | Stats  (** min_ts, max_ts, length and the unbounded count *)

let op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map3
            (fun k c s -> Append_in_order (k, c, s))
            (int_range 0 3) (int_range (-2) 2) (int_range 0 2) );
        ( 3,
          map3
            (fun k c s -> Append_late (k, c, s))
            (int_range 0 3) (int_range (-2) 2) (int_range 1 8) );
        (1, map (fun n -> Truncate n) (int_range 0 4));
        (1, map (fun t -> Prune t) (int_range 0 40));
        (1, return Compact);
        (3, map2 (fun a b -> Window (a, b)) (int_range (-1) 42) (int_range 0 42));
        (2, map (fun i -> Rewind i) (int_range 0 3));
        (1, return Stats);
      ])

let print_op = function
  | Append_in_order (k, c, s) -> Printf.sprintf "in(%d,%+d,+%d)" k c s
  | Append_late (k, c, s) -> Printf.sprintf "late(%d,%+d,-%d)" k c s
  | Truncate n -> Printf.sprintf "truncate-%d" n
  | Prune t -> Printf.sprintf "prune<=%d" t
  | Compact -> "compact"
  | Window (a, b) -> Printf.sprintf "window(%d,%d]" a b
  | Rewind i -> Printf.sprintf "rewind#%d" i
  | Stats -> "stats"

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map print_op ops))
    QCheck.Gen.(list_size (0 -- 80) op_gen)

let key_of tuple =
  match Tuple.get tuple 0 with Value.Int k -> k | _ -> assert false

let cursor_triples c =
  List.map
    (fun (r : Cursor.row) -> (key_of r.tuple, r.count, r.ts))
    (Cursor.to_list c)

(* The model's window: a stable sort of all rows, then a filter. *)
let model_window rows ~lo ~hi =
  List.stable_sort (fun (_, _, a) (_, _, b) -> Int.compare a b) rows
  |> List.filter (fun (_, _, ts) -> lo < ts && ts <= hi)

let model_compact rows =
  let merged =
    List.fold_left
      (fun acc (k, c, ts) ->
        if List.exists (fun (k', _, ts') -> k = k' && ts = ts') acc then
          List.map
            (fun ((k', c', ts') as r) ->
              if k = k' && ts = ts' then (k', c' + c, ts') else r)
            acc
        else acc @ [ (k, c, ts) ])
      [] rows
  in
  List.filter (fun (_, c, _) -> c <> 0) merged

let prop_reference_model =
  QCheck.Test.make ~name:"delta index matches a sort-everything model"
    ~count:500 ops_arb (fun ops ->
      let d = Delta.create schema in
      let model = ref [] (* arrival order *) and clock = ref 1 in
      let cursors = ref [] in
      let triples rows =
        List.map (fun (r : Delta.row) -> (key_of r.tuple, r.count, r.ts)) rows
      in
      let fail what =
        QCheck.Test.fail_reportf "%s disagrees with the model after [%s]" what
          (String.concat " " (List.map print_op ops))
      in
      let check_window ~lo ~hi got =
        if got <> model_window !model ~lo ~hi then
          fail (Printf.sprintf "window (%d,%d]" lo hi)
      in
      let append k c ts =
        Delta.append d (Tuple.ints [ k ]) ~count:c ~ts;
        if c <> 0 then model := !model @ [ (k, c, ts) ]
      in
      let max_model () =
        List.fold_left (fun m (_, _, ts) -> max m ts) min_int !model
      in
      let check_stats () =
        let tss = List.map (fun (_, _, ts) -> ts) !model in
        let opt f =
          match tss with [] -> None | x :: xs -> Some (List.fold_left f x xs)
        in
        if Delta.min_ts d <> opt min then fail "min_ts";
        if Delta.max_ts d <> opt max then fail "max_ts";
        if Delta.length d <> List.length !model then fail "length";
        if Delta.window_count d ~lo:min_int ~hi:max_int <> List.length !model
        then fail "full window_count"
      in
      (* Reads run only where an op asks for them, so several appends can
         build up an unindexed tail before the next read merges it. *)
      List.iter
        (function
          | Append_in_order (k, c, s) ->
              clock := max !clock (max_model ()) + s;
              append k c !clock
          | Append_late (k, c, s) -> append k c (max 1 (!clock - s))
          | Truncate n ->
              let len = List.length !model in
              let keep = len - (n mod (len + 1)) in
              Delta.truncate d keep;
              model := List.filteri (fun i _ -> i < keep) !model
          | Prune upto ->
              let dropped = Delta.prune d ~upto in
              let kept = List.filter (fun (_, _, ts) -> ts > upto) !model in
              if dropped <> List.length !model - List.length kept then
                fail "prune count";
              model := kept
          | Compact ->
              let removed = Delta.compact d in
              let merged = model_compact !model in
              if removed <> List.length !model - List.length merged then
                fail "compact count";
              model := merged
          | Window (lo, hi) ->
              check_window ~lo ~hi (triples (Delta.window d ~lo ~hi));
              if
                Delta.window_count d ~lo ~hi
                <> List.length (model_window !model ~lo ~hi)
              then fail (Printf.sprintf "window_count (%d,%d]" lo hi);
              let c = Delta.window_cursor d ~lo ~hi in
              check_window ~lo ~hi (cursor_triples c);
              cursors := (c, lo, hi) :: !cursors
          | Rewind i -> (
              match List.nth_opt !cursors i with
              | None -> ()
              | Some (c, lo, hi) ->
                  Cursor.rewind c;
                  check_window ~lo ~hi (cursor_triples c))
          | Stats -> check_stats ())
        ops;
      check_stats ();
      true)

(* Words allocated by [f]: minor allocations plus direct major ones. *)
let allocated_words f =
  let before = Gc.quick_stat () in
  f ();
  let after = Gc.quick_stat () in
  let total (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words in
  total after -. total before

let alloc_n = 20_000

(* Per append plus its read: the row record, amortized vector growth and,
   out of order, the one-row tail merged in. Rebuilding and re-sorting the
   whole index per read allocated about 50 000 words per append here. *)
let alloc_bound_per_row = 64.

let check_alloc_linear what rows =
  let d = Delta.create schema in
  let words =
    allocated_words (fun () ->
        Array.iter
          (fun (tuple, ts) ->
            Delta.append d tuple ~count:1 ~ts;
            ignore (Delta.window_count d ~lo:(ts - 100) ~hi:ts))
          rows)
  in
  let per_row = words /. float_of_int alloc_n in
  if per_row > alloc_bound_per_row then
    Alcotest.failf "%s: %.0f words per append+count (bound %.0f)" what per_row
      alloc_bound_per_row

let test_alloc_in_order () =
  let rows = Array.init alloc_n (fun i -> (Tuple.ints [ i mod 7 ], i + 1)) in
  check_alloc_linear "in-order appends" rows

(* A view-like stream: one row in four lands up to 63 timestamps late. *)
let test_alloc_view_like () =
  let rng = Random.State.make [| 19 |] in
  let rows =
    Array.init alloc_n (fun i ->
        let late =
          if Random.State.int rng 4 = 0 then Random.State.int rng 64 else 0
        in
        (Tuple.ints [ i mod 7 ], max 1 (i + 1 - late)))
  in
  check_alloc_linear "out-of-order appends within the last 64" rows

(* Pruned rows must become garbage: a gc that keeps them reachable from
   the delta's spare capacity frees nothing. *)
let test_prune_releases_rows () =
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let d = Delta.create schema in
  let before = live () in
  for i = 1 to 50_000 do
    Delta.append d (Tuple.ints [ i ]) ~count:1 ~ts:i
  done;
  let full = live () in
  Alcotest.(check int) "pruned" 49_900 (Delta.prune d ~upto:49_900);
  let after = live () in
  if after - before > (full - before) / 4 then
    Alcotest.failf "live words: %d before, %d full, %d after the prune" before
      full after;
  Alcotest.(check int) "rows left" 100 (Delta.window_count d ~lo:0 ~hi:max_int)

let suite =
  suite
  @ [
      qtest prop_reference_model;
      Alcotest.test_case "pruned rows are released" `Quick
        test_prune_releases_rows;
      Alcotest.test_case "in-order appends allocate O(n)" `Quick
        test_alloc_in_order;
      Alcotest.test_case "late appends within 64 allocate O(n)" `Quick
        test_alloc_view_like;
    ]
