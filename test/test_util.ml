(* Unit and property tests for the utility library. *)

module Vec = Roll_util.Vec
module Heap = Roll_util.Heap
module Prng = Roll_util.Prng
module Zipf = Roll_util.Zipf
module Summary = Roll_util.Summary

let qtest = QCheck_alcotest.to_alcotest

(* --- Vec --- *)

let test_vec_basic () =
  let v = Vec.create () in
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  Vec.push v 1;
  Vec.push v 2;
  Vec.push v 3;
  Alcotest.(check int) "length" 3 (Vec.length v);
  Alcotest.(check int) "get" 2 (Vec.get v 1);
  Vec.set v 1 9;
  Alcotest.(check int) "set" 9 (Vec.get v 1);
  Alcotest.(check (option int)) "last" (Some 3) (Vec.last v);
  Alcotest.(check (option int)) "pop" (Some 3) (Vec.pop v);
  Alcotest.(check int) "after pop" 2 (Vec.length v);
  Vec.clear v;
  Alcotest.(check bool) "cleared" true (Vec.is_empty v)

let test_vec_bounds () =
  let v = Vec.of_list [ 1; 2 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get") (fun () ->
      ignore (Vec.get v 2));
  Alcotest.check_raises "get negative" (Invalid_argument "Vec.get") (fun () ->
      ignore (Vec.get v (-1)));
  Alcotest.check_raises "set oob" (Invalid_argument "Vec.set") (fun () ->
      Vec.set v 5 0)

let test_vec_iter_range () =
  let v = Vec.of_list [ 0; 1; 2; 3; 4 ] in
  let seen = ref [] in
  Vec.iter_range (fun x -> seen := x :: !seen) v ~lo:1 ~hi:3;
  Alcotest.(check (list int)) "range" [ 1; 2 ] (List.rev !seen);
  seen := [];
  Vec.iter_range (fun x -> seen := x :: !seen) v ~lo:(-5) ~hi:50;
  Alcotest.(check int) "clamped" 5 (List.length !seen)

let test_vec_growth () =
  let v = Vec.create () in
  for i = 0 to 9999 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 10000 (Vec.length v);
  Alcotest.(check int) "first" 0 (Vec.get v 0);
  Alcotest.(check int) "last" 9999 (Vec.get v 9999);
  Alcotest.(check int) "fold" (9999 * 10000 / 2) (Vec.fold_left ( + ) 0 v)

let prop_vec_roundtrip =
  QCheck.Test.make ~name:"vec of_list/to_list roundtrip" ~count:200
    QCheck.(list int)
    (fun xs -> Vec.to_list (Vec.of_list xs) = xs)

let prop_vec_lower_bound =
  QCheck.Test.make ~name:"vec lower_bound matches linear scan" ~count:500
    QCheck.(pair (list small_nat) small_nat)
    (fun (xs, k) ->
      let xs = List.sort compare xs in
      let v = Vec.of_list xs in
      let expected =
        let rec scan i = function
          | [] -> i
          | x :: rest -> if x >= k then i else scan (i + 1) rest
        in
        scan 0 xs
      in
      Vec.lower_bound v ~key:(fun x -> x) k = expected)

(* --- Heap --- *)

let test_heap_order () =
  let h = Heap.create () in
  List.iter
    (fun (p, x) -> Heap.add h ~priority:p x)
    [ (3.0, "c"); (1.0, "a"); (2.0, "b"); (0.5, "z") ];
  let drain () =
    let rec loop acc =
      match Heap.pop h with None -> List.rev acc | Some (_, x) -> loop (x :: acc)
    in
    loop []
  in
  Alcotest.(check (list string)) "sorted" [ "z"; "a"; "b"; "c" ] (drain ())

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun x -> Heap.add h ~priority:1.0 x) [ 1; 2; 3; 4; 5 ];
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some (_, x) -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "insertion order on ties" [ 1; 2; 3; 4; 5 ] (drain [])

let test_heap_peek () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty peek" true (Heap.peek h = None);
  Heap.add h ~priority:2.0 "b";
  Heap.add h ~priority:1.0 "a";
  (match Heap.peek h with
  | Some (p, x) ->
      Alcotest.(check (float 0.0)) "peek priority" 1.0 p;
      Alcotest.(check string) "peek value" "a" x
  | None -> Alcotest.fail "expected peek");
  Alcotest.(check int) "peek does not remove" 2 (Heap.length h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in priority order" ~count:300
    QCheck.(list (pair (float_range 0.0 100.0) int))
    (fun items ->
      let h = Heap.create () in
      List.iter (fun (p, x) -> Heap.add h ~priority:p x) items;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some (p, _) -> drain (p :: acc)
      in
      let prios = drain [] in
      List.sort compare prios = prios)

(* --- Prng / Zipf --- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:5 and b = Prng.create ~seed:5 in
  let xs g = List.init 20 (fun _ -> Prng.int g 1000) in
  Alcotest.(check (list int)) "same seed, same stream" (xs a) (xs b)

let test_prng_ranges () =
  let g = Prng.create ~seed:1 in
  for _ = 1 to 1000 do
    let x = Prng.int_in g ~lo:5 ~hi:9 in
    if x < 5 || x > 9 then Alcotest.fail "int_in out of range"
  done;
  Alcotest.check_raises "bad range" (Invalid_argument "Prng.int_in") (fun () ->
      ignore (Prng.int_in g ~lo:3 ~hi:2))

let test_zipf_skew () =
  let g = Prng.create ~seed:2 in
  let z = Zipf.create ~n:100 ~theta:1.2 in
  let counts = Array.make 100 0 in
  for _ = 1 to 20000 do
    let k = Zipf.sample z g in
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "rank 0 beats rank 50" true (counts.(0) > counts.(50));
  Alcotest.(check bool) "rank 0 dominates" true
    (counts.(0) > 20000 / 20)

let test_zipf_uniform () =
  let g = Prng.create ~seed:3 in
  let z = Zipf.create ~n:10 ~theta:0.0 in
  let counts = Array.make 10 0 in
  for _ = 1 to 20000 do
    counts.(Zipf.sample z g) <- counts.(Zipf.sample z g) + 1
  done;
  Array.iter
    (fun c ->
      if c < 1000 || c > 3500 then
        Alcotest.failf "theta=0 should be near-uniform, got bucket %d" c)
    counts

(* Degenerate parameters are rejected up front rather than producing a
   NaN-poisoned cdf whose sampler never terminates or always returns 0. *)
let test_zipf_degenerate () =
  let rejected msg f =
    Alcotest.(check bool) msg true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  rejected "n = 0" (fun () -> Zipf.create ~n:0 ~theta:1.0);
  rejected "n < 0" (fun () -> Zipf.create ~n:(-3) ~theta:1.0);
  rejected "theta < 0" (fun () -> Zipf.create ~n:10 ~theta:(-0.5));
  rejected "theta nan" (fun () -> Zipf.create ~n:10 ~theta:Float.nan);
  rejected "theta infinite" (fun () -> Zipf.create ~n:10 ~theta:Float.infinity);
  (* The surviving edges still sample within range. *)
  let g = Prng.create ~seed:4 in
  let solo = Zipf.create ~n:1 ~theta:2.0 in
  for _ = 1 to 100 do
    Alcotest.(check int) "n=1 always rank 0" 0 (Zipf.sample solo g)
  done;
  let sharp = Zipf.create ~n:4 ~theta:50.0 in
  for _ = 1 to 100 do
    Alcotest.(check int) "huge theta collapses to rank 0" 0
      (Zipf.sample sharp g)
  done

(* --- Summary --- *)

let test_summary_stats () =
  let s = Summary.create () in
  List.iter (Summary.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check int) "count" 8 (Summary.count s);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Summary.mean s);
  Alcotest.(check (float 1e-6)) "stddev (sample)" 2.13809 (Summary.stddev s);
  Alcotest.(check (float 0.0)) "min" 2.0 (Summary.min_value s);
  Alcotest.(check (float 0.0)) "max" 9.0 (Summary.max_value s);
  Alcotest.(check (float 1e-9)) "total" 40.0 (Summary.total s)

let test_summary_empty () =
  let s = Summary.create () in
  Alcotest.(check int) "count" 0 (Summary.count s);
  Alcotest.(check (float 0.0)) "mean" 0.0 (Summary.mean s);
  Alcotest.(check (float 0.0)) "stddev" 0.0 (Summary.stddev s)

let prop_summary_mean =
  QCheck.Test.make ~name:"summary mean matches naive mean" ~count:300
    QCheck.(list_of_size Gen.(1 -- 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Summary.create () in
      List.iter (Summary.add s) xs;
      let naive = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      abs_float (Summary.mean s -. naive) < 1e-6)

(* --- Tablefmt --- *)

let test_tablefmt_alignment () =
  let out =
    Roll_util.Tablefmt.render ~header:[ "a"; "bb" ]
      [ [ "xxx"; "y" ]; [ "z" ] ]
  in
  let lines = String.split_on_char '\n' out in
  (match lines with
  | header :: rule :: _ ->
      Alcotest.(check int) "header and rule same width" (String.length header)
        (String.length rule)
  | _ -> Alcotest.fail "expected at least two lines");
  Alcotest.(check bool) "contains padded cell" true
    (String.length out > 0)

let suite =
  [
    Alcotest.test_case "vec basics" `Quick test_vec_basic;
    Alcotest.test_case "vec bounds checks" `Quick test_vec_bounds;
    Alcotest.test_case "vec iter_range" `Quick test_vec_iter_range;
    Alcotest.test_case "vec growth to 10k" `Quick test_vec_growth;
    qtest prop_vec_roundtrip;
    qtest prop_vec_lower_bound;
    Alcotest.test_case "heap orders by priority" `Quick test_heap_order;
    Alcotest.test_case "heap breaks ties FIFO" `Quick test_heap_fifo_ties;
    Alcotest.test_case "heap peek" `Quick test_heap_peek;
    qtest prop_heap_sorts;
    Alcotest.test_case "prng determinism" `Quick test_prng_deterministic;
    Alcotest.test_case "prng ranges" `Quick test_prng_ranges;
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "zipf theta=0 uniform" `Quick test_zipf_uniform;
    Alcotest.test_case "zipf degenerate params rejected" `Quick
      test_zipf_degenerate;
    Alcotest.test_case "summary statistics" `Quick test_summary_stats;
    Alcotest.test_case "summary empty" `Quick test_summary_empty;
    qtest prop_summary_mean;
    Alcotest.test_case "tablefmt alignment" `Quick test_tablefmt_alignment;
  ]

let test_percentiles () =
  let s = Summary.create ~keep_samples:true () in
  for i = 1 to 100 do
    Summary.add s (float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Summary.percentile s 0.5);
  Alcotest.(check (float 1e-9)) "p95" 95.0 (Summary.percentile s 0.95);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Summary.percentile s 1.0);
  let no_samples = Summary.create () in
  Summary.add no_samples 1.0;
  Alcotest.(check bool) "no samples raises" true
    (try
       ignore (Summary.percentile no_samples 0.5);
       false
     with Invalid_argument _ -> true)

let suite = suite @ [ Alcotest.test_case "percentiles" `Quick test_percentiles ]

(* Counters: declared series, one snapshot, reset. *)
let test_stats_module () =
  let module Counters = Roll_core.Counters in
  let st = Counters.create () in
  Counters.incr st Counters.queries;
  Counters.add st Counters.rows_read 10.;
  Counters.add st Counters.rows_emitted 2.;
  Counters.incr st Counters.compute_delta_calls;
  Counters.add_by st Counters.resource_scanned "r" 4.;
  Alcotest.(check int) "queries" 1 (Counters.count st Counters.queries);
  Alcotest.(check int) "rows read" 10 (Counters.count st Counters.rows_read);
  Alcotest.(check int) "rows emitted" 2 (Counters.count st Counters.rows_emitted);
  Alcotest.(check int) "cd calls" 1 (Counters.count st Counters.compute_delta_calls);
  let snapshot = Roll_obs.Metrics.snapshot (Counters.metrics st) in
  Alcotest.(check (float 0.)) "read from a snapshot" 10.
    (Counters.read snapshot Counters.rows_read);
  Alcotest.(check (option (float 0.))) "labeled series in the registry" (Some 4.)
    (Roll_obs.Metrics.find_value (Counters.metrics st)
       ~labels:[ ("resource", "r") ]
       "roll_resource_rows_scanned_total");
  Alcotest.(check (list string)) "label values" [ "r" ]
    (Counters.values st Counters.resource_scanned);
  Alcotest.(check string) "pp"
    "roll_compute_delta_calls_total=1 roll_queries_total=1 \
     roll_rows_emitted_total=2 roll_rows_read_total=10"
    (Format.asprintf "%a" Counters.pp st);
  Alcotest.(check bool) "negative increment refused" true
    (try
       Counters.add st Counters.queries (-1.);
       false
     with Invalid_argument _ -> true);
  Counters.reset st;
  Alcotest.(check int) "reset" 0 (Counters.count st Counters.queries);
  Alcotest.(check (float 0.)) "reset labeled" 0.
    (Counters.get_by st Counters.resource_scanned "r")

let suite = suite @ [ Alcotest.test_case "stats module" `Quick test_stats_module ]
