(* Shared-maintenance tests: canonical query signatures (alias and
   source-order invariance), the drain-scoped delta memo, sibling views
   replaying each other's work, memoized empty windows, and the
   retry-rollback/memo-eviction interaction. *)

open Test_support.Helpers
open Roll_relation
module Fault = Roll_util.Fault
module Retry = Roll_util.Retry

let sig_of view q = C.Pquery.signature view ~rule:`Min q

let test_signature_alias_invariant () =
  let s = two_table () in
  let twin = clone_view s.db s.view ~name:"rs_twin" in
  let q = C.Pquery.all_base 2 in
  Alcotest.(check string) "all-base signatures equal" (sig_of s.view q)
    (sig_of twin q);
  let qw = C.Pquery.replace q 0 (C.Pquery.Win { lo = 3; hi = 9 }) in
  Alcotest.(check string) "windowed signatures equal" (sig_of s.view qw)
    (sig_of twin qw);
  let qw1 = C.Pquery.replace q 1 (C.Pquery.Win { lo = 3; hi = 9 }) in
  Alcotest.(check bool) "window over r is not window over s" false
    (String.equal (sig_of s.view qw) (sig_of s.view qw1))

let test_signature_permutation_invariant () =
  let s = two_table () in
  let swapped = swapped_clone s.db s.view ~name:"rs_swapped" in
  (* The window over table r sits at position 0 in the original and at
     position 1 in the swapped twin; canonicalization lines them up. *)
  let win = C.Pquery.Win { lo = 2; hi = 7 } in
  let q_orig = C.Pquery.replace (C.Pquery.all_base 2) 0 win in
  let q_swap = C.Pquery.replace (C.Pquery.all_base 2) 1 win in
  Alcotest.(check string) "canonical modulo source order"
    (sig_of s.view q_orig) (sig_of swapped q_swap);
  Alcotest.(check string) "all-base canonical modulo source order"
    (sig_of s.view (C.Pquery.all_base 2))
    (sig_of swapped (C.Pquery.all_base 2))

let test_signature_distinguishes () =
  let s = two_table () in
  let sources = [ ("r", "r"); ("s", "s") ] in
  let b = C.View.binder s.db sources in
  let filtered =
    C.View.create s.db ~name:"rs_filtered" ~sources
      ~predicate:
        [
          Predicate.join (b "r" "k") (b "s" "k");
          Predicate.cmp Predicate.Le
            (Predicate.Col (b "r" "v"))
            (Predicate.Const (Value.Int 3));
        ]
      ~project:[ b "r" "k"; b "r" "v"; b "s" "w" ]
  in
  let q = C.Pquery.all_base 2 in
  Alcotest.(check bool) "extra filter changes the signature" false
    (String.equal (sig_of s.view q) (sig_of filtered q));
  Alcotest.(check bool) "window bounds are part of the identity" false
    (String.equal
       (sig_of s.view (C.Pquery.replace q 0 (C.Pquery.Win { lo = 1; hi = 2 })))
       (sig_of s.view (C.Pquery.replace q 0 (C.Pquery.Win { lo = 1; hi = 3 }))))

let row k count ts = { Delta.tuple = Tuple.ints [ k ]; count; ts }

let test_memo_ops () =
  let m = C.Memo.create () in
  let key sign t_new =
    { C.Memo.signature = "q"; tau = [| 0; 4 |]; t_new; sign }
  in
  Alcotest.(check bool) "miss on empty" true (C.Memo.find m (key 1 7) = None);
  C.Memo.add m (key 1 7) [| row 1 1 5 |];
  (match C.Memo.find m (key 1 7) with
  | Some [| r |] -> Alcotest.(check int) "stored row" 5 r.Delta.ts
  | _ -> Alcotest.fail "expected the stored entry");
  Alcotest.(check bool) "sign is part of the key" true
    (C.Memo.find m (key (-1) 7) = None);
  Alcotest.(check bool) "t_new is part of the key" true
    (C.Memo.find m (key 1 8) = None);
  Alcotest.(check int) "hits" 1 (C.Memo.hits m);
  Alcotest.(check int) "misses" 3 (C.Memo.misses m);
  let mark = C.Memo.mark m in
  C.Memo.add m (key 1 8) [| row 2 1 6 |];
  C.Memo.add m (key (-1) 9) [||];
  Alcotest.(check int) "size before evict" 3 (C.Memo.size m);
  C.Memo.evict_since m ~owner:0 mark;
  Alcotest.(check int) "size after evict" 1 (C.Memo.size m);
  Alcotest.(check bool) "entry after the mark evicted" true
    (C.Memo.find m (key 1 8) = None);
  Alcotest.(check bool) "entry before the mark survives" true
    (C.Memo.find m (key 1 7) <> None);
  C.Memo.clear m;
  Alcotest.(check int) "cleared" 0 (C.Memo.size m);
  let d = C.Memo.create ~enabled:false () in
  C.Memo.add d (key 1 7) [| row 1 1 5 |];
  Alcotest.(check bool) "disabled memo finds nothing" true
    (C.Memo.find d (key 1 7) = None);
  Alcotest.(check int) "disabled memo stores nothing" 0 (C.Memo.size d)

(* Two contexts over alias-renamed twins share one enabled memo: the
   second view_delta replays the first one's rows without executing a
   single query, and both deltas pass the timed oracle check. *)
let test_sibling_sharing () =
  let s = two_table () in
  let twin = clone_view s.db s.view ~name:"rs_share" in
  let rng = Prng.create ~seed:11 in
  random_txns rng s 25;
  let ctx_a = ctx_of s in
  let ctx_b = C.Ctx.create s.db s.capture twin in
  let memo = C.Memo.create () in
  ctx_a.C.Ctx.memo <- memo;
  ctx_b.C.Ctx.memo <- memo;
  let hi = Database.now s.db in
  C.Compute_delta.view_delta ctx_a ~lo:0 ~hi;
  C.Compute_delta.view_delta ctx_b ~lo:0 ~hi;
  Alcotest.(check bool) "twin replayed from the memo" true
    (C.Counters.count ctx_b.C.Ctx.counters C.Counters.memo_hits > 0);
  Alcotest.(check int) "twin executed no queries" 0
    (C.Counters.count ctx_b.C.Ctx.counters C.Counters.queries);
  Alcotest.(check relation) "identical net effects"
    (Delta.net_effect ctx_a.C.Ctx.out ~lo:0 ~hi)
    (Delta.net_effect ctx_b.C.Ctx.out ~lo:0 ~hi);
  check_ok
    (C.Oracle.check_timed_view_delta s.history s.view ctx_a.C.Ctx.out ~lo:0 ~hi);
  check_ok
    (C.Oracle.check_timed_view_delta s.history twin ctx_b.C.Ctx.out ~lo:0 ~hi)

(* With the empty-window short-circuit off, provably empty windows still
   run queries — and their (empty) results memoize and replay like any
   other entry. Churn touches only r, so every window over s is empty. *)
let test_memoized_empty_windows () =
  let s = two_table () in
  let twin = clone_view s.db s.view ~name:"rs_empty" in
  let rng = Prng.create ~seed:3 in
  for _ = 1 to 15 do
    ignore
      (Database.run s.db (fun txn ->
           Database.insert txn ~table:"r"
             (Tuple.ints [ Prng.int rng 8; Prng.int rng 5 ])))
  done;
  let ctx_a = ctx_of s in
  let ctx_b = C.Ctx.create s.db s.capture twin in
  let memo = C.Memo.create () in
  ctx_a.C.Ctx.memo <- memo;
  ctx_b.C.Ctx.memo <- memo;
  ctx_a.C.Ctx.skip_empty_windows <- false;
  ctx_b.C.Ctx.skip_empty_windows <- false;
  let hi = Database.now s.db in
  C.Compute_delta.view_delta ctx_a ~lo:0 ~hi;
  C.Compute_delta.view_delta ctx_b ~lo:0 ~hi;
  Alcotest.(check bool) "twin replayed (including empty computations)" true
    (C.Counters.count ctx_b.C.Ctx.counters C.Counters.memo_hits > 0);
  Alcotest.(check int) "twin executed no queries" 0
    (C.Counters.count ctx_b.C.Ctx.counters C.Counters.queries);
  check_ok
    (C.Oracle.check_timed_view_delta s.history s.view ctx_a.C.Ctx.out ~lo:0 ~hi);
  check_ok
    (C.Oracle.check_timed_view_delta s.history twin ctx_b.C.Ctx.out ~lo:0 ~hi)

(* Regression: a step that fails after computing (and memoizing) its delta
   must not serve its own aborted rows on the retry. The rollback evicts
   the failed step's memo entries alongside the Delta.truncate, so the
   re-run recomputes — memo hits stay at zero — and the final contents
   match the oracle. *)
let test_retry_evicts_aborted_entries () =
  let s = two_table () in
  let service = C.Service.create ~sharing:true s.db s.capture in
  let ctl =
    C.Service.register service
      ~algorithm:(C.Controller.Rolling (C.Rolling.uniform 4))
      s.view
  in
  let rng = Prng.create ~seed:7 in
  random_txns rng s 20;
  (* Fail the second advancing step once, after its forward query and
     compensation have run (and memoized) but before the frontier moves. *)
  (C.Controller.ctx ctl).C.Ctx.fault <-
    Fault.transient_at "rolling.pre_advance" ~hit:2 ~failures:1;
  (match
     C.Service.try_step_all service ~budget:100
       ~retry:(Retry.policy ~max_attempts:3 ())
   with
  | Ok _ -> ()
  | Error (e : C.Service.step_error) ->
      Alcotest.failf "permanent failure at %s after %d attempts" e.point
        e.attempts);
  let stats = C.Controller.counters ctl in
  Alcotest.(check bool) "the step was retried" true (C.Counters.count stats C.Counters.retries > 0);
  Alcotest.(check int) "the retry recomputed instead of replaying" 0
    (C.Counters.count stats C.Counters.memo_hits);
  ignore (C.Controller.refresh_latest ctl);
  Alcotest.(check relation) "contents match the oracle"
    (C.Oracle.view_at s.history s.view (C.Controller.as_of ctl))
    (C.Controller.contents ctl)

(* A sharing service keeps sibling twins bit-identical to the oracle while
   actually sharing work (memo hits recorded during batched drains). *)
let test_service_sharing_end_to_end () =
  let s = two_table () in
  let siblings =
    [ s.view; clone_view s.db s.view ~name:"rs_b"; clone_view s.db s.view ~name:"rs_c" ]
  in
  let service = C.Service.create ~sharing:true s.db s.capture in
  let ctls =
    List.map
      (fun v ->
        C.Service.register service
          ~algorithm:(C.Controller.Rolling (C.Rolling.uniform 3))
          v)
      siblings
  in
  let rng = Prng.create ~seed:42 in
  for _ = 1 to 5 do
    random_txns rng s 8;
    ignore (C.Service.step_all service ~budget:40)
  done;
  C.Service.refresh_all service;
  let hits =
    List.fold_left
      (fun acc ctl -> acc + C.Counters.count (C.Controller.counters ctl) C.Counters.memo_hits)
      0 ctls
  in
  Alcotest.(check bool) "siblings shared work" true (hits > 0);
  List.iter2
    (fun v ctl ->
      Alcotest.(check relation)
        (C.View.name v ^ " matches the oracle")
        (C.Oracle.view_at s.history v (C.Controller.as_of ctl))
        (C.Controller.contents ctl))
    siblings ctls;
  let batched =
    int_of_float
      (C.Counters.get_by
         (C.Scheduler.counters (C.Service.scheduler service))
         C.Counters.sched_batched "propagate")
  in
  Alcotest.(check bool) "drains batched same-window steps" true (batched > 0)

let suite =
  [
    Alcotest.test_case "signature: alias invariance" `Quick
      test_signature_alias_invariant;
    Alcotest.test_case "signature: source-order invariance" `Quick
      test_signature_permutation_invariant;
    Alcotest.test_case "signature: distinguishes shapes" `Quick
      test_signature_distinguishes;
    Alcotest.test_case "memo operations" `Quick test_memo_ops;
    Alcotest.test_case "sibling contexts share one memo" `Quick
      test_sibling_sharing;
    Alcotest.test_case "memoized empty windows" `Quick
      test_memoized_empty_windows;
    Alcotest.test_case "retry evicts the aborted step's entries" `Quick
      test_retry_evicts_aborted_entries;
    Alcotest.test_case "sharing service end to end" `Quick
      test_service_sharing_end_to_end;
  ]
