(* Higher-order delta processing, the narrowing policy of derived
   partials: auxiliary-view derivation, substitution with freshness
   fallback, signature dedupe across sibling views, mirror sync/gc, and
   orphan retirement. The crash/recovery side lives in test_fault.ml (aux
   seeds) — here everything runs in one process. *)

open Test_support.Helpers
open Roll_relation

let rolling n = C.Controller.Rolling (C.Rolling.uniform n)

(* ------------------------------------------------------------------ *)
(* Derivation                                                          *)

let test_derive () =
  (* filtered: source 0 is narrowed by σ(tag>=1) and π{k,v} → one aux. *)
  let s = filtered () in
  (match C.Partial.derive s.view with
  | [ d ] ->
      Alcotest.(check int) "substituted source" 0 d.C.Partial.source;
      Alcotest.(check string) "base table" "r" d.C.Partial.base;
      Alcotest.(check (array int)) "retained columns" [| 0; 1 |]
        d.C.Partial.cols;
      Alcotest.(check int) "local atoms" 1 (List.length d.C.Partial.local)
  | ds ->
      Alcotest.failf "expected exactly one derivation, got %d" (List.length ds));
  (* Full-width, unfiltered partials are refused: every source of the
     two-table and chain scenarios is read whole. *)
  let s2 = two_table () in
  Alcotest.(check int) "two_table derives none" 0
    (List.length (C.Partial.derive s2.view));
  let s3 = three_table () in
  Alcotest.(check int) "three_table derives none" 0
    (List.length (C.Partial.derive s3.view));
  (* Single-source views have no Base terms to substitute. *)
  let solo =
    C.View.create_select s.db ~name:"solo" ~sources:[ ("r", "r") ]
      ~predicate:[]
      ~select:[ ("k", Predicate.Col (Predicate.col 0 0)) ]
  in
  Alcotest.(check int) "single-source derives none" 0
    (List.length (C.Partial.derive solo))

(* ------------------------------------------------------------------ *)
(* Substitution: stale auxiliaries fall back, fresh ones are probed,
   and the maintained contents never depend on which path ran.          *)

let test_fallback_when_stale () =
  let s = filtered () in
  let rng = Prng.create ~seed:42 in
  random_txns rng s 30;
  let ctl =
    C.Controller.create s.db s.capture s.view ~algorithm:(rolling 4)
  in
  let reg = C.Partial.create ~interval:4 s.db s.capture in
  let entries = C.Partial.attach reg ctl in
  Alcotest.(check int) "one auxiliary attached" 1 (List.length entries);
  let ae = List.hd entries in
  let stats = C.Controller.stats ctl in
  Alcotest.(check int) "no probes yet" 0
    (C.Stats.aux_hits stats + C.Stats.aux_misses stats);
  (* Dirty the base while nobody maintains the auxiliary: every Base-term
     read of r during propagation must fall back to the base table. *)
  random_txns rng s 25;
  C.Controller.refresh_latest ctl |> ignore;
  Alcotest.(check bool) "stale mirror missed" true
    (C.Stats.aux_misses stats > 0);
  Alcotest.(check int) "stale mirror never hit" 0 (C.Stats.aux_hits stats);
  Alcotest.check relation "contents correct via fallback"
    (C.Oracle.view_at s.history s.view (C.Controller.as_of ctl))
    (C.Controller.contents ctl);
  (* Freshen the auxiliary, then change only the other base table: the
     user view's forward queries for s read r as a Base term, and with r
     quiet since the sync those probes hit the mirror. (Changing r too
     would immediately re-stale the mirror — that path is covered above.) *)
  freshen_parts reg ~owner:"rsf";
  Alcotest.(check bool) "mirror caught up" true
    (List.for_all (C.Partial.fresh reg) reg.C.Partial.partials);
  let misses_before = C.Stats.aux_misses stats in
  for _ = 1 to 10 do
    ignore
      (Database.run s.db (fun txn ->
           Database.insert txn ~table:"s"
             (Tuple.ints [ Prng.int rng 8; Prng.int rng 5 ])))
  done;
  ignore (C.Controller.refresh_latest ctl);
  Alcotest.(check bool) "fresh mirror hit" true (C.Stats.aux_hits stats > 0);
  Alcotest.(check int) "fresh mirror did not miss" misses_before
    (C.Stats.aux_misses stats);
  Alcotest.check relation "contents correct via substitution"
    (C.Oracle.view_at s.history s.view (C.Controller.as_of ctl))
    (C.Controller.contents ctl);
  (* The mirror itself equals the auxiliary view at its sync point. *)
  Alcotest.check relation "mirror matches oracle"
    (C.Oracle.view_at s.history
       (C.Controller.view (C.Partial.controller ae))
       ae.C.Partial.mirror_as_of)
    (Table.contents ae.C.Partial.mirror)

(* Auxiliaries on vs off over the same seeded update stream: bit-identical
   user-view contents at every refresh point. *)
let test_on_off_identical () =
  let drive ~auxiliary =
    let s = filtered () in
    let svc = C.Service.create ~auxiliary ~default_sla:10 s.db s.capture in
    let ctl = C.Service.register svc ~algorithm:(rolling 3) s.view in
    let rng = Prng.create ~seed:7 in
    let snaps = ref [] in
    for _ = 1 to 12 do
      random_txns rng s 4;
      ignore (C.Service.step_all svc ~budget:8);
      C.Service.refresh_all svc;
      snaps := C.Controller.contents ctl :: !snaps
    done;
    ignore (C.Controller.refresh_latest ctl);
    let final = C.Controller.contents ctl in
    Alcotest.check relation "matches oracle"
      (C.Oracle.view_at s.history s.view (C.Controller.as_of ctl))
      final;
    (C.Controller.stats ctl, List.rev (final :: !snaps))
  in
  let stats_on, on = drive ~auxiliary:true in
  let _, off = drive ~auxiliary:false in
  Alcotest.(check int) "same number of snapshots" (List.length off)
    (List.length on);
  List.iteri
    (fun i (a, b) ->
      Alcotest.check relation
        (Printf.sprintf "snapshot %d identical aux on vs off" i)
        b a)
    (List.combine on off);
  (* The drives above exercised substitution for real: the service's aux
     band freshens the auxiliary before user steps, so probes hit. *)
  Alcotest.(check bool) "substitution actually fired" true
    (C.Stats.aux_hits stats_on > 0)

(* ------------------------------------------------------------------ *)
(* Service integration: registration, dedupe, status, orphan GC        *)

let test_service_dedupe_and_gc () =
  let s = filtered () in
  let svc = C.Service.create ~auxiliary:true s.db s.capture in
  let reg = C.Service.partials svc in
  ignore (C.Service.register svc ~algorithm:(rolling 3) s.view);
  let aux_names =
    List.filter
      (fun n -> String.length n >= 4 && String.sub n 0 4 = "aux_")
      (C.Service.names svc)
  in
  Alcotest.(check int) "one auxiliary entry registered" 1
    (List.length aux_names);
  let aux_name = List.hd aux_names in
  (* A sibling view with the same shape (fresh aliases) shares the same
     auxiliary instead of double-materializing. *)
  let twin = clone_view s.db s.view ~name:"rsf2" in
  ignore (C.Service.register svc ~algorithm:(rolling 3) twin);
  Alcotest.(check int) "still one auxiliary after the twin" 1
    (List.length (C.Partial.entries reg));
  let p = List.hd reg.C.Partial.partials in
  Alcotest.(check (list string)) "both views own it" [ "rsf"; "rsf2" ]
    (List.sort String.compare p.C.Partial.owners);
  (* Status surfaces the auxiliary row and the owners' probe counters. *)
  let st =
    List.find (fun (x : C.Service.status) -> x.C.Service.aux) (C.Service.status svc)
  in
  Alcotest.(check string) "status aux row" aux_name st.C.Service.name;
  (* Releasing one owner keeps the shared auxiliary alive; releasing the
     last retires it from the registry and the service. *)
  C.Service.unregister svc "rsf";
  Alcotest.(check int) "shared auxiliary survives one release" 1
    (List.length (C.Partial.entries reg));
  Alcotest.(check bool) "entry still scheduled" true
    (List.mem aux_name (C.Service.names svc));
  C.Service.unregister svc "rsf2";
  Alcotest.(check int) "orphan retired from registry" 0
    (List.length (C.Partial.entries reg));
  Alcotest.(check bool) "orphan retired from service" false
    (List.mem aux_name (C.Service.names svc));
  Alcotest.(check (list string)) "no entries left" [] (C.Service.names svc)

let test_mirror_gc () =
  let s = filtered () in
  let rng = Prng.create ~seed:11 in
  random_txns rng s 20;
  let reg = C.Partial.create ~interval:3 s.db s.capture in
  let ctl =
    C.Controller.create s.db s.capture s.view ~algorithm:(rolling 3)
  in
  let ae = List.hd (C.Partial.attach reg ctl) in
  let actl = C.Partial.controller ae in
  random_txns rng s 20;
  ignore (C.Controller.refresh_latest actl);
  (* gc syncs the mirror before pruning the delta window it reads from —
     the mirror must not lose the suffix the prune reclaims. *)
  let pruned = C.Partial.gc ae in
  Alcotest.(check bool) "gc reclaimed applied rows" true (pruned > 0);
  Alcotest.(check int) "mirror synced to hwm"
    (C.Controller.hwm actl)
    ae.C.Partial.mirror_as_of;
  Alcotest.check relation "mirror survives gc"
    (C.Oracle.view_at s.history (C.Controller.view actl)
       ae.C.Partial.mirror_as_of)
    (Table.contents ae.C.Partial.mirror)

let suite =
  [
    Alcotest.test_case "derivation rules" `Quick test_derive;
    Alcotest.test_case "fallback when stale, probe when fresh" `Quick
      test_fallback_when_stale;
    Alcotest.test_case "aux on vs off bit-identical" `Quick
      test_on_off_identical;
    Alcotest.test_case "service dedupe, status and orphan gc" `Quick
      test_service_dedupe_and_gc;
    Alcotest.test_case "mirror survives auxiliary gc" `Quick test_mirror_gc;
  ]
