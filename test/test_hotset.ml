(* Skew-aware heavy-light partitioning: the Partition sketch's bounds and
   hysteresis, group derivation and seeding, migration exactness (the
   light ⊎ heavy union is always exactly the partial), service-driven
   on/off bit-identity, and registry dedupe/orphan retirement. The
   crash/recovery side lives in test_fault.ml (hotset seeds). *)

open Test_support.Helpers
open Roll_relation
module Zipf = Roll_util.Zipf

let rolling n = C.Controller.Rolling (C.Rolling.uniform n)

(* ------------------------------------------------------------------ *)
(* Partition: space-saving estimates and hysteresis                     *)

let test_partition_sketch () =
  let p = C.Partition.create ~capacity:4 () in
  (* Within capacity, estimates are exact and error-free. *)
  C.Partition.observe p 1 ~count:10;
  C.Partition.observe p 2 ~count:5;
  C.Partition.observe p 1 ~count:10;
  Alcotest.(check int) "exact estimate" 20 (C.Partition.estimate p 1);
  Alcotest.(check int) "no error while tracked from birth" 0
    (C.Partition.error p 1);
  Alcotest.(check int) "total mass" 25 (C.Partition.total p);
  (* Deletions and no-ops do not un-skew the stream. *)
  C.Partition.observe p 1 ~count:(-7);
  C.Partition.observe p 1 ~count:0;
  Alcotest.(check int) "non-positive counts ignored" 20
    (C.Partition.estimate p 1);
  (* Overflow evicts the minimum counter; the newcomer inherits its count
     as an error bound, keeping every estimate within total/capacity. *)
  C.Partition.observe p 3 ~count:1;
  C.Partition.observe p 4 ~count:1;
  C.Partition.observe p 5 ~count:2;
  Alcotest.(check int) "occupancy capped" 4 (C.Partition.occupancy p);
  Alcotest.(check bool) "evictee forgotten or inherited" true
    (C.Partition.estimate p 5 >= 2);
  Alcotest.(check bool) "estimate error bounded by total/capacity" true
    (C.Partition.error p 5 <= C.Partition.total p / 4);
  (* Untracked keys read as zero. *)
  Alcotest.(check int) "untracked is zero" 0 (C.Partition.estimate p 99)

let test_partition_hysteresis () =
  (* enter at 30% share, exit below 10%: a key oscillating between the
     two thresholds keeps its current class instead of thrashing. *)
  let p = C.Partition.create ~capacity:8 ~enter:0.3 ~exit_:0.1 () in
  C.Partition.observe p 1 ~count:40;
  C.Partition.observe p 2 ~count:60;
  let promoted, demoted = C.Partition.rebalance p in
  Alcotest.(check (list int)) "both keys promoted" [ 1; 2 ]
    (List.sort Int.compare promoted);
  Alcotest.(check (list int)) "nothing demoted" [] demoted;
  (* Dilute key 1 to a 16% share — between exit and enter: it stays
     heavy. A fresh key at the same share would not be promoted. *)
  C.Partition.observe p 3 ~count:150;
  let promoted, demoted = C.Partition.rebalance p in
  Alcotest.(check (list int)) "diluted heavy key retained" [] demoted;
  Alcotest.(check (list int)) "only the new mass promoted" [ 3 ] promoted;
  Alcotest.(check bool) "key 1 still heavy (hysteresis)" true
    (C.Partition.is_heavy p 1);
  (* Dilute key 1 below the exit threshold: now it leaves. *)
  C.Partition.observe p 3 ~count:250;
  let _, demoted = C.Partition.rebalance p in
  Alcotest.(check (list int)) "diluted below exit demoted" [ 1 ] demoted;
  Alcotest.(check bool) "key 1 light now" false (C.Partition.is_heavy p 1);
  (* force_heavy bypasses enter (recovery path) but not exit. *)
  C.Partition.force_heavy p 1;
  Alcotest.(check bool) "forced heavy" true (C.Partition.is_heavy p 1);
  let _, demoted = C.Partition.rebalance p in
  Alcotest.(check (list int)) "forced key re-demoted by exit rule" [ 1 ]
    demoted;
  (* max_heavy keeps the most frequent members. *)
  let q = C.Partition.create ~capacity:8 ~enter:0.05 ~exit_:0.01 () in
  C.Partition.observe q 1 ~count:50;
  C.Partition.observe q 2 ~count:40;
  C.Partition.observe q 3 ~count:30;
  let promoted, _ = C.Partition.rebalance ~max_heavy:2 q in
  Alcotest.(check (list int)) "max_heavy keeps top keys" [ 1; 2 ]
    (List.sort Int.compare promoted)

(* ------------------------------------------------------------------ *)
(* Derivation and seeding                                               *)

let test_attach_seeds () =
  (* two_table: tie on join atoms → source 0 (r), partitioned on k. *)
  let s = two_table () in
  let rng = Prng.create ~seed:5 in
  random_txns rng s 20;
  let ctl = C.Controller.create s.db s.capture s.view ~algorithm:(rolling 4) in
  let reg = C.Hotset.create (C.Partial.create ~interval:4 s.db s.capture) in
  let recovered = C.Hotset.attach reg ctl in
  Alcotest.(check int) "no heavy keys recovered cold" 0
    (List.length recovered);
  Alcotest.(check (list (pair string int))) "partitioned on r.k"
    [ ("r", 0) ]
    (C.Hotset.partitioned reg ~owner:"rs");
  (* The light residual seeds from the relation's standing contents. *)
  let r = Database.table s.db "r" in
  Alcotest.(check int) "light mirror holds the whole relation"
    (Table.cardinality r)
    (C.Hotset.light_rows reg ~owner:"rs");
  Alcotest.(check bool) "sketch saw the standing mass" true
    (C.Hotset.sketch_keys reg > 0);
  (* three_table: b feeds two join atoms — strictly the most joined. *)
  let s3 = three_table () in
  let ctl3 =
    C.Controller.create s3.db s3.capture s3.view ~algorithm:(rolling 4)
  in
  let reg3 = C.Hotset.create (C.Partial.create ~interval:4 s3.db s3.capture) in
  ignore (C.Hotset.attach reg3 ctl3);
  Alcotest.(check (list (pair string int))) "most-joined source wins"
    [ ("b", 0) ]
    (C.Hotset.partitioned reg3 ~owner:"abc");
  (* Single-source views derive nothing. *)
  let solo =
    C.View.create_select s.db ~name:"solo" ~sources:[ ("r", "r") ]
      ~predicate:[]
      ~select:[ ("k", Predicate.Col (Predicate.col 0 0)) ]
  in
  let ctl_solo =
    C.Controller.create s.db s.capture solo ~algorithm:(rolling 4)
  in
  Alcotest.(check int) "single-source derives nothing" 0
    (List.length (C.Hotset.attach reg ctl_solo));
  Alcotest.(check (list (pair string int))) "no group for solo" []
    (C.Hotset.partitioned reg ~owner:"solo")

(* ------------------------------------------------------------------ *)
(* Migration exactness: light ⊎ heavy is the partial, before and after
   every promotion and demotion.                                        *)

let union_of_parts ctl =
  match substituted_union ctl with
  | Some union -> union
  | None -> Alcotest.fail "no parts for the partitioned source"

let skewed_insert rng zipf db =
  ignore
    (Database.run db (fun txn ->
         Database.insert txn ~table:"r"
           (Tuple.ints [ Zipf.sample zipf rng; Prng.int rng 5; Prng.int rng 5 ])))

let test_migration_exactness () =
  let s = filtered () in
  let rng = Prng.create ~seed:17 in
  let zipf = Zipf.create ~n:8 ~theta:1.4 in
  random_txns rng s 15;
  let ctl = C.Controller.create s.db s.capture s.view ~algorithm:(rolling 4) in
  (* A small sketch with a high enter share so only the dominant keys
     promote, leaving a non-trivial light residual. *)
  let reg =
    C.Hotset.create ~capacity:8 ~max_heavy:3 ~enter:0.2 ~exit_:0.10
      (C.Partial.create ~interval:4 s.db s.capture)
  in
  ignore (C.Hotset.attach reg ctl);
  (* Skew the stream hard toward the zipf head, then migrate. *)
  for _ = 1 to 120 do
    skewed_insert rng zipf s.db
  done;
  Capture.advance s.capture;
  let promoted, demoted = C.Hotset.rebalance reg in
  Alcotest.(check bool) "skew promoted at least one key" true
    (List.length promoted > 0);
  Alcotest.(check int) "nothing to demote yet" 0 (List.length demoted);
  Alcotest.(check int) "census agrees"
    (List.length promoted)
    (C.Hotset.heavy_count reg ~owner:"rsf");
  let schema = Relation.schema (union_of_parts ctl) in
  Alcotest.check relation "light ⊎ heavy = partial after promotion"
    (filtered_partial s.db schema)
    (union_of_parts ctl);
  (* Heavy mirrors hold only their key's rows; the light residual holds
     none of the heavy keys — the partition is disjoint. *)
  List.iter
    (fun (part : C.Partial.part) ->
      let k = Option.get part.C.Partial.key in
      Relation.iter
        (fun tuple _ ->
          match Tuple.get tuple 0 with
          | Value.Int k' ->
              Alcotest.(check int) "heavy mirror keyed correctly" k k'
          | _ -> Alcotest.fail "non-int key")
        (Table.contents part.C.Partial.mirror))
    promoted;
  (* Keep rolling: more skewed change, maintain the heavy partials the
     way the service would, then rebalance again — still exact. *)
  for _ = 1 to 60 do
    skewed_insert rng zipf s.db
  done;
  Capture.advance s.capture;
  freshen_parts (C.Hotset.registry reg) ~owner:"rsf";
  let _, _ = C.Hotset.rebalance reg in
  freshen_parts (C.Hotset.registry reg) ~owner:"rsf";
  Alcotest.check relation "still exact after further maintenance"
    (filtered_partial s.db schema)
    (union_of_parts ctl);
  Alcotest.(check bool) "parts provably substitutable" true
    (let r = C.Hotset.registry reg in
     List.for_all (C.Partial.fresh r) r.C.Partial.partials);
  (* Now flood the tail keys so the head's share collapses below exit:
     the demotion must fold every heavy row back into the light residual
     exactly once. *)
  let before = C.Hotset.heavy_count reg ~owner:"rsf" in
  for _ = 1 to 2000 do
    ignore
      (Database.run s.db (fun txn ->
           Database.insert txn ~table:"r"
             (Tuple.ints
                [ 4 + Prng.int rng 4; Prng.int rng 5; Prng.int rng 5 ])))
  done;
  Capture.advance s.capture;
  (* Migration needs a provably-fresh point: freshen the heavy partials
     past the flood first (a stale group defers rather than risk an
     inexact handoff — checked below). *)
  let deferred, _ = C.Hotset.rebalance reg in
  Alcotest.(check int) "stale group defers migration" 0
    (List.length deferred);
  freshen_parts (C.Hotset.registry reg) ~owner:"rsf";
  let promoted2, demoted = C.Hotset.rebalance reg in
  Alcotest.(check bool) "flood demoted a key" true (List.length demoted > 0);
  Alcotest.(check int) "census tracks the migration"
    (before - List.length demoted + List.length promoted2)
    (C.Hotset.heavy_count reg ~owner:"rsf");
  Alcotest.check relation "light ⊎ heavy = partial after demotion"
    (filtered_partial s.db schema)
    (union_of_parts ctl)

(* ------------------------------------------------------------------ *)
(* Hotset on vs off over the same seeded skewed stream: bit-identical
   user-view contents at every refresh point, and the heavy path fired.
   A third run stacks auxiliaries on top: the filtered scenario's
   partitioned source r is also narrowed, and the auxiliary takes
   precedence there, so every substitution is an auxiliary hit.        *)

let test_on_off_identical () =
  let drive ~domains ~auxiliary ~hotset =
    let s = filtered () in
    let svc =
      C.Service.create ~domains ~hotset ~auxiliary ~default_sla:500 s.db
        s.capture
    in
    let ctl = C.Service.register svc ~algorithm:(rolling 3) s.view in
    let rng = Prng.create ~seed:23 in
    let zipf = Zipf.create ~n:8 ~theta:1.5 in
    let snaps = ref [] in
    for _ = 1 to 12 do
      random_txns rng s 2;
      for _ = 1 to 12 do
        skewed_insert rng zipf s.db
      done;
      (* Two drains per round: the first catches capture up, the second
         starts at a quiet point where the registry can migrate keys. The
         budget leaves room for the heavy partials' own steps — the
         partial band freshens them ahead of the user view, so the user
         steps probe fresh parts. *)
      ignore (C.Service.step_all svc ~budget:50);
      ignore (C.Service.step_all svc ~budget:50);
      C.Service.refresh_all svc;
      snaps := C.Controller.contents ctl :: !snaps
    done;
    ignore (C.Controller.refresh_latest ctl);
    let final = C.Controller.contents ctl in
    Alcotest.check relation "matches oracle"
      (C.Oracle.view_at s.history s.view (C.Controller.as_of ctl))
      final;
    C.Service.shutdown svc;
    (C.Controller.counters ctl, List.rev (final :: !snaps))
  in
  (* Every pool width: probes run on wave workers and never pump, so the
     drain must keep the partitions fresh on every width alike. *)
  List.iter
    (fun domains ->
      let _, off = drive ~domains ~auxiliary:false ~hotset:false in
      let identical label on =
        Alcotest.(check int) "same number of snapshots" (List.length off)
          (List.length on);
        List.iteri
          (fun i (a, b) ->
            Alcotest.check relation
              (Printf.sprintf "%d domains: snapshot %d identical %s vs off"
                 domains i label)
              b a)
          (List.combine on off)
      in
      let hot, on = drive ~domains ~auxiliary:false ~hotset:true in
      identical "hotset on" on;
      Alcotest.(check bool)
        (Printf.sprintf "%d domains: heavy-light substitution actually fired"
           domains)
        true
        (C.Counters.count hot C.Counters.hot_hits > 0);
      let both, on = drive ~domains ~auxiliary:true ~hotset:true in
      identical "auxiliaries + hotset" on;
      Alcotest.(check bool)
        (Printf.sprintf "%d domains: auxiliary substitution fired" domains)
        true
        (C.Counters.count both C.Counters.aux_hits > 0);
      Alcotest.(check int)
        (Printf.sprintf
           "%d domains: the auxiliary takes precedence over the partition"
           domains)
        0
        (C.Counters.count both C.Counters.hot_hits))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Service integration: dedupe across siblings, guarded unregister,
   orphan retirement                                                    *)

let test_service_dedupe_and_orphans () =
  let s = filtered () in
  let rng = Prng.create ~seed:31 in
  let zipf = Zipf.create ~n:8 ~theta:1.5 in
  let svc = C.Service.create ~hotset:true ~default_sla:500 s.db s.capture in
  let reg =
    match C.Service.hotset svc with
    | Some h -> h
    | None -> Alcotest.fail "hotset registry missing"
  in
  ignore (C.Service.register svc ~algorithm:(rolling 3) s.view);
  (* A sibling with the same partial shape shares the group. *)
  let twin = clone_view s.db s.view ~name:"rsf2" in
  ignore (C.Service.register svc ~algorithm:(rolling 3) twin);
  Alcotest.(check (list (pair string int))) "twin shares the group"
    (C.Hotset.partitioned reg ~owner:"rsf")
    (C.Hotset.partitioned reg ~owner:"rsf2");
  (* Drive skewed change through drains until keys promote. *)
  for _ = 1 to 6 do
    for _ = 1 to 20 do
      skewed_insert rng zipf s.db
    done;
    ignore (C.Service.step_all svc ~budget:12);
    ignore (C.Service.step_all svc ~budget:12);
    C.Service.refresh_all svc
  done;
  Alcotest.(check bool) "keys promoted under service drains" true
    (C.Hotset.heavy_count reg ~owner:"rsf" > 0);
  let heavy_names =
    List.filter_map
      (fun (part : C.Partial.part) ->
        Option.map (fun _ -> C.Partial.name part) part.C.Partial.key)
      (C.Partial.entries (C.Service.partials svc))
  in
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "%s registered for maintenance" n)
        true
        (List.mem n (C.Service.names svc)))
    heavy_names;
  (* Status surfaces heavy-partial rows and the owner's census. *)
  let status_of n =
    List.find
      (fun (x : C.Service.status) -> String.equal x.C.Service.name n)
      (C.Service.status svc)
  in
  let st = status_of "rsf" in
  Alcotest.(check int) "status heavy census"
    (C.Hotset.heavy_count reg ~owner:"rsf")
    st.C.Service.heavy_keys;
  Alcotest.(check int) "status light census"
    (C.Hotset.light_rows reg ~owner:"rsf")
    st.C.Service.light_rows;
  (* More change with no drain leaves the heavy partials' mirrors behind
     the clock: each reports its lag, and the owner the worst lag across
     every part of its partials. *)
  for _ = 1 to 5 do
    skewed_insert rng zipf s.db
  done;
  let heavy_lag =
    List.fold_left
      (fun acc n -> max acc (status_of n).C.Service.partial_lag)
      0 heavy_names
  in
  Alcotest.(check bool) "lagging heavy partial reports its lag" true
    (heavy_lag > 0);
  Alcotest.(check bool) "owner reports its worst part lag" true
    ((status_of "rsf").C.Service.partial_lag >= heavy_lag);
  (* Heavy partials cannot be unregistered directly. *)
  (match heavy_names with
  | n :: _ ->
      Alcotest.check_raises "unregister heavy partial rejected"
        (Invalid_argument
           ("Service.unregister: " ^ n
          ^ " is a heavy-key partial; it is retired when its last owner goes"))
        (fun () -> C.Service.unregister svc n)
  | [] -> ());
  (* Releasing one owner keeps the shared group; the last retires it and
     its entries. *)
  C.Service.unregister svc "rsf";
  Alcotest.(check bool) "group survives one release" true
    (C.Hotset.heavy_count reg ~owner:"rsf2" > 0);
  C.Service.unregister svc "rsf2";
  Alcotest.(check int) "orphan group retired" 0
    (List.length (C.Partial.entries (C.Service.partials svc)));
  Alcotest.(check (list string)) "no entries left" [] (C.Service.names svc)

let suite =
  [
    Alcotest.test_case "partition sketch bounds" `Quick test_partition_sketch;
    Alcotest.test_case "partition hysteresis and caps" `Quick
      test_partition_hysteresis;
    Alcotest.test_case "attach derives and seeds" `Quick test_attach_seeds;
    Alcotest.test_case "migration exactness" `Quick test_migration_exactness;
    Alcotest.test_case "hotset on vs off bit-identical" `Quick
      test_on_off_identical;
    Alcotest.test_case "service dedupe, status and orphans" `Quick
      test_service_dedupe_and_orphans;
  ]
