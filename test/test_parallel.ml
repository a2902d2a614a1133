(* Multicore maintenance: a service draining through a worker-domain pool
   must maintain bit-identical state to the default one-slot pool, which
   runs every wave on the caller — same view-delta
   rows, same frontier vectors, same durable frontier markers, same
   contents vs the oracle — across fault-harness seeds, while the
   domain-safe Counters and Memo structures keep exact totals under
   concurrent hammering. *)

open Test_support.Helpers
open Roll_relation
module C = Roll_core
module Prng = Roll_util.Prng
module Fault = Roll_util.Fault
module Retry = Roll_util.Retry
module Delta = Roll_delta.Delta

(* Pool size for the parallel side: honors ROLL_DOMAINS (the CI matrix
   runs the suite at 1 and 4) and defaults to 4. At ROLL_DOMAINS=1 the
   "parallel" side still exercises the whole wave machinery — frozen-clock
   steps, post-join durability — just with singleton waves. *)
let pool_domains =
  match C.Service.env_domains () with Some n -> n | None -> 4

(* Three views over the chain-join scenario with different source sets and
   intervals, so drains have genuinely disjoint windows to hand out as
   waves (identical windows chain onto one slot). *)
let a_only_view db name =
  let b = C.View.binder db [ ("a", "a") ] in
  C.View.create db ~name ~sources:[ ("a", "a") ]
    ~predicate:
      [
        Predicate.cmp Predicate.Ge
          (Predicate.Col (b "a" "v"))
          (Predicate.Const (Value.Int 2));
      ]
    ~project:[ b "a" "k"; b "a" "v" ]

let c_only_view db name =
  let b = C.View.binder db [ ("c", "c") ] in
  C.View.create db ~name ~sources:[ ("c", "c") ]
    ~predicate:
      [
        Predicate.cmp Predicate.Ge
          (Predicate.Col (b "c" "w"))
          (Predicate.Const (Value.Int 1));
      ]
    ~project:[ b "c" "l"; b "c" "w" ]

(* Build a scenario, register the three views durably, inject per-seed
   transient faults, and drain under the retry policy. The transaction
   stream is a pure function of [seed], so a one-slot and a pooled run see
   byte-identical input histories. [domains = None] is the default
   one-slot pool. *)
let run_drain ~seed ~domains =
  let s = three_table () in
  let rng = Prng.create ~seed in
  random_txns rng s 10;
  let service = C.Service.create ?domains s.db s.capture in
  let reg algo v = C.Service.register ~durable:true service ~algorithm:algo v in
  let abc = reg (C.Controller.Rolling (C.Rolling.uniform 4)) s.view in
  let a1 =
    reg (C.Controller.Rolling (C.Rolling.uniform 3)) (a_only_view s.db "a_only")
  in
  let c1 =
    reg (C.Controller.Rolling (C.Rolling.uniform 5)) (c_only_view s.db "c_only")
  in
  random_txns rng s 25;
  let data_now = Roll_storage.Database.now s.db in
  (* Deterministic per-work-item faults: hit counters live on each view's
     own context, and a view's steps run in frontier order regardless of
     which domain executes them, so the same window fails in both modes. *)
  if seed mod 3 = 0 then
    (C.Controller.ctx abc).C.Ctx.fault <-
      Fault.transient_at "rolling.post_forward" ~hit:2 ~failures:2;
  if seed mod 7 = 0 then
    (C.Controller.ctx a1).C.Ctx.fault <-
      Fault.transient_at "exec.query" ~hit:1 ~failures:1;
  let result =
    C.Service.try_step_all
      ~sleep:(fun _ -> ())
      service ~budget:10_000
      ~retry:(Retry.policy ~max_attempts:5 ())
  in
  (s, service, [ ("abc", abc); ("a_only", a1); ("c_only", c1) ], data_now,
   result)

(* Everything meaningful the drain left behind, per view: the literal
   view-delta row sequence and the latest durable frontier marker in the
   WAL. The raw in-memory [tfwd] values are left out: absolute clock
   readings are not part of the contract (only marker commits move the
   clock, and which quiet windows a drain steps past depends on its
   waves). Instead each run asserts it is fully caught up against its own
   clock. *)
let fingerprint (s, _service, ctls, _data_now, result) =
  match result with
  | Error (e : C.Service.step_error) ->
      `Failed (e.C.Service.view, e.C.Service.point)
  | Ok _ ->
      let now = Roll_storage.Database.now s.db in
      `Drained
        (List.map
           (fun (name, ctl) ->
             let f = C.Controller.frontier ctl in
             Alcotest.(check bool)
               (name ^ " fully caught up against its own clock")
               true
               (f.C.Frontier.hwm = now
               && Array.for_all (fun t -> t = now) f.C.Frontier.tfwd);
             ( name,
               Delta.to_list (C.Controller.ctx ctl).C.Ctx.out,
               C.Frontier.latest (Roll_storage.Database.wal s.db) ~view:name ))
           ctls)

let test_bit_identity () =
  for seed = 0 to 99 do
    let serial = run_drain ~seed ~domains:None in
    let parallel = run_drain ~seed ~domains:(Some pool_domains) in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: parallel drain bit-identical to serial" seed)
      true
      (fingerprint serial = fingerprint parallel);
    (* Roll both runs' stored views to the last data transaction and check
       contents against each other and the oracle. *)
    let (s_ser, _, ctls_ser, data_now, _) = serial in
    let (_, _, ctls_par, _, _) = parallel in
    List.iter2
      (fun (name, ctl_s) (_, ctl_p) ->
        C.Controller.refresh_to ctl_s data_now;
        C.Controller.refresh_to ctl_p data_now;
        Alcotest.(check relation)
          (Printf.sprintf "seed %d: %s contents identical" seed name)
          (C.Controller.contents ctl_s)
          (C.Controller.contents ctl_p);
        Alcotest.(check relation)
          (Printf.sprintf "seed %d: %s contents vs oracle" seed name)
          (C.Oracle.view_at s_ser.history (C.Controller.view ctl_s) data_now)
          (C.Controller.contents ctl_s))
      ctls_ser ctls_par;
    (* Release the pool's worker domains — 100 leaked pools would blow
       through the runtime's domain limit. *)
    let _, svc_par, _, _, _ = parallel in
    C.Service.shutdown svc_par
  done

(* A permanently failing step surfaces the same typed error from both
   drains: same view, same fault point. *)
let test_permanent_failure_parity () =
  let fail_one ~domains =
    let s = three_table () in
    random_txns (Prng.create ~seed:11) s 20;
    let service = C.Service.create ?domains s.db s.capture in
    let reg algo v = C.Service.register service ~algorithm:algo v in
    let abc = reg (C.Controller.Rolling (C.Rolling.uniform 4)) s.view in
    let _ =
      reg
        (C.Controller.Rolling (C.Rolling.uniform 3))
        (a_only_view s.db "a_only")
    in
    random_txns (Prng.create ~seed:12) s 20;
    (C.Controller.ctx abc).C.Ctx.fault <-
      Fault.transient_at "exec.query" ~hit:1 ~failures:1000;
    let r =
      C.Service.try_step_all
        ~sleep:(fun _ -> ())
        service ~budget:1000
        ~retry:(Retry.policy ~max_attempts:3 ())
    in
    C.Service.shutdown service;
    match r with
    | Ok _ -> Alcotest.fail "expected a permanent failure"
    | Error (e : C.Service.step_error) ->
        (e.C.Service.view, e.C.Service.point, e.C.Service.attempts)
  in
  Alcotest.(check (triple string string int))
    "same failure from serial and parallel drains"
    (fail_one ~domains:None)
    (fail_one ~domains:(Some pool_domains))

(* The pool actually executes on worker domains: with several views over
   disjoint tables, a multi-domain drain must record propagate items on
   domain slots other than 0. *)
let test_ran_by_domain () =
  if pool_domains > 1 then begin
    let _, service, _, _, result = run_drain ~seed:1 ~domains:(Some pool_domains) in
    (match result with
    | Ok steps -> Alcotest.(check bool) "drained some steps" true (steps > 0)
    | Error e -> Alcotest.failf "unexpected failure at %s" e.C.Service.point);
    Alcotest.(check bool) "propagate items ran on worker domains" true
      (List.exists
         (fun ((kind, domain), count) ->
           String.equal kind "propagate" && domain > 0 && count > 0)
         (C.Service.ran_by_domain service));
    Alcotest.(check int) "shard depth array sized to the pool"
      (C.Service.domains service)
      (Array.length (C.Service.shard_depths service));
    C.Service.shutdown service
  end

(* Counters under concurrent hammering from N domains: every increment
   lands, exact totals, on resolved and labeled series alike. *)
let test_stats_hammer () =
  let st = C.Counters.create () in
  let n_dom = 4 and per = 25_000 in
  let doms =
    List.init n_dom (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per do
              C.Counters.incr st C.Counters.retries;
              C.Counters.incr st C.Counters.memo_hits;
              C.Counters.add st C.Counters.shared_builds 2.;
              C.Counters.add st C.Counters.rows_scanned 1.;
              C.Counters.add st C.Counters.rows_probed 2.;
              C.Counters.incr st C.Counters.hash_builds;
              C.Counters.add_by st C.Counters.resource_scanned "r" 1.
            done))
  in
  List.iter Domain.join doms;
  let total = n_dom * per in
  Alcotest.(check int) "retries exact" total (C.Counters.count st C.Counters.retries);
  Alcotest.(check int) "memo hits exact" total (C.Counters.count st C.Counters.memo_hits);
  Alcotest.(check int) "shared builds exact" (2 * total)
    (C.Counters.count st C.Counters.shared_builds);
  Alcotest.(check int) "rows scanned exact" total (C.Counters.count st C.Counters.rows_scanned);
  Alcotest.(check int) "rows probed exact" (2 * total) (C.Counters.count st C.Counters.rows_probed);
  Alcotest.(check int) "hash builds exact" total (C.Counters.count st C.Counters.hash_builds);
  Alcotest.(check (float 0.)) "labeled series exact" (float_of_int total)
    (C.Counters.get_by st C.Counters.resource_scanned "r")

(* Memo under concurrent fills from N owner slots: every entry lands and
   hits count exactly; an owner-scoped eviction drops exactly that owner's
   entries and leaves the siblings' fills untouched. *)
let test_memo_hammer () =
  let memo = C.Memo.create () in
  let n_dom = 4 and per = 2_000 in
  let key owner i =
    {
      C.Memo.signature = Printf.sprintf "q%d" owner;
      tau = [| i |];
      t_new = i;
      sign = 1;
    }
  in
  let mark0 = C.Memo.mark memo in
  let doms =
    List.init n_dom (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per do
              C.Memo.add ~owner:d memo (key d i) [||];
              match C.Memo.find memo (key d i) with
              | Some _ -> ()
              | None -> failwith "just-added entry not found"
            done))
  in
  List.iter Domain.join doms;
  let total = n_dom * per in
  Alcotest.(check int) "all entries landed" total (C.Memo.size memo);
  Alcotest.(check int) "hits exact" total (C.Memo.hits memo);
  Alcotest.(check int) "no misses" 0 (C.Memo.misses memo);
  C.Memo.evict_since ~owner:0 memo mark0;
  Alcotest.(check int) "owner 0's entries evicted, siblings kept"
    ((n_dom - 1) * per)
    (C.Memo.size memo);
  Alcotest.(check bool) "evicted entry gone" true
    (C.Memo.find memo (key 0 1) = None);
  Alcotest.(check bool) "sibling entry survives" true
    (C.Memo.find memo (key 1 1) <> None)

let suite =
  [
    Alcotest.test_case "serial vs parallel drains bit-identical (seeds 0-99)"
      `Slow test_bit_identity;
    Alcotest.test_case "permanent failure parity" `Quick
      test_permanent_failure_parity;
    Alcotest.test_case "propagate items run on worker domains" `Quick
      test_ran_by_domain;
    Alcotest.test_case "stats exact totals under 4-domain hammer" `Quick
      test_stats_hammer;
    Alcotest.test_case "memo exact totals and owner-scoped eviction" `Quick
      test_memo_hammer;
  ]
