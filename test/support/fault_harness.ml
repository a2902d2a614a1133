(* Randomized crash-recovery harness shared by the tier-1 fault suite and
   the extended slow fuzz.

   One seeded run has three lives over the same deterministic schedule of
   random updates, propagation steps, point-in-time refreshes and (for some
   seeds) checkpoints:

   - a profiling life under [Fault.observer], enumerating every reachable
     (fault point, visit count) site;
   - a crash life: the same schedule with a [Crash] injected at one
     randomly chosen reachable site, after which the process state (context,
     delta, controller) is discarded, the WAL — the only durable state — is
     restored into a fresh database, and [Controller.recover] restarts
     maintenance;
   - a post-recovery life: the recovered controller is checked against the
     durable frontier and the oracle, then driven further and checked
     again at the end.

   The driver consumes its own PRNG stream, so the profiling and crash
   lives see identical visit sequences up to the injection point. *)

open Helpers
module Fault = Roll_util.Fault
module Wal = Roll_storage.Wal
module Wal_codec = Roll_storage.Wal_codec
module Relation = Roll_relation.Relation

let wal_records db =
  let wal = Database.wal db in
  let acc = ref [] in
  Wal.iter_from wal ~pos:0 (fun r -> acc := r :: !acc);
  List.rev !acc

(* Restart from durable state: fresh tables, WAL replayed, fresh capture. *)
let restart make db =
  let s2 = make () in
  Database.restore s2.db (wal_records db);
  s2

let algorithm_of_seed seed ~two_way =
  match seed mod 4 with
  | 0 -> C.Controller.Rolling (C.Rolling.uniform (2 + (seed mod 5)))
  | 1 -> C.Controller.Uniform (3 + (seed mod 4))
  | 2 when two_way ->
      C.Controller.Deferred (C.Rolling_deferred.uniform (2 + (seed mod 4)))
  | _ -> C.Controller.Adaptive (3 + (seed mod 6))

let exact_vectors = function
  | C.Controller.Rolling _ | C.Controller.Adaptive _ -> true
  | C.Controller.Uniform _ | C.Controller.Deferred _ -> false

(* One life: a deterministic interleaving of update transactions,
   propagation steps, refreshes and checkpoints, ending caught up. *)
let drive rng s ctl ~ckpt_path ~txns =
  for _ = 1 to txns do
    match Prng.int rng 6 with
    | 0 | 1 | 2 -> random_txns rng s 1
    | 3 | 4 -> ignore (C.Controller.propagate_step ctl)
    | _ -> (
        match ckpt_path with
        | Some path when Prng.chance rng 0.3 -> C.Controller.checkpoint ctl path
        | _ -> C.Controller.refresh_to ctl (C.Controller.hwm ctl))
  done;
  ignore (C.Controller.refresh_latest ctl)

let durable_frontier seed db view =
  match C.Frontier.latest (Database.wal db) ~view:(C.View.name view) with
  | Some f -> f
  | None -> Alcotest.failf "seed %d: no durable frontier in the WAL" seed

(* Check the recovered controller against the durable frontier and the
   oracle; [sample] bounds the per-time-point delta check for long runs.
   Recovery must land exactly on the last durable frontier: quiet-window
   advances are not recorded (they replay for free), and checkpoints record
   a fresh marker before saving, so the latest marker is always the
   authoritative durable state. *)
let check_recovery seed ~algorithm ~durable s2 ctl2 ~sample =
  let tag msg = Printf.sprintf "seed %d: %s" seed msg in
  Alcotest.(check int) (tag "recovered hwm") durable.C.Frontier.hwm
    (C.Controller.hwm ctl2);
  Alcotest.(check int) (tag "recovered as_of") durable.C.Frontier.as_of
    (C.Controller.as_of ctl2);
  if exact_vectors algorithm then
    Alcotest.(check (array int)) (tag "recovered tfwd vector")
      durable.C.Frontier.tfwd
      (C.Controller.frontier ctl2).C.Frontier.tfwd;
  (match
     C.Oracle.check_timed_view_delta_sampled ~sample s2.history s2.view
       (C.Controller.ctx ctl2).C.Ctx.out
       ~lo:(C.Controller.as_of ctl2)
       ~hi:(C.Controller.hwm ctl2)
   with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "seed %d: recovered delta diverges: %s" seed msg);
  Alcotest.check relation (tag "recovered contents")
    (C.Oracle.view_at s2.history s2.view (C.Controller.as_of ctl2))
    (C.Controller.contents ctl2)

(* The full three-life run for one seed. Returns the crash site exercised,
   for reporting.

   [obs] (default none) is installed on the crash life's controller and on
   the recovery — the trace-integrity property drives this harness with a
   manual-clock Rollscope handle and asserts every recorded trace stays
   balanced and well-nested across the injected crash. The profiling life
   never sees it, so site enumeration is identical either way. *)
let run_seed ?(sample = fun b -> b mod 4 = 0) ?obs:rollscope ~txns seed =
  let two_way = seed land 1 = 0 in
  let make () = if two_way then two_table () else three_table () in
  let algorithm = algorithm_of_seed seed ~two_way in
  let with_ckpt = seed mod 5 = 0 in
  let ckpt_path = Filename.temp_file "faultfuzz" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove ckpt_path with Sys_error _ -> ())
  @@ fun () ->
  let ckpt = if with_ckpt then Some ckpt_path else None in
  (* Life 1: profile reachable fault sites. *)
  let obs = Fault.observer () in
  let s_obs = make () in
  let ctl_obs =
    C.Controller.create ~durable:true s_obs.db s_obs.capture s_obs.view
      ~algorithm
  in
  (C.Controller.ctx ctl_obs).C.Ctx.fault <- obs;
  Capture.set_fault s_obs.capture obs;
  drive (Prng.create ~seed) s_obs ctl_obs ~ckpt_path:ckpt ~txns;
  let sites = Array.of_list (Fault.sites obs) in
  if Array.length sites = 0 then
    Alcotest.failf "seed %d: no fault sites reached" seed;
  (* Life 2: crash at a random reachable site. *)
  let hrng = Prng.create ~seed:(seed + 100_000) in
  let point, visits = Prng.pick hrng sites in
  let hit = 1 + Prng.int hrng visits in
  (try Sys.remove ckpt_path with Sys_error _ -> ());
  let crash = Fault.create ~rules:[ Fault.Crash_at { point; hit } ] () in
  let s = make () in
  let ctl1 =
    C.Controller.create ~durable:true ?obs:rollscope s.db s.capture s.view
      ~algorithm
  in
  (C.Controller.ctx ctl1).C.Ctx.fault <- crash;
  Capture.set_fault s.capture crash;
  let crashed =
    try
      drive (Prng.create ~seed) s ctl1 ~ckpt_path:ckpt ~txns;
      false
    with Fault.Crash _ -> true
  in
  if not crashed then
    Alcotest.failf "seed %d: crash at %s visit %d never fired" seed point hit;
  let durable = durable_frontier seed s.db s.view in
  (* Life 3: restart from the WAL alone and verify. *)
  let s2 = restart make s.db in
  let ctl2 =
    C.Controller.recover ?checkpoint:ckpt ?obs:rollscope s2.db s2.capture
      s2.view ~algorithm
  in
  check_recovery seed ~algorithm ~durable s2 ctl2 ~sample;
  Alcotest.(check int) (Printf.sprintf "seed %d: one recovery counted" seed) 1
    (C.Counters.count (C.Controller.counters ctl2) C.Counters.recoveries);
  (* Keep living: more updates and propagation on the recovered state, then
     a final end-to-end oracle check. *)
  drive (Prng.create ~seed:(seed + 1)) s2 ctl2 ~ckpt_path:None ~txns;
  Alcotest.check relation
    (Printf.sprintf "seed %d: final contents (crashed at %s#%d)" seed point hit)
    (C.Oracle.view_at s2.history s2.view (C.Controller.as_of ctl2))
    (C.Controller.contents ctl2);
  (point, hit)

let run_seeds ?sample ~txns ~first ~count () =
  let exercised = Hashtbl.create 16 in
  for seed = first to first + count - 1 do
    let point, _ = run_seed ?sample ~txns seed in
    Hashtbl.replace exercised point ()
  done;
  Hashtbl.fold (fun point () acc -> point :: acc) exercised []
  |> List.sort String.compare

(* ------------------------------------------------------------------ *)
(* Partial lives: the three-life structure over the filtered scenario,
   whose source r derives the partial π_{k,v}(σ_{tag>=1}(r)), with one
   policy's parts maintained alongside the user controller —
   probabilistically, so some propagation steps substitute fresh parts
   and others fall back to the base table — and recovered through the
   policy's attach with [~recover:true] after the crash. Under
   partitioning the schedule also interleaves skewed updates (so keys
   promote), a mid-run skew flip (so they demote again) and explicit
   migration points, so the crash life can land inside the
   [hotset.promote] and [hotset.demote] handoff windows. After recovery
   the user view, every part's contents and mirror, and the union of the
   parts must all be oracle-exact. *)

type policy = Narrowing | Partitioning

let partial_owner = "rsf"

let partial_algorithm_of_seed seed =
  match seed mod 3 with
  | 0 -> C.Controller.Rolling (C.Rolling.uniform (2 + (seed mod 5)))
  | 1 -> C.Controller.Uniform (3 + (seed mod 4))
  | _ -> C.Controller.Adaptive (3 + (seed mod 6))

let install fault ctl ?hotset reg =
  (C.Controller.ctx ctl).C.Ctx.fault <- fault;
  Option.iter (fun h -> C.Hotset.set_fault h fault) hotset;
  List.iter
    (fun part ->
      (C.Controller.ctx (C.Partial.controller part)).C.Ctx.fault <- fault)
    (C.Partial.for_owner reg ~owner:partial_owner)

(* One life: the user-view schedule of [drive], a 2-in-3 chance per turn of
   freshening the parts (step + sync) so the freshness test sees both
   outcomes, and — under partitioning — skewed inserts with a mid-run flip
   and migration points. Every promoted controller inherits the life's
   fault handle right after the rebalance that created it. *)
let drive_partial rng fault s ctl ?hotset reg ~txns =
  let zipf = Roll_util.Zipf.create ~n:8 ~theta:1.5 in
  let freshen step =
    List.iter
      (fun part ->
        let c = C.Partial.controller part in
        if step then ignore (C.Controller.propagate_step c)
        else ignore (C.Controller.refresh_latest c);
        C.Partial.sync part)
      (C.Partial.for_owner reg ~owner:partial_owner)
  in
  let migrate () =
    Option.iter
      (fun h ->
        Capture.advance s.capture;
        freshen false;
        ignore (C.Hotset.rebalance h);
        install fault ctl ?hotset reg)
      hotset
  in
  for turn = 1 to txns do
    (match Prng.int rng (if Option.is_some hotset then 8 else 6) with
    | 0 | 1 when Option.is_some hotset ->
        (* Skewed inserts into the partitioned relation; the second half
           of the schedule flips the head so earlier heavy keys drain. *)
        for _ = 1 to 6 do
          let k = Roll_util.Zipf.sample zipf rng in
          let k = if 2 * turn > txns then 7 - k else k in
          ignore
            (Database.run s.db (fun txn ->
                 Database.insert txn ~table:"r"
                   (Roll_relation.Tuple.ints
                      [ k; Prng.int rng 5; Prng.int rng 5 ])))
        done
    | 0 | 1 | 2 -> random_txns rng s 1
    | 3 | 4 -> ignore (C.Controller.propagate_step ctl)
    | 5 -> C.Controller.refresh_to ctl (C.Controller.hwm ctl)
    | _ -> migrate ());
    if Prng.int rng 3 > 0 then freshen true
  done;
  ignore (C.Controller.refresh_latest ctl);
  migrate ();
  freshen false

(* Every maintained part's contents and mirror against the oracle as
   they stand; then, once every part is freshened, the union of the parts
   must be exactly the partial — no tuple lost or double-counted by any
   migration or recovery on the way here. *)
let check_partial seed ~life s ctl ?hotset reg =
  let tag msg = Printf.sprintf "seed %d: %s %s" seed life msg in
  List.iter
    (fun part ->
      let c = C.Partial.controller part in
      let oracle = C.Oracle.view_at s.history (C.Controller.view c) in
      Alcotest.check relation
        (tag (C.Partial.name part ^ " contents"))
        (oracle (C.Controller.as_of c))
        (C.Controller.contents c);
      Alcotest.check relation
        (tag (C.Partial.name part ^ " mirror"))
        (oracle part.C.Partial.mirror_as_of)
        (Table.contents part.C.Partial.mirror))
    (C.Partial.for_owner reg ~owner:partial_owner);
  Capture.advance s.capture;
  Option.iter C.Hotset.pump hotset;
  freshen_parts reg ~owner:partial_owner;
  match substituted_union ctl with
  | None ->
      (* No heavy keys right now: the partition is all-light and the
         executor plans against the base table. *)
      Alcotest.(check int) (tag "all-light census") 0
        (List.length (C.Partial.for_owner reg ~owner:partial_owner))
  | Some union ->
      Alcotest.check relation (tag "union of parts = partial")
        (filtered_partial s.db (Relation.schema union))
        union

(* Three lives with a crash, as [run_seed], over the filtered scenario
   with [policy]'s partials. Returns the crash site plus the substitution
   hits observed after recovery, so callers can assert the fleet as a
   whole exercised both the substitution and the fallback paths. *)
let run_seed_partial policy ?(sample = fun b -> b mod 4 = 0) ~txns seed =
  let algorithm = partial_algorithm_of_seed seed in
  let wire s ~recover =
    let ctl =
      if recover then C.Controller.recover s.db s.capture s.view ~algorithm
      else C.Controller.create ~durable:true s.db s.capture s.view ~algorithm
    in
    let reg = C.Partial.create ~interval:(2 + (seed mod 4)) s.db s.capture in
    match policy with
    | Narrowing ->
        if C.Partial.attach ~durable:true ~recover reg ctl = [] then
          Alcotest.failf "seed %d: no auxiliary derived" seed;
        (ctl, reg, None)
    | Partitioning ->
        let h =
          C.Hotset.create ~capacity:8 ~max_heavy:3 ~enter:0.2 ~exit_:0.1 reg
        in
        ignore (C.Hotset.attach ~durable:true ~recover h ctl);
        (ctl, reg, Some h)
  in
  (* Life 1: profile reachable fault sites (user, parts, migration
     windows, capture). *)
  let obs = Fault.observer () in
  let s_obs = filtered () in
  let ctl_obs, reg_obs, hotset = wire s_obs ~recover:false in
  install obs ctl_obs ?hotset reg_obs;
  Capture.set_fault s_obs.capture obs;
  drive_partial (Prng.create ~seed) obs s_obs ctl_obs ?hotset reg_obs ~txns;
  let sites = Array.of_list (Fault.sites obs) in
  if Array.length sites = 0 then
    Alcotest.failf "seed %d: no fault sites reached" seed;
  (* Life 2: crash at a random reachable site. *)
  let offset =
    match policy with Narrowing -> 200_000 | Partitioning -> 300_000
  in
  let hrng = Prng.create ~seed:(seed + offset) in
  let point, visits = Prng.pick hrng sites in
  let hit = 1 + Prng.int hrng visits in
  let crash = Fault.create ~rules:[ Fault.Crash_at { point; hit } ] () in
  let s = filtered () in
  let ctl1, reg1, hotset = wire s ~recover:false in
  install crash ctl1 ?hotset reg1;
  Capture.set_fault s.capture crash;
  let crashed =
    try
      drive_partial (Prng.create ~seed) crash s ctl1 ?hotset reg1 ~txns;
      false
    with Fault.Crash _ -> true
  in
  if not crashed then
    Alcotest.failf "seed %d: crash at %s visit %d never fired" seed point hit;
  let durable = durable_frontier seed s.db s.view in
  (* Life 3: restart from the WAL alone. The user controller and every
     part recover (a partition's heavy set re-derives from its promote /
     retire markers); mirrors are rebuilt derived state. *)
  let s2 = restart filtered s.db in
  let ctl2, reg2, hotset = wire s2 ~recover:true in
  check_recovery seed ~algorithm ~durable s2 ctl2 ~sample;
  check_partial seed ~life:"recovered" s2 ctl2 ?hotset reg2;
  (* Keep living on the recovered state, then the final checks. *)
  drive_partial (Prng.create ~seed:(seed + 1)) Fault.none s2 ctl2 ?hotset reg2
    ~txns;
  Alcotest.check relation
    (Printf.sprintf "seed %d: final contents (crashed at %s#%d)" seed point
       hit)
    (C.Oracle.view_at s2.history s2.view (C.Controller.as_of ctl2))
    (C.Controller.contents ctl2);
  check_partial seed ~life:"final" s2 ctl2 ?hotset reg2;
  let stats = C.Controller.counters ctl2 in
  (point, hit, C.Counters.count stats C.Counters.aux_hits + C.Counters.count stats C.Counters.hot_hits)

let run_seeds_partial policy ?sample ~txns ~first ~count () =
  let exercised = Hashtbl.create 16 in
  let hits = ref 0 in
  for seed = first to first + count - 1 do
    let point, _, h = run_seed_partial policy ?sample ~txns seed in
    hits := !hits + h;
    Hashtbl.replace exercised point ()
  done;
  if !hits = 0 then
    Alcotest.failf "%s fleet: substitution never fired across any seed"
      (match policy with
      | Narrowing -> "narrowing"
      | Partitioning -> "partitioning");
  Hashtbl.fold (fun point () acc -> point :: acc) exercised []
  |> List.sort String.compare
