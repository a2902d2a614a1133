module Metrics = Roll_obs.Metrics

type counter = { slot : int; name : string; help : string }

type labeled = { lslot : int; lname : string; lhelp : string; key : string }

(* Every declaration takes the next slot; [create] resolves them all, so
   it must only run after this module's top-level declarations. *)
let scalars = ref []

let labeleds = ref []

let declare name help =
  let c = { slot = List.length !scalars; name; help } in
  scalars := c :: !scalars;
  c

let declare_by key name help =
  let l = { lslot = List.length !labeleds; lname = name; lhelp = help; key } in
  labeleds := l :: !labeleds;
  l

let queries = declare "roll_queries_total" "Propagation queries executed"

let rows_read = declare "roll_rows_read_total" "Rows read by propagation queries"

let rows_emitted =
  declare "roll_rows_emitted_total" "Rows emitted into view deltas"

let compute_delta_calls =
  declare "roll_compute_delta_calls_total"
    "ComputeDelta invocations (including memoized replays)"

let rows_scanned =
  declare "roll_rows_scanned_total"
    "Rows fetched by scans, hash builds and nested loops"

let rows_probed =
  declare "roll_rows_probed_total" "Rows fetched through secondary-index probes"

let hash_builds = declare "roll_hash_builds_total" "Per-query hash indexes built"

let exec_wall =
  declare "roll_exec_wall_seconds_total"
    "Wall-clock seconds draining execution pipelines"

let retries =
  declare "roll_retries_total"
    "Propagation-step attempts re-run after a transient failure"

let aborts =
  declare "roll_aborts_total"
    "Propagation steps abandoned after exhausting their retry budget"

let recoveries =
  declare "roll_recoveries_total"
    "Transient-failed steps recovered plus controller restarts"

let memo_hits =
  declare "roll_memo_hits_total"
    "ComputeDelta invocations answered from the shared memo"

let memo_misses =
  declare "roll_memo_misses_total"
    "Memo consultations that fell through to execution"

let shared_builds =
  declare "roll_shared_builds_total"
    "Physical artifacts reused from the per-drain build cache"

let aux_hits =
  declare "roll_aux_hits_total"
    "Base-relation reads served by a fresh auxiliary-view probe"

let aux_misses =
  declare "roll_aux_misses_total"
    "Auxiliary consultations that fell back to the base relation"

let hot_hits =
  declare "roll_hot_hits_total"
    "Base-relation reads served by a fresh heavy-light partition union"

let hot_misses =
  declare "roll_hot_misses_total"
    "Partition consultations that fell back to the base relation"

let reads_served =
  declare "roll_reads_served_total"
    "Point-in-time and freshest-available reads served"

let reads_rejected =
  declare "roll_reads_rejected_total" "Reads rejected by admission control"

let read_wait =
  declare "roll_read_wait_seconds_total"
    "Seconds admitted reads spent queued for their target time"

let resource_scanned =
  declare_by "resource" "roll_resource_rows_scanned_total"
    "Rows scanned, by resource"

let resource_probed =
  declare_by "resource" "roll_resource_rows_probed_total"
    "Rows probed, by resource"

let resource_wall =
  declare_by "resource" "roll_resource_wall_seconds_total"
    "Wall-clock seconds, by resource"

let sched_scheduled =
  declare_by "kind" "roll_sched_scheduled_total"
    "Work items offered to the maintenance queue, by kind"

let sched_ran = declare_by "kind" "roll_sched_ran_total" "Work items executed, by kind"

let sched_deferred =
  declare_by "kind" "roll_sched_deferred_total"
    "Propagate items pushed behind capture, by kind"

let sched_backpressured =
  declare_by "kind" "roll_sched_backpressured_total"
    "Capture items boosted by a deferred propagate step, by kind"

let sched_batched =
  declare_by "kind" "roll_sched_batched_total"
    "Propagate items executed as batch followers, by kind"

let sched_wall =
  declare_by "kind" "roll_sched_wall_seconds_total"
    "Wall-clock seconds executing work items, by kind"

(* [labeled.(l.lslot)] caches the series already resolved for each label
   value: a lock-free read, and a compare-and-set push on first use. *)
type t = {
  metrics : Metrics.t;
  scalar : Metrics.counter array;
  labeled : (string * Metrics.counter) list Atomic.t array;
}

let create () =
  let metrics = Metrics.create () in
  {
    metrics;
    scalar =
      Array.of_list
        (List.rev_map (fun c -> Metrics.counter metrics ~help:c.help c.name) !scalars);
    labeled = Array.init (List.length !labeleds) (fun _ -> Atomic.make []);
  }

let metrics t = t.metrics

let incr t c = Metrics.inc t.scalar.(c.slot)

let add t c n = Metrics.add t.scalar.(c.slot) n

let get t c = Metrics.value t.scalar.(c.slot)

let count t c = int_of_float (get t c)

let read snapshot c =
  List.fold_left
    (fun acc (sf : Metrics.sample_family) ->
      if String.equal sf.sf_name c.name then
        List.fold_left
          (fun acc (p : Metrics.point) ->
            if p.p_labels = [] then p.p_value else acc)
          acc sf.points
      else acc)
    0. snapshot

let series t l value =
  let cell = t.labeled.(l.lslot) in
  match List.assoc_opt value (Atomic.get cell) with
  | Some c -> c
  | None ->
      let c =
        Metrics.counter t.metrics ~help:l.lhelp ~labels:[ (l.key, value) ] l.lname
      in
      let rec push () =
        let old = Atomic.get cell in
        if not (Atomic.compare_and_set cell old ((value, c) :: old)) then push ()
      in
      push ();
      c

let add_by t l value n = Metrics.add (series t l value) n

let get_by t l value = Metrics.value (series t l value)

let values t l =
  List.sort_uniq String.compare (List.map fst (Atomic.get t.labeled.(l.lslot)))

let reset t = Metrics.reset t.metrics

(* One line of every non-zero unlabeled counter, from one snapshot. *)
let pp ppf t =
  List.concat_map
    (fun (sf : Metrics.sample_family) ->
      List.filter_map
        (fun (p : Metrics.point) ->
          if p.p_labels = [] && p.p_value <> 0. then
            Some (Printf.sprintf "%s=%g" sf.sf_name p.p_value)
          else None)
        sf.points)
    (Metrics.snapshot t.metrics)
  |> String.concat " " |> Format.pp_print_string ppf
