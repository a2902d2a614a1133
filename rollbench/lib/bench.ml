(* The untraced run, which reports the seven end-to-end metrics, and the
   pieces the traced run (Layers) shares with it. *)

module Database = Roll_storage.Database
module Store = Roll_storage.Store
module Pager = Roll_storage.Pager

type outcome = {
  attempted : int;
  failed : int;
  metrics : Measure.metric list;
  notes : string list;  (** human-readable detail, printed before the result *)
}

let ok = function Ok v -> v | Error e -> raise (Run.Gate e)

(* A percentile the run cannot report fails the run. *)
let quantile what samples q =
  match Measure.percentile samples q with
  | Ok v -> v
  | Error e -> raise (Run.Gate (what ^ ": " ^ e))

let ms x = 1000. *. x

let warm (inst : Run.instance) tally =
  ignore (Run.closed inst tally ~rounds:inst.w.warm_rounds)

let heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Sample count, highest reportable percentile and the latency shape,
   so a shift between modes shows. *)
let pct_note name samples =
  let n = Array.length samples in
  let at q =
    match Measure.percentile samples q with
    | Ok v -> Printf.sprintf " p%g=%.2fms" (q *. 100.) (ms v)
    | Error _ -> ""
  in
  Printf.sprintf "%s: %d samples, highest reportable percentile %s;%s" name n
    (match Measure.highest_percentile n with
    | Some q -> Printf.sprintf "p%g" (q *. 100.)
    | None -> "none")
    (String.concat "" (List.map at [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99 ]))

(* One timed set-up, in a heap just collected. *)
let timed_setup (w : Workloads.t) ~seed =
  Gc.full_major ();
  Run.setup w ~seed

(* The closed loop and the open loop are interleaved: the open loop's
   schedule is cut into [slices], and before each slice (its clock
   stopped) one slice of the closed-loop rounds runs. Both loops' metrics
   are then taken across the whole run, so a stretch in which the shared
   host runs this core slower weighs on all of them alike instead of on
   whichever loop it fell in. *)
let slices = 10

(* Slice [k]'s share of [total], split into [slices] nearly equal parts. *)
let share total k = (total * (k + 1) / slices) - (total * k / slices)

(* setup_s is the median of [w.setups] set-ups. The first two are kept:
   the closed loop runs on one and the open loop on the other, so the
   open loop's cost does not depend on the history the closed loop
   leaves. The rest run once the loops and heap_peak_mb are done, so
   their garbage never raises the heap peak. *)
let end_to_end (w : Workloads.t) ~seed ~seconds =
  let closed_inst, t_closed = timed_setup w ~seed in
  let open_inst, t_open = timed_setup w ~seed in
  let tally = Run.tally () in
  warm closed_inst tally;
  warm open_inst tally;
  let txns = ref 0 and busy = ref 0. and slice = ref 0 in
  let between () =
    let n, dt =
      Run.closed closed_inst tally ~rounds:(share w.closed_rounds !slice)
    in
    incr slice;
    txns := !txns + n;
    busy := !busy +. dt
  in
  between ();
  let o = Run.open_loop ~slices ~between open_inst tally ~seconds ~seed in
  while !slice < slices do
    between ()
  done;
  let txns = !txns and busy = !busy in
  let heap = heap_mb () in
  Run.final_gate closed_inst;
  Run.final_gate open_inst;
  let store =
    match Database.store open_inst.db with
    | Some store ->
        Printf.sprintf "disk store: %d data pages, %d cache pages"
          (Pager.n_pages (Store.pager store))
          (Roll_storage.Block_cache.capacity (Store.cache store))
    | None -> "memory store"
  in
  let setup_times =
    Array.append [| t_closed; t_open |]
      (Array.init (w.setups - 2) (fun _ -> snd (timed_setup w ~seed)))
  in
  let m = Measure.metric in
  let q what samples p = ms (quantile what samples p) in
  let metrics =
    [
      m "setup_s" "s" (ok (Measure.median setup_times));
      m "sustained_txn_s" "txn/s" (float_of_int txns /. busy);
      m "visible_p50_ms" "ms" (q "visible" o.visible 0.5);
      m "visible_p95_ms" "ms" (q "visible" o.visible 0.95);
      m "read_p50_ms" "ms" (q "read" o.reads 0.5);
      m "read_p95_ms" "ms" (q "read" o.reads 0.95);
      m "heap_peak_mb" "MB" heap;
    ]
  in
  let notes =
    [
      pct_note "visible" o.visible;
      pct_note "read" o.reads;
      Printf.sprintf "setup_s samples: %s"
        (String.concat " "
           (Array.to_list (Array.map (Printf.sprintf "%.4f") setup_times)));
      Printf.sprintf "closed loop: %d txns in %.3f CPU s" txns busy;
      Printf.sprintf
        "open loop: %d txns, %d reads served, %d queued, %d checked vs oracle, \
         gen late p95 %.3f ms, backlog at schedule end %d"
        o.txns o.reads_served o.queued o.checked
        (q "generator lateness" o.late 0.95) o.backlog_end;
      Printf.sprintf
        "open loop: %.3f s on the virtual clock, %.1f%% of it idle; %.3f s \
         wall"
        o.elapsed (100. *. o.idle /. o.elapsed) o.wall;
      store;
      Printf.sprintf
        "failures: %d step errors, %d reads rejected, %d unresolved"
        tally.step_errors tally.rejected tally.unresolved;
    ]
  in
  { attempted = tally.attempted; failed = Run.failed tally; metrics; notes }
