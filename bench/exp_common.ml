(* Shared machinery for the experiment harness: timing, reporting, and
   scenario shorthands. Every experiment prints one labelled table; the
   shapes (who wins, by what factor) are what reproduce the paper's
   figures — absolute numbers depend on this substrate. *)

module Time = Roll_delta.Time
module Database = Roll_storage.Database
module Tablefmt = Roll_util.Tablefmt
module Summary = Roll_util.Summary
module Prng = Roll_util.Prng
module C = Roll_core
module W = Roll_workload
module Json = Roll_util.Json

let time_it f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

let ms seconds = Printf.sprintf "%.1f" (seconds *. 1000.0)

let table = Tablefmt.print

(* Footprint helpers: the context must have been switched to recording
   ([C.Ctx.keep_footprints]) before it ran. *)
let txn_row_sizes ctx =
  let s = Summary.create () in
  List.iter
    (fun (fp : C.Ctx.footprint) ->
      let rows = List.fold_left (fun acc (_, n) -> acc + n) 0 fp.C.Ctx.reads in
      Summary.add s (float_of_int rows))
    (C.Ctx.footprints ctx);
  s

(* Provenance header shared by every BENCH_*.json file: which commit,
   when, and under which runtime knobs the numbers were taken. Written as
   one "meta" member so downstream figure scripts can refuse to mix
   points from different configurations. *)
let meta () =
  let commit =
    try
      let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown"
    with _ -> "unknown"
  in
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  let date =
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec
  in
  let env name fallback =
    match Sys.getenv_opt name with Some v when v <> "" -> v | _ -> fallback
  in
  Json.Obj
    [
      ("commit", Json.Str commit);
      ("date", Json.Str date);
      ("roll_domains", Json.Str (env "ROLL_DOMAINS" "1"));
      ("roll_store", Json.Str (env "ROLL_STORE" "mem"));
    ]

(* Write BENCH_<name>.json-style output: the benchmark's name, the
   provenance header, then [fields]. *)
let write_json path ~benchmark fields =
  let oc = open_out path in
  output_string oc
    (Json.pretty
       (Json.Obj
          ((("benchmark", Json.Str benchmark) :: ("meta", meta ()) :: fields))));
  close_out oc

let check_or_die what = function
  | Ok () -> ()
  | Error msg ->
      Printf.printf "!! %s FAILED: %s\n" what msg;
      exit 1

(* A fresh n-way scenario with churn already applied. *)
let churned_nway ?(key_range = 10) ?(initial_rows = 60) ?weights ~n ~txns ~seed () =
  let w = W.Nway.create (W.Nway.config ?weights ~key_range ~initial_rows ~seed ~n ()) in
  W.Nway.load_initial w;
  W.Nway.churn w ~n:txns;
  w

(* Its footprints are recorded: the experiments report per-query sizes. *)
let ctx_for w =
  let ctx =
    C.Ctx.create ~t_initial:Time.origin (W.Nway.db w) (W.Nway.capture w)
      (W.Nway.view w)
  in
  C.Ctx.keep_footprints ctx;
  ctx
