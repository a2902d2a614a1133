(* rollbench — end-to-end benchmark of rolling maintenance.

     rollbench --workload star-disk|fleet-mem|skew-mem --seed N
               --seconds S --trace 0|1

   Prints human-readable detail, then as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}: the seven end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1. Any
   oracle mismatch exits 1 without a result line. Scratch files (disk
   stores, checkpoints) live under ./.rollbench-tmp/<pid> and are removed
   on exit. *)

module Bench = Rollbench.Bench
module Layers = Rollbench.Layers
module Measure = Rollbench.Measure
module Workloads = Rollbench.Workloads

let usage =
  "rollbench --workload NAME --seed N --seconds S --trace 0|1\nworkloads: "
  ^ String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all)

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("rollbench: " ^ s);
      exit 1)
    fmt

(* Best effort: cleanup at exit must never turn a finished run into a
   failure. *)
let rec remove_tree path =
  try
    if Sys.is_directory path then begin
      Array.iter (fun n -> remove_tree (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  with Sys_error _ -> ()

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S open-loop schedule length");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run");
    ]
    (fun a -> die "unexpected argument %S\n%s" a usage)
    usage;
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None -> die "unknown workload %S\n%s" !workload usage
  in
  if !seed < 0 then die "--seed must be given, >= 0";
  if !seconds < 1 then die "--seconds must be >= 1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  Workloads.apply_env w;
  (* One directory per process, so concurrent runs in one checkout never
     delete each other's stores. *)
  let root = Filename.concat (Sys.getcwd ()) ".rollbench-tmp" in
  let tmp = Filename.concat root (string_of_int (Unix.getpid ())) in
  (try Sys.mkdir root 0o755 with Sys_error _ -> ());
  remove_tree tmp;
  Sys.mkdir tmp 0o755;
  at_exit (fun () ->
      remove_tree tmp;
      try Sys.rmdir root with Sys_error _ -> ());
  Filename.set_temp_dir_name tmp;
  let seconds = float_of_int !seconds in
  let outcome =
    try
      if !trace = 1 then Layers.run w ~seed:!seed ~seconds
      else Bench.end_to_end w ~seed:!seed ~seconds
    with
    | Rollbench.Run.Gate msg -> die "%s: correctness gate failed: %s" w.name msg
    | e -> die "%s: %s" w.name (Printexc.to_string e)
  in
  List.iter (fun n -> Printf.printf "# %s %s\n" w.name n) outcome.Bench.notes;
  List.iter
    (fun (m : Measure.metric) ->
      Printf.printf "# %s %-36s %14.4f %s\n" w.name m.name m.value m.unit_)
    outcome.metrics;
  print_endline
    (Measure.result_line ~correct:true ~attempted:outcome.attempted
       ~failed:outcome.failed outcome.metrics)
