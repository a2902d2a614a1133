(* Contention (Section 1 / 3.2): the reason refresh work should be many
   small asynchronous transactions. A real propagation run's measured
   per-transaction footprints feed a lock simulator alongside a stream of
   OLTP updaters and view readers; the same total work is then replayed as
   one monolithic refresh transaction.

     dune exec examples/contention.exe
*)

module Time = Roll_delta.Time
module Database = Roll_storage.Database
module Prng = Roll_util.Prng
module Summary = Roll_util.Summary
module Tablefmt = Roll_util.Tablefmt
module C = Roll_core
module Des = Roll_sim.Des
module Contention = Roll_sim.Contention
module Star = Roll_workload.Star

let () =
  (* Run a real maintenance cycle to collect honest footprints. *)
  let star = Star.create { Star.default_config with fact_initial = 600 } in
  Star.load_initial star;
  Star.mixed_txns star ~n:300 ~dim_fraction:0.05;
  let ctx =
    C.Ctx.create ~t_initial:Time.origin (Star.db star) (Star.capture star)
      (Star.view star)
  in
  C.Ctx.keep_footprints ctx;
  let r = C.Rolling.create ctx ~t_initial:Time.origin in
  C.Rolling.run_until r
    ~target:(Database.now (Star.db star))
    ~policy:(C.Rolling.per_relation [| 15; 150; 150 |]);
  let footprints = C.Ctx.footprints ctx in
  Printf.printf "measured %d propagation transactions from a real run\n"
    (List.length footprints);

  let model = Contention.default_costs in
  let tables = [ "fact"; "dim0"; "dim1" ] in
  let oltp seed =
    Contention.update_stream (Prng.create ~seed) ~tables ~rate:40.0 ~until:20.0
      ~mean_duration:0.004
    @ Contention.reader_stream (Prng.create ~seed:(seed + 1)) ~resource:"view"
        ~rate:10.0 ~until:20.0 ~mean_duration:0.02
  in

  let rolling =
    Des.run (Contention.propagation_txns model footprints ~start:0.5 ~spacing:0.12 @ oltp 3)
  in
  let monolithic =
    Des.run
      (Contention.monolithic_refresh model footprints ~start:0.5 ~tables :: oltp 3)
  in

  let row label result =
    match List.assoc_opt "update" result.Des.classes with
    | None -> [ label; "-"; "-"; "-" ]
    | Some st ->
        [
          label;
          Printf.sprintf "%.4f" (Summary.mean st.Des.wait);
          Printf.sprintf "%.4f" (Summary.max_value st.Des.wait);
          Printf.sprintf "%.2f" result.Des.makespan;
        ]
  in
  Tablefmt.print ~title:"updater lock waits (simulated seconds)"
    ~header:[ "refresh style"; "mean wait"; "max wait"; "makespan" ]
    [ row "rolling (many small txns)" rolling; row "monolithic (one big txn)" monolithic ];
  print_newline ();
  print_endline
    "The monolithic refresh holds shared locks on every base table for its";
  print_endline
    "whole duration, so updaters stall behind it; rolling propagation does";
  print_endline "the same work in slices that interleave with the OLTP stream."
