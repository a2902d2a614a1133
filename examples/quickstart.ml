(* Quickstart: define two tables and a join view, update the base tables,
   and keep the materialized view fresh with rolling propagation.

     dune exec examples/quickstart.exe
*)

open Roll_relation
module Database = Roll_storage.Database
module Capture = Roll_capture.Capture
module C = Roll_core

let () =
  (* 1. A database with two tables. *)
  let db = Database.create () in
  let int_col name = { Schema.name; ty = Value.T_int } in
  let str_col name = { Schema.name; ty = Value.T_string } in
  let _ =
    Database.create_table db ~name:"product"
      (Schema.make [ int_col "pid"; str_col "name" ])
  in
  let _ =
    Database.create_table db ~name:"sale"
      (Schema.make [ int_col "pid"; int_col "qty" ])
  in

  (* 2. A capture process (the DPropR analogue) feeding delta tables from
     the write-ahead log. Attach before any data arrives. *)
  let capture = Capture.create db in
  Capture.attach capture ~table:"product";
  Capture.attach capture ~table:"sale";

  (* 3. The view: sales joined with product names. *)
  let view =
    Roll_dsl.Sql.parse_view db ~name:"sales_by_product"
      "SELECT p.name, s.qty FROM sale s JOIN product p ON s.pid = p.pid"
  in

  (* 4. A maintenance controller using rolling propagation: the sale table
     is hot (interval 5), the product table almost static (interval 50). *)
  let controller =
    Capture.advance capture;
    C.Controller.create db capture view
      ~algorithm:(C.Controller.Rolling (C.Rolling.per_relation [| 50; 5 |]))
  in

  (* 5. Business as usual: transactions against the base tables. *)
  ignore
    (Database.run db (fun txn ->
         Database.insert txn ~table:"product" (Tuple.make [ Value.Int 1; Value.Str "anvil" ]);
         Database.insert txn ~table:"product" (Tuple.make [ Value.Int 2; Value.Str "rocket" ])));
  for day = 1 to 5 do
    ignore
      (Database.run db (fun txn ->
           Database.insert txn ~table:"sale" (Tuple.ints [ 1; day ]);
           if day mod 2 = 0 then
             Database.insert txn ~table:"sale" (Tuple.ints [ 2; 10 * day ])))
  done;

  (* 6. Refresh the materialized view to "now" and read it. *)
  let t = C.Controller.refresh_latest controller in
  Format.printf "view %s as of t=%d:@.%a@."
    (C.View.name view) t Relation.pp
    (C.Controller.contents controller);

  (* 7. More updates; this time refresh to an intermediate point in time. *)
  let before = Database.now db in
  ignore
    (Database.run db (fun txn -> Database.insert txn ~table:"sale" (Tuple.ints [ 2; 999 ])));
  ignore
    (Database.run db (fun txn -> Database.insert txn ~table:"sale" (Tuple.ints [ 1; 777 ])));
  C.Controller.refresh_to controller (before + 1);
  Format.printf "@.after rolling to t=%d (one of the two late sales):@.%a@."
    (before + 1) Relation.pp
    (C.Controller.contents controller);

  (* 8. ...and finally to the present. *)
  let t = C.Controller.refresh_latest controller in
  Format.printf "@.caught up to t=%d:@.%a@." t Relation.pp
    (C.Controller.contents controller);
  Format.printf "@.propagation stats: %a@." C.Counters.pp (C.Controller.counters controller)
