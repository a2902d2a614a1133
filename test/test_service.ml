(* Multi-view maintenance service: several views over one capture, status
   reporting, pause/resume (failure injection), budgeted stepping. *)

open Test_support.Helpers
open Roll_relation
module C = Roll_core

(* Two different views over the two_table scenario. *)
let service_scenario () =
  let s = two_table () in
  let b = C.View.binder s.db [ ("r", "r"); ("s", "s") ] in
  let joined =
    C.View.create s.db ~name:"joined"
      ~sources:[ ("r", "r"); ("s", "s") ]
      ~predicate:[ Predicate.join (b "r" "k") (b "s" "k") ]
      ~project:[ b "r" "k"; b "r" "v"; b "s" "w" ]
  in
  let b1 = C.View.binder s.db [ ("r", "r") ] in
  let filtered =
    C.View.create s.db ~name:"filtered" ~sources:[ ("r", "r") ]
      ~predicate:
        [ Predicate.cmp Predicate.Ge (Predicate.Col (b1 "r" "v")) (Predicate.Const (Value.Int 2)) ]
      ~project:[ b1 "r" "k"; b1 "r" "v" ]
  in
  let service = C.Service.create s.db s.capture in
  let _ =
    C.Service.register service ~algorithm:(C.Controller.Rolling (C.Rolling.uniform 4)) joined
  in
  let _ = C.Service.register service ~algorithm:(C.Controller.Uniform 6) filtered in
  (s, service)

let test_register_and_names () =
  let _, service = service_scenario () in
  Alcotest.(check (list string)) "names in order" [ "joined"; "filtered" ]
    (C.Service.names service)

let test_duplicate_rejected () =
  let s, service = service_scenario () in
  let b = C.View.binder s.db [ ("r", "r") ] in
  let dup =
    C.View.create s.db ~name:"joined" ~sources:[ ("r", "r") ] ~predicate:[]
      ~project:[ b "r" "k" ]
  in
  Alcotest.(check bool) "duplicate name rejected" true
    (try
       ignore
         (C.Service.register service ~algorithm:(C.Controller.Uniform 3) dup);
       false
     with Invalid_argument _ -> true)

let test_refresh_all_and_status () =
  let s, service = service_scenario () in
  random_txns (Prng.create ~seed:140) s 30;
  let data_now = Database.now s.db in
  C.Service.refresh_all service;
  let statuses = C.Service.status service in
  Alcotest.(check int) "two views" 2 (List.length statuses);
  (* Refreshes commit marker transactions of their own, so earlier views
     end up "stale" only by those markers: every view must cover all data
     transactions. *)
  List.iter
    (fun (st : C.Service.status) ->
      let controller = C.Service.controller service st.name in
      Alcotest.(check bool) (st.name ^ " covers all data txns") true
        (C.Controller.as_of controller >= data_now);
      Alcotest.(check bool) (st.name ^ " as_of <= hwm") true
        (C.Controller.as_of controller <= st.hwm))
    statuses;
  (* Both views correct vs oracle. *)
  List.iter
    (fun name ->
      let controller = C.Service.controller service name in
      let t = C.Controller.as_of controller in
      Alcotest.(check bool) (name ^ " vs oracle") true
        (Relation.equal
           (C.Oracle.view_at s.history (C.Controller.view controller) t)
           (C.Controller.contents controller)))
    (C.Service.names service)

let test_pause_resume () =
  let s, service = service_scenario () in
  random_txns (Prng.create ~seed:141) s 20;
  C.Service.pause service "joined";
  let steps = C.Service.step_all service ~budget:100 in
  Alcotest.(check bool) "only filtered stepped" true (steps > 0);
  let by_name name =
    List.find (fun (st : C.Service.status) -> st.name = name) (C.Service.status service)
  in
  Alcotest.(check bool) "joined stale" true ((by_name "joined").staleness > 0);
  Alcotest.(check int) "filtered caught up" 0 (by_name "filtered").staleness;
  (* Resume and catch up. *)
  C.Service.resume service "joined";
  ignore (C.Service.step_all service ~budget:1000);
  Alcotest.(check int) "joined caught up after resume" 0 (by_name "joined").staleness

let test_step_budget () =
  let s, service = service_scenario () in
  random_txns (Prng.create ~seed:142) s 40;
  let steps = C.Service.step_all service ~budget:3 in
  Alcotest.(check int) "budget respected" 3 steps

let test_gc_all () =
  let s, service = service_scenario () in
  random_txns (Prng.create ~seed:143) s 30;
  C.Service.refresh_all service;
  let removed = C.Service.gc_all service in
  Alcotest.(check bool) "delta rows pruned" true (removed > 0);
  List.iter
    (fun (st : C.Service.status) ->
      Alcotest.(check int) (st.name ^ " delta emptied") 0 st.delta_rows)
    (C.Service.status service)

let test_unknown_view () =
  let _, service = service_scenario () in
  Alcotest.check_raises "unknown view" Not_found (fun () ->
      ignore (C.Service.controller service "nope"))

(* ROLL_DOMAINS: unset or empty means the default one-slot pool (None); a
   positive count sizes the pool; anything else is rejected loudly
   instead of silently falling back to one slot. The variable is restored afterwards
   (to empty when it was unset: the same meaning). *)
let test_env_domains () =
  let saved = Sys.getenv_opt "ROLL_DOMAINS" in
  let with_env v f =
    Unix.putenv "ROLL_DOMAINS" v;
    f ()
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "ROLL_DOMAINS" (Option.value saved ~default:""))
    (fun () ->
      with_env "" (fun () ->
          Alcotest.(check (option int)) "empty is serial" None
            (C.Service.env_domains ()));
      with_env " 3 " (fun () ->
          Alcotest.(check (option int)) "positive count" (Some 3)
            (C.Service.env_domains ()));
      List.iter
        (fun v ->
          with_env v (fun () ->
              Alcotest.check_raises ("rejects " ^ v)
                (Invalid_argument
                   (Printf.sprintf
                      "ROLL_DOMAINS=%S: expected a positive domain count" v))
                (fun () -> ignore (C.Service.env_domains ()))))
        [ "0"; "-2"; "four" ])

let suite =
  [
    Alcotest.test_case "register and names" `Quick test_register_and_names;
    Alcotest.test_case "duplicate name rejected" `Quick test_duplicate_rejected;
    Alcotest.test_case "refresh_all and status" `Quick test_refresh_all_and_status;
    Alcotest.test_case "pause/resume" `Quick test_pause_resume;
    Alcotest.test_case "step budget" `Quick test_step_budget;
    Alcotest.test_case "gc_all" `Quick test_gc_all;
    Alcotest.test_case "unknown view" `Quick test_unknown_view;
    Alcotest.test_case "ROLL_DOMAINS parsing" `Quick test_env_domains;
  ]
