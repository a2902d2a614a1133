(* Relational-algebra tests, including the net-effect (φ) properties the
   paper lists in Section 4. Relations here are already in net-effect form
   (counts collapse on insert), so φ(R) is the identity on Relation.t and
   the properties are exercised through the operations themselves. *)

open Roll_relation
module H = Test_support.Helpers

let qtest = QCheck_alcotest.to_alcotest

let schema2 = Schema.make [ { Schema.name = "a"; ty = Value.T_int }; { Schema.name = "b"; ty = Value.T_int } ]

let rel items = Relation.of_list schema2 (List.map (fun (a, b, c) -> (Tuple.ints [ a; b ], c)) items)

(* --- Value --- *)

let test_value_order () =
  let open Value in
  Alcotest.(check bool) "null smallest" true (compare Null (Bool false) < 0);
  Alcotest.(check bool) "bool < int" true (compare (Bool true) (Int 0) < 0);
  Alcotest.(check bool) "int < float by tag" true (compare (Int 5) (Float 1.0) < 0);
  Alcotest.(check bool) "float < str" true (compare (Float 9.9) (Str "") < 0);
  Alcotest.(check int) "int order" (-1) (compare (Int 1) (Int 2));
  Alcotest.(check int) "str order" 1 (compare (Str "b") (Str "a"))

let test_value_matches () =
  Alcotest.(check bool) "null matches any" true (Value.matches Value.T_int Value.Null);
  Alcotest.(check bool) "int matches int" true (Value.matches Value.T_int (Value.Int 3));
  Alcotest.(check bool) "str mismatch" false (Value.matches Value.T_int (Value.Str "x"))

let value_gen =
  QCheck.Gen.(
    oneof
      [
        return Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) (int_range (-20) 20);
        map (fun s -> Value.Str s) (string_size ~gen:(char_range 'a' 'c') (1 -- 3));
      ])

let value_arb = QCheck.make ~print:Value.to_string value_gen

let prop_value_total_order =
  QCheck.Test.make ~name:"value compare is a total order" ~count:500
    QCheck.(triple value_arb value_arb value_arb)
    (fun (a, b, c) ->
      let open Value in
      (* antisymmetry and transitivity on a sample *)
      (compare a b = -compare b a)
      && (not (compare a b <= 0 && compare b c <= 0) || compare a c <= 0))

let prop_value_equal_hash =
  QCheck.Test.make ~name:"equal values hash equally" ~count:500
    QCheck.(pair value_arb value_arb)
    (fun (a, b) -> (not (Value.equal a b)) || Value.hash a = Value.hash b)

(* --- Schema --- *)

let test_schema_duplicate () =
  Alcotest.check_raises "duplicate column"
    (Invalid_argument "Schema.make: duplicate column x") (fun () ->
      ignore
        (Schema.make
           [ { Schema.name = "x"; ty = Value.T_int }; { Schema.name = "x"; ty = Value.T_bool } ]))

let test_schema_concat_renames () =
  let s = Schema.concat schema2 schema2 in
  Alcotest.(check int) "arity" 4 (Schema.arity s);
  Alcotest.(check string) "renamed" "a'" (Schema.column s 2).name;
  Alcotest.(check string) "renamed" "b'" (Schema.column s 3).name

let test_schema_lookup () =
  Alcotest.(check int) "index_of" 1 (Schema.index_of schema2 "b");
  Alcotest.(check (option int)) "find none" None (Schema.find_index schema2 "zz");
  Alcotest.check_raises "index_of missing" Not_found (fun () ->
      ignore (Schema.index_of schema2 "zz"))

(* --- Tuple --- *)

let test_tuple_conforms () =
  Alcotest.(check bool) "ok" true (Tuple.conforms schema2 (Tuple.ints [ 1; 2 ]));
  Alcotest.(check bool) "wrong arity" false (Tuple.conforms schema2 (Tuple.ints [ 1 ]));
  Alcotest.(check bool) "wrong type" false
    (Tuple.conforms schema2 (Tuple.make [ Value.Int 1; Value.Str "x" ]));
  Alcotest.(check bool) "null ok" true
    (Tuple.conforms schema2 (Tuple.make [ Value.Null; Value.Int 2 ]))

let tuple_arb =
  QCheck.make
    ~print:(fun t -> Tuple.to_string t)
    QCheck.Gen.(map (fun vs -> Tuple.make vs) (list_size (0 -- 4) value_gen))

let prop_tuple_compare_equal_hash =
  QCheck.Test.make ~name:"tuple equal implies same hash" ~count:500
    QCheck.(pair tuple_arb tuple_arb)
    (fun (a, b) -> (not (Tuple.equal a b)) || Tuple.hash a = Tuple.hash b)

let test_tuple_ops () =
  let t = Tuple.ints [ 1; 2; 3 ] in
  Alcotest.check H.tuple "project" (Tuple.ints [ 3; 1 ]) (Tuple.project t [ 2; 0 ]);
  Alcotest.check H.tuple "concat"
    (Tuple.ints [ 1; 2; 3; 4 ])
    (Tuple.concat t (Tuple.ints [ 4 ]))

(* --- Relation: multiset semantics and φ --- *)

let test_relation_counts_cancel () =
  let r = rel [ (1, 1, 2); (1, 1, -2) ] in
  Alcotest.(check bool) "cancelled to empty" true (Relation.is_empty r);
  let r = rel [ (1, 1, 3); (1, 1, -1) ] in
  Alcotest.(check int) "partial cancel" 2 (Relation.count r (Tuple.ints [ 1; 1 ]))

let test_relation_add_zero () =
  let r = Relation.create schema2 in
  Relation.add r (Tuple.ints [ 1; 2 ]) 0;
  Alcotest.(check bool) "zero add is no-op" true (Relation.is_empty r)

let test_relation_schema_check () =
  let r = Relation.create schema2 in
  Alcotest.(check bool) "bad tuple raises" true
    (try
       Relation.add r (Tuple.ints [ 1 ]) 1;
       false
     with Invalid_argument _ -> true)

let test_relation_union_negate () =
  let r = rel [ (1, 1, 2); (2, 2, 1) ] in
  let s = rel [ (1, 1, -1); (3, 3, 4) ] in
  let u = Relation.union r s in
  Alcotest.(check int) "union adds counts" 1 (Relation.count u (Tuple.ints [ 1; 1 ]));
  Alcotest.(check int) "union keeps" 4 (Relation.count u (Tuple.ints [ 3; 3 ]));
  let n = Relation.negate r in
  Alcotest.(check int) "negate" (-2) (Relation.count n (Tuple.ints [ 1; 1 ]));
  Alcotest.check H.relation "R - R = 0" (Relation.create schema2) (Relation.diff r r)

let test_relation_project_collapses () =
  let r = rel [ (1, 1, 1); (1, 2, 1); (2, 9, 5) ] in
  let p = Relation.project r [ 0 ] in
  Alcotest.(check int) "collapsed counts" 2 (Relation.count p (Tuple.ints [ 1 ]));
  Alcotest.(check int) "kept count" 5 (Relation.count p (Tuple.ints [ 2 ]))

let test_relation_select () =
  let r = rel [ (1, 1, 1); (5, 2, 3) ] in
  let s = Relation.select (fun t -> Tuple.get t 0 = Value.Int 5) r in
  Alcotest.(check int) "selected" 3 (Relation.count s (Tuple.ints [ 5; 2 ]));
  Alcotest.(check int) "others gone" 0 (Relation.count s (Tuple.ints [ 1; 1 ]))

let test_relation_product_counts () =
  let r = rel [ (1, 1, 2) ] in
  let s = rel [ (1, 9, 3); (2, 9, 1) ] in
  let joined =
    Relation.product ~pred:(fun a b -> Value.equal (Tuple.get a 0) (Tuple.get b 0)) r s
  in
  Alcotest.(check int) "count product" 6
    (Relation.count joined (Tuple.ints [ 1; 1; 1; 9 ]));
  Alcotest.(check int) "non-matching absent" 0
    (Relation.count joined (Tuple.ints [ 1; 1; 2; 9 ]))

let small_rel_gen =
  QCheck.Gen.(
    map
      (fun items -> rel items)
      (list_size (0 -- 12)
         (triple (int_range 0 3) (int_range 0 3) (int_range (-3) 3))))

let rel_arb = QCheck.make ~print:(Format.asprintf "%a" Relation.pp) small_rel_gen

(* φ(R + S) = φ(φ(R) + φ(S)): with collapsed representation this is union
   associativity/commutativity of counts. *)
let prop_phi_union =
  QCheck.Test.make ~name:"phi(R+S) = phi(phiR + phiS)" ~count:300
    QCheck.(pair rel_arb rel_arb)
    (fun (r, s) -> Relation.equal (Relation.union r s) (Relation.union s r))

let prop_union_assoc =
  QCheck.Test.make ~name:"union associates" ~count:300
    QCheck.(triple rel_arb rel_arb rel_arb)
    (fun (r, s, t) ->
      Relation.equal
        (Relation.union (Relation.union r s) t)
        (Relation.union r (Relation.union s t)))

let prop_negate_involution =
  QCheck.Test.make ~name:"negate is an involution" ~count:300 rel_arb (fun r ->
      Relation.equal r (Relation.negate (Relation.negate r)))

let prop_diff_self_empty =
  QCheck.Test.make ~name:"R - R is empty" ~count:300 rel_arb (fun r ->
      Relation.is_empty (Relation.diff r r))

(* φ(RS) = φ(R)φ(S): join distributes over count collapse. Verified by
   joining the same multisets represented with split counts. *)
let prop_phi_join =
  QCheck.Test.make ~name:"phi(RS) = phi(R) phi(S)" ~count:200
    QCheck.(pair rel_arb rel_arb)
    (fun (r, s) ->
      (* Split every count into +(c+1) and -1 to create a non-canonical
         representation; the relation type collapses on the fly, so joining
         must give the same result. *)
      let split rel_in =
        let out = Relation.create schema2 in
        Relation.iter
          (fun t c ->
            Relation.add out t (c + 1);
            Relation.add out t (-1))
          rel_in;
        out
      in
      let pred a b = Value.equal (Tuple.get a 0) (Tuple.get b 0) in
      Relation.equal
        (Relation.product ~pred r s)
        (Relation.product ~pred (split r) (split s)))

let prop_select_project_commute =
  QCheck.Test.make ~name:"sigma(phi(R)) = phi(sigma(R))" ~count:300 rel_arb
    (fun r ->
      let pred t = Tuple.get t 0 = Value.Int 1 in
      (* selection then projection to column 0 vs projection of selection *)
      Relation.equal
        (Relation.project (Relation.select pred r) [ 0 ])
        (Relation.project (Relation.select pred (Relation.copy r)) [ 0 ]))

let test_relation_to_list_sorted () =
  let r = rel [ (3, 0, 1); (1, 0, 1); (2, 0, 1) ] in
  let keys =
    List.map (fun (t, _) -> match Tuple.get t 0 with Value.Int i -> i | _ -> -1)
      (Relation.to_list r)
  in
  Alcotest.(check (list int)) "deterministic order" [ 1; 2; 3 ] keys

let test_relation_totals () =
  let r = rel [ (1, 1, 2); (2, 2, -1) ] in
  Alcotest.(check int) "distinct" 2 (Relation.distinct_count r);
  Alcotest.(check int) "total" 1 (Relation.total_count r)

(* --- Predicate --- *)

let test_predicate_null_semantics () =
  let open Predicate in
  Alcotest.(check bool) "null = null is false" false
    (eval_cmp Eq Value.Null Value.Null);
  Alcotest.(check bool) "null <> x is false" false
    (eval_cmp Ne Value.Null (Value.Int 1));
  Alcotest.(check bool) "int eq" true (eval_cmp Eq (Value.Int 3) (Value.Int 3));
  Alcotest.(check bool) "le" true (eval_cmp Le (Value.Int 3) (Value.Int 3));
  Alcotest.(check bool) "gt" false (eval_cmp Gt (Value.Int 3) (Value.Int 3))

let test_predicate_eval () =
  let open Predicate in
  let bindings = [| Tuple.ints [ 1; 2 ]; Tuple.ints [ 1; 9 ] |] in
  Alcotest.(check bool) "join holds" true
    (eval_atom bindings (join (col 0 0) (col 1 0)));
  Alcotest.(check bool) "join fails" false
    (eval_atom bindings (join (col 0 1) (col 1 1)));
  Alcotest.(check bool) "cmp const" true
    (eval_atom bindings (cmp Gt (Col (col 1 1)) (Const (Value.Int 5))));
  Alcotest.(check bool) "conjunction" true
    (holds [ join (col 0 0) (col 1 0); cmp Ge (Col (col 0 1)) (Const (Value.Int 2)) ] bindings)

let test_predicate_sources () =
  let open Predicate in
  Alcotest.(check (list int)) "join sources" [ 0; 2 ]
    (sources_of_atom (join (col 2 1) (col 0 0)));
  Alcotest.(check (list int)) "cmp sources dedup" [ 1 ]
    (sources_of_atom (cmp Eq (Col (col 1 0)) (Col (col 1 1))));
  Alcotest.(check int) "max_source" 2
    (max_source [ join (col 2 1) (col 0 0) ]);
  Alcotest.(check int) "max_source empty" (-1) (max_source [])

(* --- Sorted rows --- *)

(* Rolling a sorted snapshot by a raw delta (duplicates, cancelling rows,
   zero counts) gives the sorted rows of the relation plus that delta. *)
let prop_sorted_rows_merge =
  QCheck.Test.make ~name:"merge (sorted R) (consolidate D) = sorted (R + D)"
    ~count:300
    QCheck.(
      pair rel_arb
        (list_of_size Gen.(0 -- 12)
           (triple (int_range 0 3) (int_range 0 3) (int_range (-3) 3))))
    (fun (r, d) ->
      let raw =
        Array.of_list (List.map (fun (a, b, c) -> (Tuple.ints [ a; b ], c)) d)
      in
      let merged =
        Sorted_rows.merge (Relation.sorted r) (Sorted_rows.consolidate raw)
      in
      Array.to_list merged = Relation.to_list (Relation.union r (rel d)))

(* Minor words allocated by [f], net of the measurement itself. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  let e0 = Gc.minor_words () in
  let e1 = Gc.minor_words () in
  (w1 -. w0) -. (e1 -. e0)

(* Tuple comparison runs in every sort and every hash lookup on tuples,
   the schema check on every row added to a relation; a per-call closure
   made a 3 570-row sort allocate 236k words. *)
let test_tuple_compare_allocates_nothing () =
  let col name ty = { Schema.name; ty } in
  let schema =
    Schema.make
      [
        col "k" Value.T_int;
        col "s" Value.T_string;
        col "f" Value.T_float;
        col "v" Value.T_int;
      ]
  in
  let tuple last =
    Tuple.make [ Value.Int 1; Value.Str "x"; Value.Float 2.5; Value.Int last ]
  in
  let a = tuple 7 and b = tuple 8 in
  let sink = ref 0 in
  let words =
    minor_words (fun () ->
        for _ = 1 to 1_000 do
          sink := !sink + Tuple.compare a b;
          if Tuple.equal a b then incr sink;
          if not (Tuple.conforms schema a) then incr sink
        done)
  in
  Alcotest.(check int) "compare result" (-1_000) !sink;
  Alcotest.(check (float 0.))
    "words allocated by 1 000 compare + equal + conforms" 0. words

let suite =
  [
    Alcotest.test_case "value total order" `Quick test_value_order;
    Alcotest.test_case "value type matching" `Quick test_value_matches;
    qtest prop_value_total_order;
    qtest prop_value_equal_hash;
    Alcotest.test_case "schema rejects duplicates" `Quick test_schema_duplicate;
    Alcotest.test_case "schema concat renames" `Quick test_schema_concat_renames;
    Alcotest.test_case "schema lookup" `Quick test_schema_lookup;
    Alcotest.test_case "tuple conformance" `Quick test_tuple_conforms;
    qtest prop_tuple_compare_equal_hash;
    Alcotest.test_case "tuple project/concat" `Quick test_tuple_ops;
    Alcotest.test_case "counts cancel" `Quick test_relation_counts_cancel;
    Alcotest.test_case "zero add" `Quick test_relation_add_zero;
    Alcotest.test_case "schema check on add" `Quick test_relation_schema_check;
    Alcotest.test_case "union and negate" `Quick test_relation_union_negate;
    Alcotest.test_case "projection collapses counts" `Quick test_relation_project_collapses;
    Alcotest.test_case "selection" `Quick test_relation_select;
    Alcotest.test_case "product multiplies counts" `Quick test_relation_product_counts;
    qtest prop_phi_union;
    qtest prop_union_assoc;
    qtest prop_negate_involution;
    qtest prop_diff_self_empty;
    qtest prop_phi_join;
    qtest prop_select_project_commute;
    Alcotest.test_case "to_list deterministic" `Quick test_relation_to_list_sorted;
    qtest prop_sorted_rows_merge;
    Alcotest.test_case "tuple compare, equal and conforms allocate nothing"
      `Quick test_tuple_compare_allocates_nothing;
    Alcotest.test_case "distinct vs total counts" `Quick test_relation_totals;
    Alcotest.test_case "predicate NULL semantics" `Quick test_predicate_null_semantics;
    Alcotest.test_case "predicate evaluation" `Quick test_predicate_eval;
    Alcotest.test_case "predicate source analysis" `Quick test_predicate_sources;
  ]
