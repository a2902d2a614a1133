(* Shared scenario builders for the test suites: small schemas with heavy
   key collisions (to exercise joins), duplicate rows (multiset counts) and
   random insert/delete/update streams, plus update injection hooks that
   interleave transactions with propagation queries. *)

open Roll_relation
module Prng = Roll_util.Prng
module Time = Roll_delta.Time
module Delta = Roll_delta.Delta
module Database = Roll_storage.Database
module Table = Roll_storage.Table
module History = Roll_storage.History
module Capture = Roll_capture.Capture
module C = Roll_core

type scenario = {
  db : Database.t;
  capture : Capture.t;
  history : History.t;
  view : C.View.t;
}

let int_col name = { Schema.name; ty = Value.T_int }

(* R(k, v) joined with S(k, w) on k, projecting all data columns. Keys are
   drawn from a small domain (0..7) by [random_txn], so joins collide. *)
let two_table () =
  let db = Database.create () in
  let _ = Database.create_table db ~name:"r" (Schema.make [ int_col "k"; int_col "v" ]) in
  let _ = Database.create_table db ~name:"s" (Schema.make [ int_col "k"; int_col "w" ]) in
  let capture = Capture.create db in
  Capture.attach capture ~table:"r";
  Capture.attach capture ~table:"s";
  let b = C.View.binder db [ ("r", "r"); ("s", "s") ] in
  let view =
    C.View.create db ~name:"rs"
      ~sources:[ ("r", "r"); ("s", "s") ]
      ~predicate:[ Predicate.join (b "r" "k") (b "s" "k") ]
      ~project:[ b "r" "k"; b "r" "v"; b "s" "w" ]
  in
  { db; capture; history = History.create db; view }

(* Chain join: A(k, v) ⋈ B(k, l) ⋈ C(l, w). *)
let three_table () =
  let db = Database.create () in
  let _ = Database.create_table db ~name:"a" (Schema.make [ int_col "k"; int_col "v" ]) in
  let _ = Database.create_table db ~name:"b" (Schema.make [ int_col "k"; int_col "l" ]) in
  let _ = Database.create_table db ~name:"c" (Schema.make [ int_col "l"; int_col "w" ]) in
  let capture = Capture.create db in
  List.iter (fun table -> Capture.attach capture ~table) [ "a"; "b"; "c" ];
  let bind = C.View.binder db [ ("a", "a"); ("b", "b"); ("c", "c") ] in
  let view =
    C.View.create db ~name:"abc"
      ~sources:[ ("a", "a"); ("b", "b"); ("c", "c") ]
      ~predicate:
        [
          Predicate.join (bind "a" "k") (bind "b" "k");
          Predicate.join (bind "b" "l") (bind "c" "l");
        ]
      ~project:[ bind "a" "v"; bind "b" "k"; bind "c" "w" ]
  in
  { db; capture; history = History.create db; view }

(* R(k, v, tag) ⋈ S(k, w) on k, keeping only R rows with tag >= 1 and
   projecting k, v, w. Source 0 is narrowed by both a local filter and the
   projection, so the higher-order registry derives an auxiliary
   π_{k,v}(σ_{tag>=1}(R)) for it; source 1 is read at full width and gets
   none. The value domain puts tag in 0..4, so roughly a fifth of R is
   filtered out — the auxiliary is a strict subset, and fallback vs.
   substitution produce observably different scan shapes. *)
let filtered () =
  let db = Database.create () in
  let _ =
    Database.create_table db ~name:"r"
      (Schema.make [ int_col "k"; int_col "v"; int_col "tag" ])
  in
  let _ =
    Database.create_table db ~name:"s"
      (Schema.make [ int_col "k"; int_col "w" ])
  in
  let capture = Capture.create db in
  Capture.attach capture ~table:"r";
  Capture.attach capture ~table:"s";
  let b = C.View.binder db [ ("r", "r"); ("s", "s") ] in
  let view =
    C.View.create db ~name:"rsf"
      ~sources:[ ("r", "r"); ("s", "s") ]
      ~predicate:
        [
          Predicate.join (b "r" "k") (b "s" "k");
          Predicate.cmp Predicate.Ge
            (Predicate.Col (b "r" "tag"))
            (Predicate.Const (Value.Int 1));
        ]
      ~project:[ b "r" "k"; b "r" "v"; b "s" "w" ]
  in
  { db; capture; history = History.create db; view }

(* The filtered scenario's partial for source 0, π_{k,v}(σ_{tag>=1}(r)),
   computed straight from the table contents — what every derived
   partial of r must hold once its parts are fresh. *)
let filtered_partial db schema =
  let out = Relation.of_list schema [] in
  Relation.iter
    (fun tuple count ->
      match Tuple.get tuple 2 with
      | Value.Int tag when tag >= 1 ->
          Relation.add out (Tuple.project tuple [ 0; 1 ]) count
      | _ -> ())
    (Table.contents (Database.table db "r"));
  out

(* The union of the parts [ctl]'s substitution closure would read in place
   of source 0, without the freshness test; [None] when nothing is
   substitutable there. *)
let substituted_union ctl =
  Option.bind (C.Controller.ctx ctl).C.Ctx.partial (fun lookup ->
      Option.map
        (fun (src : C.Ctx.source) ->
          List.fold_left
            (fun acc part -> Relation.union acc (Table.contents part))
            (Relation.create (Table.schema (List.hd src.C.Ctx.tables)))
            src.C.Ctx.tables)
        (lookup ~peek:true 0))

(* Roll every maintained part of [owner]'s partials to the present and
   fold it into its mirror, the way a service drain would. *)
let freshen_parts reg ~owner =
  List.iter
    (fun part ->
      ignore (C.Controller.refresh_latest (C.Partial.controller part));
      C.Partial.sync part)
    (C.Partial.for_owner reg ~owner)

(* Commit one small random transaction against the scenario's base tables:
   inserts (possibly duplicating existing tuples), deletes of existing
   tuples, and updates. Keys are drawn from a small range so joins hit. *)
let random_txn rng s =
  let tables =
    Array.of_list (List.map (fun t -> Table.name t) (Database.tables s.db))
  in
  let table_name = Prng.pick rng tables in
  let table = Database.table s.db table_name in
  (* First column from the small key domain, the rest from the value
     domain — identical draw order to the historical 2-column generator,
     so existing seeds replay unchanged, while wider schemas (the
     auxiliary-view scenarios) also get covered. *)
  let random_tuple () =
    let arity = Schema.arity (Table.schema table) in
    let k = Prng.int rng 8 in
    let rest = ref [] in
    for _ = 2 to arity do
      rest := Prng.int rng 5 :: !rest
    done;
    Tuple.ints (k :: List.rev !rest)
  in
  (* Effective multiplicities: committed state plus this transaction's own
     pending writes, so we never over-delete within one transaction. *)
  let pending = Hashtbl.create 8 in
  let effective tuple =
    Table.count table tuple
    + (match Hashtbl.find_opt pending tuple with Some d -> d | None -> 0)
  in
  let note tuple d =
    Hashtbl.replace pending tuple
      (d + (match Hashtbl.find_opt pending tuple with Some x -> x | None -> 0))
  in
  let deletable () =
    let items =
      List.filter
        (fun (tuple, _) -> effective tuple > 0)
        (Relation.to_list (Table.contents table))
    in
    match items with
    | [] -> None
    | _ -> Some (fst (List.nth items (Prng.int rng (List.length items))))
  in
  ignore
    (Database.run s.db (fun txn ->
         let ops = 1 + Prng.int rng 3 in
         let ins tuple =
           Database.insert txn ~table:table_name tuple;
           note tuple 1
         in
         let del tuple =
           Database.delete txn ~table:table_name tuple;
           note tuple (-1)
         in
         for _ = 1 to ops do
           match Prng.int rng 10 with
           | 0 | 1 | 2 | 3 | 4 -> ins (random_tuple ())
           | 5 | 6 | 7 -> (
               match deletable () with
               | Some tuple -> del tuple
               | None -> ins (random_tuple ()))
           | _ -> (
               match deletable () with
               | Some tuple ->
                   del tuple;
                   ins (random_tuple ())
               | None -> ins (random_tuple ()))
         done))

let random_txns rng s n =
  for _ = 1 to n do
    random_txn rng s
  done

(* Make every propagation query race with fresh updates: before each
   Execute, commit up to [per_execute] update transactions. *)
let inject_updates rng s ctx ~per_execute =
  ctx.C.Ctx.on_execute <-
    (fun () -> random_txns rng s (Prng.int rng (per_execute + 1)))

let ctx_of ?geometry ?t_initial s =
  C.Ctx.create ?geometry ?t_initial s.db s.capture s.view

let check_ok = function
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* Alcotest testables. *)
let relation = Alcotest.testable Relation.pp Relation.equal

let tuple = Alcotest.testable Tuple.pp Tuple.equal

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec loop i = i + n <= h && (String.sub haystack i n = needle || loop (i + 1)) in
  loop 0

(* An alias-renamed twin of [view]: same tables, predicate and projection
   under fresh aliases — a distinct view object the canonical signature
   (Pquery.signature) must identify with the original. Column references
   are source/column indexes, so no remapping is needed. *)
let clone_view db view ~name =
  let sources =
    List.init (C.View.n_sources view) (fun i ->
        (C.View.source_table view i, Printf.sprintf "%s_s%d" name i))
  in
  C.View.create_select db ~name ~sources ~predicate:(C.View.predicate view)
    ~select:(C.View.projection view)

(* A source-order-permuted twin of a two-source view: sources swapped and
   every column reference remapped, so canonicalization has real work to
   do (the identity permutation does not line the twins up). *)
let swapped_clone db view ~name =
  if C.View.n_sources view <> 2 then
    invalid_arg "Helpers.swapped_clone: two-source views only";
  let swap (c : Predicate.col) =
    { c with Predicate.source = 1 - c.Predicate.source }
  in
  let rec swap_operand = function
    | Predicate.Col c -> Predicate.Col (swap c)
    | Predicate.Const v -> Predicate.Const v
    | Predicate.Neg a -> Predicate.Neg (swap_operand a)
    | Predicate.Add (a, b) -> Predicate.Add (swap_operand a, swap_operand b)
    | Predicate.Sub (a, b) -> Predicate.Sub (swap_operand a, swap_operand b)
    | Predicate.Mul (a, b) -> Predicate.Mul (swap_operand a, swap_operand b)
    | Predicate.Div (a, b) -> Predicate.Div (swap_operand a, swap_operand b)
  in
  let swap_atom = function
    | Predicate.Join (a, b) -> Predicate.Join (swap a, swap b)
    | Predicate.Cmp (op, a, b) ->
        Predicate.Cmp (op, swap_operand a, swap_operand b)
  in
  let sources =
    [
      (C.View.source_table view 1, name ^ "_s1");
      (C.View.source_table view 0, name ^ "_s0");
    ]
  in
  C.View.create_select db ~name ~sources
    ~predicate:(List.map swap_atom (C.View.predicate view))
    ~select:
      (List.map (fun (n, op) -> (n, swap_operand op)) (C.View.projection view))
