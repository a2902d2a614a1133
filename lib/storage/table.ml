open Roll_relation

module Rows = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal

  (* Int columns hash inline rather than through a C call; the final mix
     spreads every column into the low bits a table indexes by. *)
  let hash t =
    let h = ref 0 in
    for i = 0 to Array.length t - 1 do
      let v = match t.(i) with Value.Int n -> n | v -> Value.hash v in
      h := (!h lxor v) * 0x100000001b3
    done;
    let h = !h lxor (!h lsr 29) in
    (h lxor (h lsr 32)) land max_int
end)

(* One key's rows with their multiplicities. Join keys are often unique
   (a dimension's primary key), so a key with a single distinct row holds
   it inline rather than in a table of its own. *)
type bucket = One of { row : Tuple.t; mutable n : int } | Many of int Rows.t

(* A memory index maps a projection key to its rows. Only equality probes
   use an index, so it is hashed, not ordered; a hot key's rows are a
   table too, so a delete costs O(1) however many copies share the key. *)
type index = { columns : int list; cols : int array; keys : bucket Rows.t }

type disk_index = { dcolumns : int list; dtree : Store.tree }

(* Two backends behind one signature: the in-memory multiset + hash
   indexes, and the paged store, where both the table contents
   and every index are {!Paged_btree}s. A disk index stores composite
   keys — projection ++ row — mapping to the row's multiplicity;
   [Tuple.compare] sorts same-arity composites lexicographically, so an
   equality probe is a range scan over one projection prefix. *)
type mem_store = { data : Relation.t; mutable indexes : index list }

type disk_store = {
  store : Store.t;
  dtable : Store.tree;
  mutable dindexes : disk_index list;
}

type backend = Mem of mem_store | Disk of disk_store

type t = {
  name : string;
  schema : Schema.t;
  backend : backend;
  (* Bumped on every committed change; cheap content-version for caches
     built over the table's state (the global clock advances on marker
     commits too, so it cannot version table contents). *)
  mutable version : int;
}

let data_tree_name name = "tbl:" ^ name

let index_tree_name name columns =
  Printf.sprintf "idx:%s:%s" name
    (String.concat "," (List.map string_of_int columns))

let create ~name ?store schema =
  let backend =
    match store with
    | None -> Mem { data = Relation.create schema; indexes = [] }
    | Some store ->
        (* Adopt the tree from the catalog if the store already holds a
           durable snapshot of this table (reopen after checkpoint). *)
        Disk { store; dtable = Store.tree store (data_tree_name name); dindexes = [] }
  in
  { name; schema; backend; version = 0 }

let name t = t.name

let version t = t.version

let schema t = t.schema

let row_arity t = Schema.arity t.schema

let contents t =
  match t.backend with
  | Mem m -> m.data
  | Disk d ->
      (* Materialized copy: the live contents are on pages. *)
      let state = Relation.create t.schema in
      Seq.iter
        (fun (tuple, count) -> Relation.add state tuple count)
        (Store.seq d.store d.dtable);
      state

let cardinality t =
  match t.backend with
  | Mem m -> Relation.total_count m.data
  | Disk d -> d.dtable.Store.rows

(* Distinct tuples with non-zero multiplicity — the executor's and
   scheduler's cardinality estimate, O(1) on both backends. *)
let distinct_count t =
  match t.backend with
  | Mem m -> Relation.distinct_count m.data
  | Disk d -> d.dtable.Store.distinct

let count t tuple =
  match t.backend with
  | Mem m -> Relation.count m.data tuple
  | Disk d -> Store.get d.store d.dtable tuple

let mem t tuple = count t tuple > 0

(* [before] is the row's multiplicity before the change, which the table
   already read, so an update touches the key's rows once and never looks
   the row up: with [before > 0], a [One] bucket under the key holds this
   very row. *)
let index_add ix tuple ~before n =
  let key = Array.map (Array.get tuple) ix.cols in
  let after = before + n in
  match Rows.find_opt ix.keys key with
  | None -> Rows.add ix.keys key (One { row = tuple; n = after })
  | Some (One b) when before > 0 ->
      if after = 0 then Rows.remove ix.keys key else b.n <- after
  | Some (One b) ->
      let rows = Rows.create 8 in
      Rows.add rows b.row b.n;
      Rows.add rows tuple after;
      Rows.replace ix.keys key (Many rows)
  | Some (Many rows) ->
      if after = 0 then begin
        Rows.remove rows tuple;
        if Rows.length rows = 0 then Rows.remove ix.keys key
      end
      else if before = 0 then Rows.add rows tuple after
      else Rows.replace rows tuple after

let disk_index_key ix tuple = Array.append (Tuple.project tuple ix.dcolumns) tuple

let apply_change t tuple count =
  (match t.backend with
  | Mem m ->
      let current = Relation.count m.data tuple in
      if current + count < 0 then
        invalid_arg
          (Format.asprintf "Table %s: change %+d would make %a negative" t.name
             count Tuple.pp tuple);
      Relation.add m.data tuple count;
      if count <> 0 then
        List.iter (fun ix -> index_add ix tuple ~before:current count) m.indexes
  | Disk d ->
      let current = Store.get d.store d.dtable tuple in
      if current + count < 0 then
        invalid_arg
          (Format.asprintf "Table %s: change %+d would make %a negative" t.name
             count Tuple.pp tuple);
      ignore (Store.add d.store d.dtable tuple count);
      List.iter
        (fun ix -> ignore (Store.add d.store ix.dtree (disk_index_key ix tuple) count))
        d.dindexes);
  t.version <- t.version + 1

let check_index_columns t columns =
  List.iter
    (fun c ->
      if c < 0 || c >= Schema.arity t.schema then
        invalid_arg (Printf.sprintf "Table.create_index: column %d out of range" c))
    columns

let create_index t ~columns =
  check_index_columns t columns;
  match t.backend with
  | Mem m ->
      if not (List.exists (fun ix -> ix.columns = columns) m.indexes) then begin
        let ix =
          {
            columns;
            cols = Array.of_list columns;
            keys = Rows.create (max 16 (Relation.distinct_count m.data));
          }
        in
        Relation.iter (fun tuple n -> index_add ix tuple ~before:0 n) m.data;
        m.indexes <- ix :: m.indexes
      end
  | Disk d ->
      if not (List.exists (fun ix -> ix.dcolumns = columns) d.dindexes) then begin
        let tname = index_tree_name t.name columns in
        let adopted = Store.find_tree d.store tname <> None in
        let ix = { dcolumns = columns; dtree = Store.tree d.store tname } in
        (* A tree already in the catalog was rebuilt to the snapshot the
           table itself was adopted at; only fresh trees need a scan. *)
        if not adopted then
          Seq.iter
            (fun (tuple, n) ->
              ignore (Store.add d.store ix.dtree (disk_index_key ix tuple) n))
            (Store.seq d.store d.dtable);
        d.dindexes <- ix :: d.dindexes
      end

let has_index t ~columns =
  match t.backend with
  | Mem m -> List.exists (fun ix -> ix.columns = columns) m.indexes
  | Disk d -> List.exists (fun ix -> ix.dcolumns = columns) d.dindexes

let indexed_columns t =
  match t.backend with
  | Mem m -> List.map (fun ix -> ix.columns) m.indexes
  | Disk d -> List.map (fun ix -> ix.dcolumns) d.dindexes

(* Composite entries of one projection prefix, via a range scan seeded
   at (key ++ Nulls) — Null is the minimum value, so that composite is
   <= every row under [key]. *)
let disk_probe_seq t d ix key =
  let karity = Array.length key in
  let pad = Array.make (row_arity t) Value.Null in
  Store.seq_from d.store ix.dtree (Array.append key pad)
  |> Seq.take_while (fun ((ck : Tuple.t), _) ->
         Tuple.compare (Array.sub ck 0 karity) key = 0)
  |> Seq.map (fun (ck, n) -> (Array.sub ck karity (row_arity t), n))

let find_mem_index m ~columns =
  match List.find_opt (fun ix -> ix.columns = columns) m with
  | Some ix -> ix
  | None -> raise Not_found

let find_disk_index d ~columns =
  match List.find_opt (fun ix -> ix.dcolumns = columns) d with
  | Some ix -> ix
  | None -> raise Not_found

let index_keys t ~columns =
  match t.backend with
  | Mem m -> Rows.length (find_mem_index m.indexes ~columns).keys
  | Disk d ->
      let ix = find_disk_index d.dindexes ~columns in
      let karity = List.length columns in
      let prefix (ck : Tuple.t) = Array.sub ck 0 karity in
      fst
        (Seq.fold_left
           (fun (n, last) (ck, _) ->
             let key = prefix ck in
             match last with
             | Some k when Tuple.equal k key -> (n, last)
             | _ -> (n + 1, Some key))
           (0, None)
           (Store.seq d.store ix.dtree))

let scan_cursor t =
  match t.backend with
  | Mem m -> Cursor.of_relation m.data
  | Disk d ->
      Cursor.of_seq (fun () ->
          Seq.map
            (fun (tuple, count) -> { Cursor.tuple; count; ts = Cursor.no_ts })
            (Store.seq d.store d.dtable))

let probe_cursor t ~columns key =
  match t.backend with
  | Mem m ->
      let ix = find_mem_index m.indexes ~columns in
      (match Rows.find_opt ix.keys key with
      | None -> Cursor.empty ()
      | Some (One b) ->
          Cursor.of_list [ { Cursor.tuple = b.row; count = b.n; ts = Cursor.no_ts } ]
      | Some (Many rows) ->
          Cursor.of_seq (fun () ->
              Seq.map
                (fun (tuple, count) -> { Cursor.tuple; count; ts = Cursor.no_ts })
                (Rows.to_seq rows)))
  | Disk d ->
      let ix = find_disk_index d.dindexes ~columns in
      Cursor.of_seq (fun () ->
          Seq.map
            (fun (tuple, count) -> { Cursor.tuple; count; ts = Cursor.no_ts })
            (disk_probe_seq t d ix key))
