(* Per-database paged store: one pager + block cache + catalog of named
   B-trees (table contents and secondary indexes), behind a mutex so
   wave-worker domains can read while the single writer mutates.

   The catalog (tree name -> root page id + row counters) is a small
   text blob embedded in the pager's meta page at every barrier, so a
   reopened store finds its trees at the last durable snapshot. On
   reopen the free list is rebuilt by a reachability walk from the
   catalog roots — pages only referenced by the crashed epoch's
   abandoned copies fall out automatically.

   Store selection is environment-driven so the whole test suite and
   every bench can run unchanged against either backend:

   - ROLL_STORE=mem|disk         backend (default mem)
   - ROLL_CACHE_PAGES=n          block-cache capacity (default 1024)
   - ROLL_STORE_POLICY=lru|clock eviction policy (default lru)
   - ROLL_SEGMENT_RECORDS=n      WAL records per segment (default 256)
   - ROLL_STORE_DIR=path         fixed directory (default: fresh temp
                                 dir per database, removed at exit
                                 unless ROLL_STORE_KEEP=1) *)

type mode = Mem | Disk

let mode_of_env () =
  match Sys.getenv_opt "ROLL_STORE" with
  | Some "disk" -> Disk
  | Some "mem" | Some "" | None -> Mem
  | Some other -> invalid_arg ("ROLL_STORE: unknown backend " ^ other)

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> default)
  | None -> default

let cache_pages_of_env () = env_int "ROLL_CACHE_PAGES" 1024

let segment_records_of_env () = env_int "ROLL_SEGMENT_RECORDS" 256

let policy_of_env () =
  match Sys.getenv_opt "ROLL_STORE_POLICY" with
  | Some s when s <> "" -> Block_cache.policy_of_string s
  | _ -> Block_cache.Lru

(* --- temp directories --- *)

let temp_dirs : string list ref = ref []

let temp_counter = ref 0

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun name -> remove_tree (Filename.concat path name))
        (Sys.readdir path);
      try Unix.rmdir path with Unix.Unix_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()

let () =
  at_exit (fun () ->
      if Sys.getenv_opt "ROLL_STORE_KEEP" <> Some "1" then
        List.iter remove_tree !temp_dirs)

let fresh_dir () =
  incr temp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rolldb-%d-%d" (Unix.getpid ()) !temp_counter)
  in
  temp_dirs := dir :: !temp_dirs;
  dir

(* --- store --- *)

type tree = {
  tname : string;
  btree : Paged_btree.t;
  mutable rows : int;  (** sum of multiplicities *)
  mutable distinct : int;  (** keys with non-zero count *)
}

type t = {
  dir : string;
  pager : Pager.t;
  cache : Block_cache.t;
  ctx : Paged_btree.ctx;
  mutex : Mutex.t;
  trees : (string, tree) Hashtbl.t;
}

let catalog_magic = "ROLLCAT 1"

(* The whole catalog rides inside the pager's meta page, so tree
   creation must refuse once the projected encoding could no longer fit
   — otherwise every later barrier would fail at runtime with the store
   already mutated. The bound is conservative: room for 19-digit root
   and row counters per entry, plus the pager's own meta header. *)
let catalog_entry_bound name =
  String.length (Printf.sprintf "T %S" name) + (3 * 20) + 4

let catalog_overhead_bound = String.length catalog_magic + 1 + 128

let encode_catalog t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf catalog_magic;
  Buffer.add_char buf '\n';
  let names =
    Hashtbl.fold (fun name _ acc -> name :: acc) t.trees []
    |> List.sort String.compare
  in
  List.iter
    (fun name ->
      let tree = Hashtbl.find t.trees name in
      Buffer.add_string buf
        (Printf.sprintf "T %S %d %d %d\n" tree.tname
           (Paged_btree.root tree.btree)
           tree.rows tree.distinct))
    names;
  Buffer.contents buf

let decode_catalog ctx blob =
  let trees = Hashtbl.create 16 in
  (if blob <> "" then
     match String.split_on_char '\n' blob with
     | magic :: lines when magic = catalog_magic ->
         List.iter
           (fun line ->
             if line <> "" then
               try
                 Scanf.sscanf line "T %S %d %d %d" (fun name root rows distinct ->
                     Hashtbl.replace trees name
                       {
                         tname = name;
                         btree = Paged_btree.open_root ctx root;
                         rows;
                         distinct;
                       })
               with Scanf.Scan_failure _ | End_of_file | Failure _ ->
                 raise (Pager.Corrupt ("catalog: bad line: " ^ line)))
           lines
     | _ -> raise (Pager.Corrupt "catalog: bad magic"));
  trees

let open_dir ?page_size ?cache_pages ?policy dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let pager = Pager.create ?page_size (Filename.concat dir "data.pages") in
  let capacity =
    match cache_pages with Some n -> n | None -> cache_pages_of_env ()
  in
  let policy = match policy with Some p -> p | None -> policy_of_env () in
  let cache = Block_cache.create ~policy ~capacity pager in
  let ctx = Paged_btree.make_ctx pager cache in
  let trees = decode_catalog ctx (Pager.catalog pager) in
  let t = { dir; pager; cache; ctx; mutex = Mutex.create (); trees } in
  (* Everything not reachable from a catalog root is free — including
     pages the pre-crash epoch allocated but never committed. *)
  let reachable =
    Hashtbl.fold
      (fun _ tree acc -> Paged_btree.reachable tree.btree @ acc)
      trees []
  in
  Pager.set_free_list pager ~reachable;
  t

let dir t = t.dir

let cache t = t.cache

let pager t = t.pager

let locked t f = Mutex.protect t.mutex f

let find_tree t name =
  locked t (fun () -> Hashtbl.find_opt t.trees name)

let tree t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.trees name with
      | Some tree -> tree
      | None ->
          let projected =
            Hashtbl.fold
              (fun n _ acc -> acc + catalog_entry_bound n)
              t.trees
              (catalog_overhead_bound + catalog_entry_bound name)
          in
          if projected > Pager.payload_capacity t.pager then
            invalid_arg
              (Printf.sprintf
                 "Store.tree: catalog with %d trees would exceed the meta \
                  page (page_size %d); open the store with a larger page_size"
                 (Hashtbl.length t.trees + 1)
                 (Pager.page_size t.pager));
          let tree =
            {
              tname = name;
              btree = Paged_btree.create t.ctx;
              rows = 0;
              distinct = 0;
            }
          in
          Hashtbl.replace t.trees name tree;
          tree)

(* Merge [delta] into [key]'s multiplicity; keeps the row counters and
   returns the previous multiplicity. *)
let add t tree key delta =
  locked t (fun () ->
      let prev = Paged_btree.add tree.btree key delta in
      let now = prev + delta in
      tree.rows <- tree.rows + delta;
      if prev = 0 && now <> 0 then tree.distinct <- tree.distinct + 1
      else if prev <> 0 && now = 0 then tree.distinct <- tree.distinct - 1;
      prev)

let get t tree key = locked t (fun () -> Paged_btree.get tree.btree key)

(* Lazy sequences take the store lock per element so concurrent readers
   on other domains cannot corrupt cache bookkeeping mid-step. *)
let locked_seq t seq =
  let rec wrap seq () =
    match locked t (fun () -> seq ()) with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (x, rest) -> Seq.Cons (x, wrap rest)
  in
  wrap seq

let seq t tree = locked_seq t (Paged_btree.seq tree.btree)

let seq_from t tree key = locked_seq t (Paged_btree.seq_from tree.btree key)

let clear_tree t tree =
  locked t (fun () ->
      Paged_btree.clear tree.btree;
      tree.rows <- 0;
      tree.distinct <- 0)

(* The flush barrier: write back every dirty cached page, then commit
   the pager's durable snapshot with the current catalog. Callers fsync
   the WAL first — the snapshot must never be ahead of the log. *)
let barrier ?fault t ~data_csn =
  locked t (fun () ->
      Block_cache.flush ?fault t.cache;
      Pager.barrier t.pager ~data_csn ~catalog:(encode_catalog t))

let data_csn t = Pager.data_csn t.pager

let hit_ratio t = Block_cache.hit_ratio t.cache

let resident_pages t = Block_cache.resident t.cache

let stats_json t =
  let module Json = Roll_util.Json in
  locked t (fun () ->
      Json.Obj
        [
          ("dir", Json.Str t.dir);
          ("pages", Json.Int (Pager.n_pages t.pager));
          ("free_pages", Json.Int (Pager.free_count t.pager));
          ("data_csn", Json.Int (Pager.data_csn t.pager));
          ("page_reads", Json.Int (Pager.page_reads t.pager));
          ("page_writes", Json.Int (Pager.page_writes t.pager));
          ("cache", Block_cache.stats_json t.cache);
        ])

let check_invariants t =
  locked t (fun () ->
      Hashtbl.iter (fun _ tree -> Paged_btree.check_invariants tree.btree) t.trees)
