(* A block cache in front of {!Pager}: bounded set of resident pages
   with write-back of dirty pages and a pluggable eviction policy.

   Two policies ship, both running on the same intrusive doubly-linked
   list so every bookkeeping step is O(1):
   - [LRU]: strict recency order, head = most recently used. Default.
   - [Clock]: second-chance FIFO — the list is the clock face (head =
     hand position, tail = newest); a hit only sets a reference bit,
     and the sweep rotates referenced entries to the back with the bit
     cleared. Approximates LRU at lower per-hit bookkeeping cost.

   Dirty pages are written back on eviction and at {!flush} — the flush
   barrier the WAL commit path calls before fsync, so the pager's
   durable snapshot never misses a cached mutation. Eviction never
   blocks on I/O ordering: correctness comes from the pager's
   copy-on-write discipline (an evicted dirty page is always a fresh
   page, invisible to the durable meta until the next barrier). *)

type policy = Lru | Clock

let policy_of_string = function
  | "lru" | "LRU" -> Lru
  | "clock" | "CLOCK" -> Clock
  | s -> invalid_arg ("Block_cache: unknown policy " ^ s)

let policy_name = function Lru -> "lru" | Clock -> "clock"

type entry = {
  id : int;
  mutable payload : Bytes.t;
  mutable dirty : bool;
  mutable referenced : bool;  (* Clock's second-chance bit *)
  (* LRU intrusive list; [prev]/[next] are entry ids, -1 = none. *)
  mutable prev : int;
  mutable next : int;
}

type t = {
  pager : Pager.t;
  capacity : int;
  policy : policy;
  entries : (int, entry) Hashtbl.t;
  (* Intrusive list: LRU keeps MRU at [head]; Clock keeps its hand at
     [head] and the newest entry at [tail]. -1 if empty. *)
  mutable head : int;
  mutable tail : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writebacks : int;
  mutable on_evict : int -> unit;
}

let create ?(policy = Lru) ~capacity pager =
  if capacity < 2 then invalid_arg "Block_cache.create: capacity < 2";
  {
    pager;
    capacity;
    policy;
    entries = Hashtbl.create (capacity * 2);
    head = -1;
    tail = -1;
    hits = 0;
    misses = 0;
    evictions = 0;
    writebacks = 0;
    on_evict = ignore;
  }

let capacity t = t.capacity

let policy t = t.policy

let resident t = Hashtbl.length t.entries

let hits t = t.hits

let misses t = t.misses

let evictions t = t.evictions

let writebacks t = t.writebacks

let hit_ratio t =
  let total = t.hits + t.misses in
  if total = 0 then 1.0 else float_of_int t.hits /. float_of_int total

(* Callers hang invalidation of derived state (decoded B-tree nodes)
   off eviction. Fires for evictions only, not for explicit [forget]. *)
let set_on_evict t f = t.on_evict <- f

(* --- LRU list maintenance --- *)

let lru_unlink t e =
  (if e.prev >= 0 then (Hashtbl.find t.entries e.prev).next <- e.next
   else t.head <- e.next);
  (if e.next >= 0 then (Hashtbl.find t.entries e.next).prev <- e.prev
   else t.tail <- e.prev);
  e.prev <- -1;
  e.next <- -1

let lru_push_front t e =
  e.prev <- -1;
  e.next <- t.head;
  if t.head >= 0 then (Hashtbl.find t.entries t.head).prev <- e.id;
  t.head <- e.id;
  if t.tail < 0 then t.tail <- e.id

let lru_push_back t e =
  e.next <- -1;
  e.prev <- t.tail;
  if t.tail >= 0 then (Hashtbl.find t.entries t.tail).next <- e.id;
  t.tail <- e.id;
  if t.head < 0 then t.head <- e.id

let touch_entry t e =
  match t.policy with
  | Lru ->
      if t.head <> e.id then begin
        lru_unlink t e;
        lru_push_front t e
      end
  | Clock -> e.referenced <- true

let writeback t e =
  if e.dirty then begin
    Pager.write t.pager e.id e.payload;
    e.dirty <- false;
    t.writebacks <- t.writebacks + 1
  end

let evict_entry t e =
  writeback t e;
  lru_unlink t e;
  Hashtbl.remove t.entries e.id;
  t.evictions <- t.evictions + 1;
  t.on_evict e.id

let pick_victim t =
  match t.policy with
  | Lru -> Hashtbl.find t.entries t.tail
  | Clock ->
      (* Sweep from the hand (head): a referenced entry gets its bit
         cleared and a second chance at the back; the first unreferenced
         entry is the victim. Terminates because every rotation clears a
         bit, so at worst the sweep comes back around to the first entry
         it cleared. *)
      let rec sweep () =
        let e = Hashtbl.find t.entries t.head in
        if e.referenced then begin
          e.referenced <- false;
          lru_unlink t e;
          lru_push_back t e;
          sweep ()
        end
        else e
      in
      sweep ()

let make_room t =
  while Hashtbl.length t.entries >= t.capacity do
    evict_entry t (pick_victim t)
  done

let insert t id payload ~dirty =
  make_room t;
  let e = { id; payload; dirty; referenced = true; prev = -1; next = -1 } in
  Hashtbl.replace t.entries id e;
  (match t.policy with
  | Lru -> lru_push_front t e
  | Clock -> lru_push_back t e);
  e

(* --- public I/O --- *)

let read t id =
  match Hashtbl.find_opt t.entries id with
  | Some e ->
      t.hits <- t.hits + 1;
      touch_entry t e;
      e.payload
  | None ->
      t.misses <- t.misses + 1;
      let payload = Pager.read t.pager id in
      let e = insert t id payload ~dirty:false in
      e.payload

(* Record a page image without writing through; it reaches the pager at
   eviction or {!flush}. *)
let write t id payload =
  match Hashtbl.find_opt t.entries id with
  | Some e ->
      e.payload <- payload;
      e.dirty <- true;
      touch_entry t e
  | None -> ignore (insert t id payload ~dirty:true)

(* Mark a cache hit that bypassed [read] (e.g. a decoded-node cache hit
   in the B-tree layer), keeping the hit/miss counters honest. *)
let note_hit t id =
  t.hits <- t.hits + 1;
  match Hashtbl.find_opt t.entries id with
  | Some e -> touch_entry t e
  | None -> ()

(* Drop a page without write-back (the page was freed). *)
let forget t id =
  match Hashtbl.find_opt t.entries id with
  | Some e ->
      lru_unlink t e;
      Hashtbl.remove t.entries id
  | None -> ()

let dirty_count t =
  Hashtbl.fold (fun _ e n -> if e.dirty then n + 1 else n) t.entries 0

(* The flush barrier: push every dirty page down to the pager. Called by
   the commit path before the pager's durability barrier. *)
let flush ?fault t =
  Hashtbl.iter
    (fun _ e ->
      if e.dirty then begin
        (match fault with
        | Some f -> Roll_util.Fault.hit f "cache.writeback"
        | None -> ());
        writeback t e
      end)
    t.entries

(* Drop the entire resident set (dirty pages written back first unless
   [discard]). Used on reopen/recover. *)
let clear ?(discard = false) t =
  if not discard then flush t;
  Hashtbl.reset t.entries;
  t.head <- -1;
  t.tail <- -1

let stats_json t =
  let module Json = Roll_util.Json in
  Json.Obj
    [
      ("policy", Json.Str (policy_name t.policy));
      ("capacity", Json.Int t.capacity);
      ("resident", Json.Int (resident t));
      ("hits", Json.Int t.hits);
      ("misses", Json.Int t.misses);
      ("hit_ratio", Json.fixed 4 (hit_ratio t));
      ("evictions", Json.Int t.evictions);
      ("writebacks", Json.Int t.writebacks);
    ]
