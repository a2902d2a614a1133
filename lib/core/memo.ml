module Delta = Roll_delta.Delta

type key = { signature : string; tau : int array; t_new : int; sign : int }

module Key = struct
  type t = key

  let equal a b =
    a.sign = b.sign && a.t_new = b.t_new
    && String.equal a.signature b.signature
    && a.tau = b.tau

  let hash k = Hashtbl.hash (k.signature, k.tau, k.t_new, k.sign)
end

module Tbl = Hashtbl.Make (Key)

(* An entry remembers the rows the computation appended to the view delta,
   the insertion sequence number and the owner that inserted it, so a retry
   rollback can evict exactly what a failed step produced ([evict_since])
   even when sibling steps on other domains were filling the memo
   concurrently.

   The map is sharded by key hash: each shard has its own table, insertion
   log and mutex, so concurrent find/add from different domains contend
   only when they land on the same shard. The insertion sequence is one
   global atomic — marks taken on the drain domain order entries across
   shards. Complete entries are always value-correct regardless of which
   domain filled them: rows are captured only after the computation
   finishes, and the computation's net result is execution-time
   independent (the memo theorem). *)
type shard = {
  mutex : Mutex.t;
  entries : (Delta.row array * int * int) Tbl.t;  (** rows, seq, owner *)
  mutable log : (int * int * key) list;  (** seq, owner, key; newest first *)
}

let n_shards = 16

type t = {
  mutable enabled : bool;
  shards : shard array;
  seq : int Atomic.t;
  exec_cache : Exec.cache;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

let create ?(enabled = true) () =
  {
    enabled;
    shards =
      Array.init n_shards (fun _ ->
          { mutex = Mutex.create (); entries = Tbl.create 8; log = [] });
    seq = Atomic.make 0;
    exec_cache = Exec.cache_create ();
    hits = Atomic.make 0;
    misses = Atomic.make 0;
  }

let shard t key = t.shards.(Key.hash key land (n_shards - 1))

let enabled t = t.enabled

let set_enabled t b = t.enabled <- b

let exec_cache t = t.exec_cache

let size t =
  Array.fold_left (fun acc sh -> acc + Tbl.length sh.entries) 0 t.shards

let hits t = Atomic.get t.hits

let misses t = Atomic.get t.misses

let locked sh f =
  Mutex.lock sh.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock sh.mutex) f

let find t key =
  if not t.enabled then None
  else
    let sh = shard t key in
    match locked sh (fun () -> Tbl.find_opt sh.entries key) with
    | Some (rows, _, _) ->
        Atomic.incr t.hits;
        Some rows
    | None ->
        Atomic.incr t.misses;
        None

let add ?(owner = 0) t key rows =
  if t.enabled then begin
    let seq = Atomic.fetch_and_add t.seq 1 + 1 in
    let sh = shard t key in
    locked sh (fun () ->
        Tbl.replace sh.entries key (rows, seq, owner);
        sh.log <- (seq, owner, key) :: sh.log)
  end

let mark t = Atomic.get t.seq

(* Drop every entry [owner] added after [mark]. Owners are unique within
   a wave, so a rollback evicts exactly one step's fills and sibling steps'
   concurrent fills survive. The build cache stays — its entries are
   content-addressed and unaffected by step aborts. *)
let evict_since t ~owner mark =
  Array.iter
    (fun sh ->
      locked sh (fun () ->
          sh.log <-
            List.filter
              (fun (seq, own, key) ->
                if seq > mark && own = owner then begin
                  (match Tbl.find_opt sh.entries key with
                  | Some (_, s, _) when s = seq -> Tbl.remove sh.entries key
                  | _ -> ());
                  false
                end
                else true)
              sh.log))
    t.shards

(* Drain-scoped invalidation: called at every drain start, after capture
   GC, and on fault-injected aborts. Hit/miss counters are cumulative. *)
let clear t =
  Array.iter
    (fun sh ->
      locked sh (fun () ->
          Tbl.reset sh.entries;
          sh.log <- []))
    t.shards;
  Exec.cache_clear t.exec_cache
