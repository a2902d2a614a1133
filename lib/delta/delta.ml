open Roll_relation
module Vec = Roll_util.Vec

type row = { tuple : Tuple.t; count : int; ts : Time.t }

(* How reads find the rows in (timestamp, arrival) order.

   - [Ordered]: arrival order already is that order. Every capture delta
     stays here (capture appends in commit order), and so does a view delta
     until its first out-of-order row. Window bounds are binary searches
     over [rows], and no read mutates anything.
   - [Indexed]: [pos.(0 .. len-1)] are the positions of rows [0 .. len-1]
     sorted by (timestamp, arrival); [pos] has spare capacity beyond [len].
     The rows appended since, [len .. length-1], are the unindexed tail,
     which [ensure_index] merges in before the next read. *)
type order =
  | Ordered
  | Indexed of { mutable pos : int array; mutable len : int }

type t = { schema : Schema.t; rows : row Vec.t; mutable order : order }

let create schema = { schema; rows = Vec.create (); order = Ordered }

let schema t = t.schema

let length t = Vec.length t.rows

let ts_of t p = (Vec.get t.rows p).ts

let push t row =
  let n = Vec.length t.rows in
  (match t.order with
  | Ordered when n > 0 && ts_of t (n - 1) > row.ts ->
      (* The first out-of-order row: every row before it is in order, so
         the identity is their index, and this row starts the tail. *)
      t.order <- Indexed { pos = Array.init n Fun.id; len = n }
  | Ordered | Indexed _ -> ());
  Vec.push t.rows row

let append_row t row =
  if row.count <> 0 then begin
    if not (Tuple.conforms t.schema row.tuple) then
      invalid_arg "Delta.append: tuple does not conform to schema";
    push t row
  end

let append t tuple ~count ~ts = append_row t { tuple; count; ts }

(* Merge the unindexed tail into the index: sort the tail (usually already
   sorted), then merge it in place from the back. A tail of k rows costs
   O(k log k + rows displaced); the index buffer grows by doubling. *)
let ensure_index t =
  match t.order with
  | Ordered -> ()
  | Indexed idx ->
      let n = Vec.length t.rows in
      let k = n - idx.len in
      if k > 0 then begin
        if Array.length idx.pos < n then begin
          let pos = Array.make (max n (2 * Array.length idx.pos)) 0 in
          Array.blit idx.pos 0 pos 0 idx.len;
          idx.pos <- pos
        end;
        let tail = Array.init k (fun j -> idx.len + j) in
        let sorted = ref true in
        for j = 1 to k - 1 do
          if ts_of t tail.(j - 1) > ts_of t tail.(j) then sorted := false
        done;
        (* Stable, so ties keep arrival order. *)
        if not !sorted then
          Array.stable_sort
            (fun p q -> Time.compare (ts_of t p) (ts_of t q))
            tail;
        let pos = idx.pos in
        let i = ref (idx.len - 1) and w = ref (n - 1) in
        for j = k - 1 downto 0 do
          let ts = ts_of t tail.(j) in
          (* Indexed rows later than this tail row move up past it; on a
             tie the indexed row arrived first and stays below it. *)
          while !i >= 0 && ts_of t pos.(!i) > ts do
            pos.(!w) <- pos.(!i);
            decr i;
            decr w
          done;
          pos.(!w) <- tail.(j);
          decr w
        done;
        idx.len <- n
      end

let freshen = ensure_index

let truncate t n =
  if n < 0 then invalid_arg "Delta.truncate: negative length";
  if Vec.length t.rows > n then begin
    Vec.truncate t.rows n;
    match t.order with
    | Indexed idx when idx.len > n ->
        (* Keep the surviving positions, in index order. *)
        let w = ref 0 in
        for k = 0 to idx.len - 1 do
          let p = idx.pos.(k) in
          if p < n then begin
            idx.pos.(!w) <- p;
            incr w
          end
        done;
        idx.len <- n
    | Ordered | Indexed _ -> ()
  end

let iter f t = Vec.iter f t.rows

let to_list t = Vec.to_list t.rows

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Vec.length t.rows then
    invalid_arg "Delta.sub: slice out of range";
  Array.init len (fun i -> Vec.get t.rows (pos + i))

(* The [k]th row in (timestamp, arrival) order. The index must be fresh. *)
let nth t k =
  match t.order with
  | Ordered -> Vec.get t.rows k
  | Indexed idx -> Vec.get t.rows idx.pos.(k)

(* How many rows have a timestamp at or before [x]: a binary search over
   the rows in timestamp order. The index must be fresh. *)
let count_upto t x =
  let lo = ref 0 and hi = ref (Vec.length t.rows) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if (nth t mid).ts <= x then lo := mid + 1 else hi := mid
  done;
  !lo

(* The single traversal core: a lazy sequence over the rows in timestamp
   order. Bounds are found again on every replay, so a cursor rewound after
   new appends sees them. *)
let window_seq t ~lo ~hi () =
  if hi <= lo then Seq.Nil
  else begin
    ensure_index t;
    let last = count_upto t hi in
    let rec go k () =
      if k >= last then Seq.Nil else Seq.Cons (nth t k, go (k + 1))
    in
    go (count_upto t lo) ()
  end

let window_cursor t ~lo ~hi =
  Cursor.of_seq (fun () ->
      Seq.map
        (fun (r : row) -> { Cursor.tuple = r.tuple; count = r.count; ts = r.ts })
        (fun () -> window_seq t ~lo ~hi ()))

let window_iter t ~lo ~hi f = Seq.iter f (fun () -> window_seq t ~lo ~hi ())

let window t ~lo ~hi =
  let acc = ref [] in
  window_iter t ~lo ~hi (fun row -> acc := row :: !acc);
  List.rev !acc

let window_count t ~lo ~hi =
  if hi <= lo then 0
  else begin
    ensure_index t;
    count_upto t hi - count_upto t lo
  end

let min_ts t =
  if Vec.length t.rows = 0 then None
  else begin
    ensure_index t;
    Some (nth t 0).ts
  end

let max_ts t =
  if Vec.length t.rows = 0 then None
  else begin
    ensure_index t;
    Some (nth t (Vec.length t.rows - 1)).ts
  end

let net_effect t ~lo ~hi =
  let r = Relation.create t.schema in
  window_iter t ~lo ~hi (fun row -> Relation.add r row.tuple row.count);
  r

let apply_window t ~lo ~hi r =
  window_iter t ~lo ~hi (fun row -> Relation.add r row.tuple row.count)

let prune t ~upto =
  ensure_index t;
  (* The rows to drop are a prefix in timestamp order. *)
  let dropped = count_upto t upto in
  if dropped > 0 then begin
    let n = Vec.length t.rows in
    (match t.order with
    | Ordered ->
        for p = dropped to n - 1 do
          Vec.set t.rows (p - dropped) (Vec.get t.rows p)
        done
    | Indexed idx ->
        (* Shift the survivors down in arrival order, then drop the
           index's sorted prefix and renumber the rest. *)
        let renumber = Array.make n 0 in
        let w = ref 0 in
        for p = 0 to n - 1 do
          let row = Vec.get t.rows p in
          if row.ts > upto then begin
            renumber.(p) <- !w;
            Vec.set t.rows !w row;
            incr w
          end
        done;
        for k = dropped to n - 1 do
          idx.pos.(k - dropped) <- renumber.(idx.pos.(k))
        done;
        idx.len <- n - dropped);
    Vec.truncate t.rows (n - dropped)
  end;
  dropped

let copy t =
  let t' = create t.schema in
  iter (fun row -> append_row t' row) t;
  t'

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  iter
    (fun row ->
      Format.fprintf ppf "@@%a %+d x %a@," Time.pp row.ts row.count Tuple.pp
        row.tuple)
    t;
  Format.fprintf ppf "@]"
