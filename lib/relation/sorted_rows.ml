type t = (Tuple.t * int) array

let by_tuple (a, _) (b, _) = Tuple.compare a b

let consolidate rows =
  Array.stable_sort by_tuple rows;
  let n = Array.length rows in
  (* Collapse runs of equal tuples in place; [w] is the next free slot. *)
  let w = ref 0 and i = ref 0 in
  while !i < n do
    let tuple, _ = rows.(!i) in
    let sum = ref 0 and j = ref !i in
    while !j < n && Tuple.equal (fst rows.(!j)) tuple do
      sum := !sum + snd rows.(!j);
      incr j
    done;
    if !sum <> 0 then begin
      rows.(!w) <- (if !j = !i + 1 then rows.(!i) else (tuple, !sum));
      incr w
    end;
    i := !j
  done;
  if !w = n then rows else Array.sub rows 0 !w

(* The first index in [rows.(lo) .. rows.(n-1)] whose tuple is not below
   [tuple]. *)
let rec lower_bound rows tuple lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if Tuple.compare (fst (Array.unsafe_get rows mid)) tuple < 0 then
      lower_bound rows tuple (mid + 1) hi
    else lower_bound rows tuple lo mid

let merge rows delta =
  let n = Array.length rows and k = Array.length delta in
  if k = 0 then rows
  else begin
    (* Locate every delta row by binary search, then copy the runs of
       [rows] between them: k log n comparisons and one allocation of the
       result, however long [rows] is. *)
    let pos = Array.make k 0 in
    let size = ref n and from = ref 0 in
    for j = 0 to k - 1 do
      let tuple, c = delta.(j) in
      let p = lower_bound rows tuple !from n in
      pos.(j) <- p;
      if p < n && Tuple.equal (fst rows.(p)) tuple then begin
        if snd rows.(p) + c = 0 then decr size;
        from := p + 1
      end
      else begin
        incr size;
        from := p
      end
    done;
    if !size = 0 then [||]
    else begin
      let out = Array.make !size delta.(0) in
      let o = ref 0 and i = ref 0 in
      for j = 0 to k - 1 do
        let p = pos.(j) in
        Array.blit rows !i out !o (p - !i);
        o := !o + (p - !i);
        let ((tuple, c) as d) = delta.(j) in
        if p < n && Tuple.equal (fst rows.(p)) tuple then begin
          let c' = snd rows.(p) + c in
          if c' <> 0 then begin
            out.(!o) <- (tuple, c');
            incr o
          end;
          i := p + 1
        end
        else begin
          out.(!o) <- d;
          incr o;
          i := p
        end
      done;
      Array.blit rows !i out !o (n - !i);
      out
    end
  end
