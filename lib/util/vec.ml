type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let length v = v.len

let is_empty v = v.len = 0

let grow v filler =
  let cap = Array.length v.data in
  let cap' = if cap = 0 then 16 else 2 * cap in
  let data' = Array.make cap' filler in
  Array.blit v.data 0 data' 0 v.len;
  v.data <- data'

let push v x =
  if v.len = Array.length v.data then grow v x;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get";
  v.data.(i)

let set v i x =
  if i < 0 || i >= v.len then invalid_arg "Vec.set";
  v.data.(i) <- x

let last v = if v.len = 0 then None else Some v.data.(v.len - 1)

let pop v =
  if v.len = 0 then None
  else begin
    v.len <- v.len - 1;
    Some v.data.(v.len)
  end

let clear v = v.len <- 0

let truncate v n =
  if n < v.len then begin
    let n = max 0 n in
    (* Overwrite the dropped slots so what they held becomes garbage. *)
    if n = 0 then v.data <- [||]
    else Array.fill v.data n (v.len - n) v.data.(0);
    v.len <- n
  end

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i v.data.(i)
  done

let iter_range f v ~lo ~hi =
  let lo = max 0 lo and hi = min v.len hi in
  for i = lo to hi - 1 do
    f v.data.(i)
  done

let fold_left f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let to_list v =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (v.data.(i) :: acc) in
  loop (v.len - 1) []

let of_list xs =
  let v = create () in
  List.iter (push v) xs;
  v

let exists p v =
  let rec loop i = i < v.len && (p v.data.(i) || loop (i + 1)) in
  loop 0

let lower_bound v ~key k =
  (* Invariant: key of every element before [lo] is < k; key of every
     element at or after [hi] is >= k. *)
  let lo = ref 0 and hi = ref v.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if key v.data.(mid) < k then lo := mid + 1 else hi := mid
  done;
  !lo
