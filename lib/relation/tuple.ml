type t = Value.t array

let make values = Array.of_list values

let arity = Array.length

let get t i = t.(i)

let concat = Array.append

let project t idxs = Array.of_list (List.map (fun i -> t.(i)) idxs)

(* The element loops here are top-level functions, not local closures over
   the tuples: a closure would be allocated on every call, and these run
   in every sort, every hash lookup on tuples and every row added to a
   relation. Int columns, the common case, are compared inline. *)
let rec conforms_from schema t i n =
  i >= n
  || Value.matches (Schema.column schema i).ty (Array.unsafe_get t i)
     && conforms_from schema t (i + 1) n

let conforms schema t =
  let n = Array.length t in
  n = Schema.arity schema && conforms_from schema t 0 n

let compare_values x y =
  match (x, y) with
  | Value.Int x, Value.Int y -> Int.compare x y
  | _ -> Value.compare x y

let rec compare_from a b i n =
  if i >= n then 0
  else
    let c = compare_values (Array.unsafe_get a i) (Array.unsafe_get b i) in
    if c <> 0 then c else compare_from a b (i + 1) n

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb else compare_from a b 0 la

let rec equal_from a b i n =
  i >= n
  || compare_values (Array.unsafe_get a i) (Array.unsafe_get b i) = 0
     && equal_from a b (i + 1) n

let equal a b =
  let n = Array.length a in
  n = Array.length b && equal_from a b 0 n

let hash t =
  Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 t

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_seq
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Value.pp)
    (Array.to_seq t)

let to_string t = Format.asprintf "%a" pp t

let ints xs = Array.of_list (List.map (fun i -> Value.Int i) xs)

let of_pair a b = [| a; b |]
