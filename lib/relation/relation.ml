module H = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

type t = { schema : Schema.t; tbl : int H.t }

let create schema = { schema; tbl = H.create 64 }

let schema t = t.schema

let add t tuple count =
  if count <> 0 then begin
    if not (Tuple.conforms t.schema tuple) then
      invalid_arg
        (Format.asprintf "Relation.add: tuple %a does not conform to %a" Tuple.pp
           tuple Schema.pp t.schema);
    match H.find_opt t.tbl tuple with
    | None -> H.replace t.tbl tuple count
    | Some c ->
        let c' = c + count in
        if c' = 0 then H.remove t.tbl tuple else H.replace t.tbl tuple c'
  end

let count t tuple = match H.find_opt t.tbl tuple with None -> 0 | Some c -> c

let mem t tuple = H.mem t.tbl tuple

let distinct_count t = H.length t.tbl

let total_count t = H.fold (fun _ c acc -> acc + c) t.tbl 0

let is_empty t = H.length t.tbl = 0

let iter f t = H.iter f t.tbl

let fold f t acc = H.fold f t.tbl acc

let to_seq t = H.to_seq t.tbl

let sorted t =
  let rows = Array.make (H.length t.tbl) ([||], 0) in
  let i = ref 0 in
  H.iter
    (fun tuple c ->
      rows.(!i) <- (tuple, c);
      incr i)
    t.tbl;
  Sorted_rows.consolidate rows

let to_list t = Array.to_list (sorted t)

let of_list schema items =
  let t = create schema in
  List.iter (fun (tuple, c) -> add t tuple c) items;
  t

let copy t = { schema = t.schema; tbl = H.copy t.tbl }

let equal a b =
  distinct_count a = distinct_count b
  && H.fold (fun tuple c acc -> acc && count b tuple = c) a.tbl true

let union a b =
  if Schema.arity a.schema <> Schema.arity b.schema then
    invalid_arg "Relation.union: arity mismatch";
  let r = copy a in
  iter (fun tuple c -> add r tuple c) b;
  r

let negate t =
  let r = create t.schema in
  iter (fun tuple c -> add r tuple (-c)) t;
  r

let diff a b = union a (negate b)

let select pred t =
  let r = create t.schema in
  iter (fun tuple c -> if pred tuple then add r tuple c) t;
  r

let project t idxs =
  let r = create (Schema.project t.schema idxs) in
  iter (fun tuple c -> add r (Tuple.project tuple idxs) c) t;
  r

let product ~pred a b =
  let r = create (Schema.concat a.schema b.schema) in
  iter
    (fun ta ca ->
      iter
        (fun tb cb -> if pred ta tb then add r (Tuple.concat ta tb) (ca * cb))
        b)
    a;
  r

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (tuple, c) -> Format.fprintf ppf "%+d x %a@," c Tuple.pp tuple)
    (to_list t);
  Format.fprintf ppf "@]"
