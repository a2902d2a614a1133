(* Pure measurement rules shared by every workload: percentiles with a
   sample floor, metric names, per-transaction normalization and the
   final result line. Kept free of the engine so the unit tests can pin
   each rule down exactly. *)

(* Nearest-rank percentile over [samples]: the smallest value with at
   least [q] of the samples at or below it. Samples beyond it are those
   strictly above that rank. *)
let rank n q = max 1 (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)))

let beyond n q = n - rank n q

(* A percentile is reportable only with at least [min_beyond] samples
   above its rank; for p95 that means 200 samples. *)
let min_beyond = 10

let reportable n q = n > 0 && beyond n q >= min_beyond

let ladder = [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ]

let highest_percentile n = List.find_opt (reportable n) ladder

let percentile samples q =
  let n = Array.length samples in
  if not (reportable n q) then
    Error
      (Printf.sprintf "p%g needs %d samples beyond it; %d samples give %d"
         (q *. 100.) min_beyond n
         (if n = 0 then 0 else beyond n q))
  else begin
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    Ok sorted.(rank n q - 1)
  end

(* The median is exempt from the tail floor but still needs samples. *)
let median samples =
  let n = Array.length samples in
  if n = 0 then Error "median of no samples"
  else begin
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    Ok sorted.(rank n 0.5 - 1)
  end

(* The mean of each run of [group] consecutive samples (a trailing
   partial run is dropped). *)
let group_means ~group samples =
  if group < 1 then invalid_arg "Measure.group_means: group < 1";
  Array.init (Array.length samples / group) (fun k ->
      let sum = ref 0. in
      for i = k * group to ((k + 1) * group) - 1 do
        sum := !sum +. samples.(i)
      done;
      !sum /. float_of_int group)

let valid_name name =
  let n = String.length name in
  n >= 1 && n <= 64
  && (match name.[0] with
     | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
     | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       name

(* Per-layer totals are divided by committed base transactions so runs
   of different speed (and so different open-loop length) compare. *)
let per_txn ~txns x =
  if txns <= 0 then invalid_arg "Measure.per_txn: no transactions";
  x /. float_of_int txns

let per_ktxn ~txns x = 1000. *. per_txn ~txns x

let frac num den = if den <= 0. then 0. else num /. den

(* --- the result line --- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value =
  if not (valid_name name) then invalid_arg ("Measure.metric: bad name " ^ name);
  if not (Float.is_finite value) then
    invalid_arg (Printf.sprintf "Measure.metric: %s is not finite" name);
  { name; value; unit_ }

(* Full precision, so a measured time never prints identically twice. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_number m.value) m.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " body)
