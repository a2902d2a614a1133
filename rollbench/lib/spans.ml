(* Self-time accounting over Rollscope spans.

   The traced run harvests the recorder's ring between top-level bench
   calls (when no span is open), folds every finished span into per-name
   totals and clears the ring, so no span is ever lost to overwrite. A
   span's self time is its duration minus the durations of its direct
   children; summed over a well-nested trace, self times add up to the
   root spans' durations, and the phase wall time not covered by any root
   span is "uncovered". *)

module Trace = Roll_obs.Trace

type totals = { mutable count : int; mutable total : float; mutable self : float }

type t = {
  by_name : (string, totals) Hashtbl.t;
  samples : (string, float list ref) Hashtbl.t;
      (** durations kept for the names in [keep], newest first *)
  keep : string -> Trace.span -> bool;
  mutable roots : float;  (** summed root-span durations *)
  mutable clamped : float;
      (** child time in excess of its parent's duration, dropped so no
          self time goes negative *)
}

let create ?(keep = fun _ _ -> false) () =
  {
    by_name = Hashtbl.create 32;
    samples = Hashtbl.create 8;
    keep;
    roots = 0.;
    clamped = 0.;
  }

let duration (s : Trace.span) = s.stop -. s.start

let totals t name =
  match Hashtbl.find_opt t.by_name name with
  | Some x -> x
  | None ->
      let x = { count = 0; total = 0.; self = 0. } in
      Hashtbl.replace t.by_name name x;
      x

(* Fold one batch of finished spans; every parent of a span in the batch
   must be in the batch too (harvest only with no span open). *)
let add_batch t (spans : Trace.span list) =
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun (s : Trace.span) ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          (duration s
          +. Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)))
    spans;
  List.iter
    (fun (s : Trace.span) ->
      let d = duration s in
      let kids = Option.value ~default:0. (Hashtbl.find_opt child_time s.id) in
      let self = d -. kids in
      if self < 0. then t.clamped <- t.clamped -. self;
      let x = totals t s.name in
      x.count <- x.count + 1;
      x.total <- x.total +. d;
      x.self <- x.self +. Float.max 0. self;
      if s.parent = 0 then t.roots <- t.roots +. d;
      if t.keep s.name s then
        match Hashtbl.find_opt t.samples s.name with
        | Some l -> l := d :: !l
        | None -> Hashtbl.replace t.samples s.name (ref [ d ]))
    spans

(* Move everything the recorder holds into [t]. Refuses to run with a
   span open or after the ring wrapped, either of which would break the
   accounting identity. *)
let harvest t trace =
  if Trace.open_count trace <> 0 then invalid_arg "Spans.harvest: span open";
  if Trace.dropped trace > 0 then
    failwith
      (Printf.sprintf "Spans.harvest: %d spans lost to ring overwrite"
         (Trace.dropped trace));
  add_batch t (Trace.spans trace);
  Trace.clear trace

let count t name =
  match Hashtbl.find_opt t.by_name name with Some x -> x.count | None -> 0

let total t name =
  match Hashtbl.find_opt t.by_name name with Some x -> x.total | None -> 0.

let self t name =
  match Hashtbl.find_opt t.by_name name with Some x -> x.self | None -> 0.

(* (name, count, total, self), largest self time first. *)
let table t =
  Hashtbl.fold (fun name x acc -> (name, x.count, x.total, x.self) :: acc)
    t.by_name []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare b a)

let self_sum t = Hashtbl.fold (fun _ x acc -> acc +. x.self) t.by_name 0.

let roots t = t.roots

let clamped t = t.clamped

let samples t name =
  match Hashtbl.find_opt t.samples name with
  | Some l -> Array.of_list !l
  | None -> [||]

(* Wall time of the phase not inside any root span. *)
let uncovered t ~wall = Float.max 0. (wall -. t.roots)

(* Self times plus uncovered time over the phase wall time: 1.0 for a
   well-nested trace whose roots all fall inside the phase. *)
let accounted_frac t ~wall =
  if wall <= 0. then 0. else (self_sum t +. uncovered t ~wall) /. wall
