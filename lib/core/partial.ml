(* Derived partials (DESIGN.md section 18): the per-relation partials
   π_needed(σ_local(R_j)) of the recursive ComputeDelta terms, materialized
   as indexed mirrors and read by the executor in place of the base
   relation whenever that is provably sound.

   One mechanism serves both derivation policies. Narrowing (below:
   [derive], [attach]) materializes the whole partial as one part, an
   auxiliary view in the DBToaster higher-order-delta sense. Partitioning
   (Hotset) splits it by join-key frequency into a lazily pumped light
   residual plus one eagerly maintained part per heavy key. Either way a
   maintained part's durable truth flows through the ordinary controller
   path — capture, propagate, apply, WAL frontier markers, checkpoint — so
   crash recovery covers it for free, and its mirror is derived state on
   the same footing as a secondary index: it dies with the process and is
   rebuilt from the recovered contents on restart. *)

open Roll_relation
module Time = Roll_delta.Time
module Delta = Roll_delta.Delta
module Database = Roll_storage.Database
module Table = Roll_storage.Table
module Capture = Roll_capture.Capture

let log_src = Logs.Src.create "roll.partial" ~doc:"derived-partial registry"

module Log = (val Logs.src_log log_src)

type shape = {
  source : int;
  base : string;
  local : Predicate.t;
  select : (string * Predicate.operand) list;
  cols : int array;
}

type part = {
  mirror : Table.t;
  mutable mirror_as_of : Time.t;
  controller : Controller.t option;
  key : int option;
}

type partitioning = {
  col : int;
  colpos : int;
  sketch : Partition.t;
  light : part;
  pump : unit -> unit;
}

type policy = Narrowing | Partitioning of partitioning

type t = {
  signature : string;
  policy : policy;
  shape : shape;
  mutable parts : part list;
  mutable probe_cols : int list;
  mutable owners : string list;
  mutable durable : bool;
  mutable obs : Roll_obs.Obs.t option;
}

type registry = {
  db : Database.t;
  capture : Capture.t;
  interval : int;
  mutable partials : t list;
}

let create ?(interval = 8) db capture =
  if interval <= 0 then invalid_arg "Partial.create: interval";
  { db; capture; interval; partials = [] }

(* ------------------------------------------------------------------ *)
(* Shape                                                               *)

let rebase_col (c : Predicate.col) = { c with Predicate.source = 0 }

let rec rebase_operand = function
  | Predicate.Col c -> Predicate.Col (rebase_col c)
  | Predicate.Const _ as o -> o
  | Predicate.Neg e -> Predicate.Neg (rebase_operand e)
  | Predicate.Add (a, b) -> Predicate.Add (rebase_operand a, rebase_operand b)
  | Predicate.Sub (a, b) -> Predicate.Sub (rebase_operand a, rebase_operand b)
  | Predicate.Mul (a, b) -> Predicate.Mul (rebase_operand a, rebase_operand b)
  | Predicate.Div (a, b) -> Predicate.Div (rebase_operand a, rebase_operand b)

let operand_cols_of_source j operand =
  Predicate.fold_operands
    (fun acc op ->
      match op with
      | Predicate.Col c when c.Predicate.source = j -> c.Predicate.column :: acc
      | _ -> acc)
    [] operand

(* Which of source [j]'s columns the rest of the query can see: columns
   referenced by atoms that involve any other source, plus columns the
   projection reads. Columns only a single-source atom touches are filter
   inputs the partial consumes when it applies the atom. *)
let needed_cols view j =
  let acc = ref [] in
  let note c = if not (List.mem c !acc) then acc := c :: !acc in
  List.iter
    (fun atom ->
      match Predicate.sources_of_atom atom with
      | [ k ] when k = j -> ()
      | srcs when List.mem j srcs ->
          (match atom with
          | Predicate.Join (a, b) ->
              if a.Predicate.source = j then note a.Predicate.column;
              if b.Predicate.source = j then note b.Predicate.column
          | Predicate.Cmp (_, x, y) ->
              List.iter note (operand_cols_of_source j x);
              List.iter note (operand_cols_of_source j y))
      | _ -> ())
    (View.predicate view);
  List.iter
    (fun (_, operand) -> List.iter note (operand_cols_of_source j operand))
    (View.projection view);
  List.sort_uniq Int.compare !acc

let shape view j =
  match needed_cols view j with
  | [] -> None
  | needed ->
      let schema = View.source_schema view j in
      let local =
        List.filter
          (fun atom -> Predicate.sources_of_atom atom = [ j ])
          (View.predicate view)
        |> List.map (function
             | Predicate.Join (a, b) ->
                 Predicate.Join (rebase_col a, rebase_col b)
             | Predicate.Cmp (op, x, y) ->
                 Predicate.Cmp (op, rebase_operand x, rebase_operand y))
      in
      let select =
        List.map
          (fun c ->
            ( (Schema.column schema c).Schema.name,
              Predicate.Col { Predicate.source = 0; column = c } ))
          needed
      in
      Some
        {
          source = j;
          base = View.source_table view j;
          local;
          select;
          cols = Array.of_list needed;
        }

(* A single-source view's forward query has no Base terms — there is
   nothing to substitute and its maintenance is already O(change). A
   partial with no local filter at full width would be a verbatim copy of
   the table: all cost and no narrowing. *)
let derive view =
  let n = View.n_sources view in
  if n < 2 then []
  else
    List.filter_map
      (fun j ->
        match shape view j with
        | Some s
          when s.local = []
               && Array.length s.cols
                  = Schema.arity (View.source_schema view j) ->
            None
        | s -> s)
      (List.init n Fun.id)

let shape_view reg ~name (s : shape) =
  View.create_select reg.db ~name ~sources:[ (s.base, s.base) ]
    ~predicate:s.local ~select:s.select

let signature reg s =
  Pquery.signature (shape_view reg ~name:"partial" s) ~rule:`Min
    (Pquery.all_base 1)

let output_schema reg s = View.output_schema (shape_view reg ~name:"partial" s)

(* ------------------------------------------------------------------ *)
(* Parts                                                               *)

let name part = Table.name part.mirror

let controller part =
  match part.controller with
  | Some c -> c
  | None -> invalid_arg ("Partial.controller: pumped part " ^ name part)

let maintained p =
  List.filter (fun part -> Option.is_some part.controller) p.parts

(* Fold the part's applied-but-unmirrored delta suffix into the mirror.
   Only rows at or below the controller's high-water mark are consumed —
   the hwm advances solely on successful steps, so rows a retry or a wave
   undo may truncate are never visible here. Callers must sync before
   pruning the part's delta (see [gc]). *)
let sync part =
  match part.controller with
  | None -> ()
  | Some c ->
      let target = Controller.hwm c in
      if target > part.mirror_as_of then begin
        Delta.window_iter (Controller.ctx c).Ctx.out ~lo:part.mirror_as_of
          ~hi:target (fun (row : Delta.row) ->
            Table.apply_change part.mirror row.tuple row.count);
        part.mirror_as_of <- target
      end

let gc part =
  sync part;
  Controller.gc (controller part)

let index p part =
  List.iter
    (fun c -> Table.create_index part.mirror ~columns:[ c ])
    p.probe_cols

(* Build the mirror afresh from the part's stored contents, then roll it
   to the high-water mark. Used at creation (cheap: the store was just
   materialized) and after crash recovery (the mirror died with the
   process; the recovered store + regenerated delta rebuild it exactly). *)
let add_part ?key p c =
  let v = Controller.view c in
  let part =
    {
      mirror = Table.create ~name:(View.name v) (View.output_schema v);
      mirror_as_of = Controller.as_of c;
      controller = Some c;
      key;
    }
  in
  index p part;
  Relation.iter
    (fun tuple count -> Table.apply_change part.mirror tuple count)
    (Controller.contents c);
  sync part;
  p.parts <- p.parts @ [ part ];
  part

let remove_part p part = p.parts <- List.filter (fun q -> q != part) p.parts

let new_controller reg p ~recover view =
  let algorithm = Controller.Rolling (Rolling.uniform reg.interval) in
  let fresh () =
    Controller.create ~durable:p.durable ?obs:p.obs reg.db reg.capture view
      ~algorithm
  in
  if recover then
    match Controller.recover ?obs:p.obs reg.db reg.capture view ~algorithm with
    | c -> c
    | exception Invalid_argument _ ->
        (* No durable state for this part (first run, or it was derived
           after the last crash): start it fresh. *)
        fresh ()
  else fresh ()

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

let register reg ~signature ~policy ~durable ?obs ?(parts = []) shape =
  let p =
    {
      signature;
      policy;
      shape;
      parts;
      probe_cols = [];
      owners = [];
      durable;
      obs;
    }
  in
  reg.partials <- reg.partials @ [ p ];
  p

let find_partial reg signature =
  List.find_opt (fun p -> String.equal p.signature signature) reg.partials

let entries reg = List.concat_map maintained reg.partials

let owned reg ~owner =
  List.filter (fun p -> List.mem owner p.owners) reg.partials

let for_owner reg ~owner = List.concat_map maintained (owned reg ~owner)

let lag reg part = Time.max 0 (Database.now reg.db - part.mirror_as_of)

let owner_lag reg ~owner =
  List.fold_left
    (fun acc p ->
      List.fold_left (fun acc part -> max acc (lag reg part)) acc p.parts)
    0 (owned reg ~owner)

(* The partial is substitutable iff every part provably equals its slice
   of the partial applied to the base table's *current committed state*:
   no captured change to the base strictly after any part's mirror time
   (O(1) via the delta's max timestamp) and no logged-but-uncaptured
   change either (a read-only scan of the usually-empty WAL suffix).
   Marker commits advance the clock constantly, so the test must — and
   does — ignore everything that is not a data change to this base. *)
let fresh reg p =
  let as_of =
    List.fold_left (fun acc part -> Time.min acc part.mirror_as_of) max_int
      p.parts
  in
  (match Delta.max_ts (Capture.delta reg.capture ~table:p.shape.base) with
  | Some ts -> ts <= as_of
  | None -> true)
  && not (Capture.pending_changes reg.capture ~table:p.shape.base)

(* ------------------------------------------------------------------ *)
(* Substitution                                                        *)

let count stats policy hit =
  match (policy, hit) with
  | Narrowing, true -> Stats.incr_aux_hits stats
  | Narrowing, false -> Stats.incr_aux_misses stats
  | Partitioning _, true -> Stats.incr_hot_hits stats
  | Partitioning _, false -> Stats.incr_hot_misses stats

let probe reg (ctx : Ctx.t) p ~peek =
  (* No maintained part — a partition whose keys are all light — leaves a
     verbatim copy of what the base read returns: all cost and no
     narrowing. Keep the plan on the base table and the counters
     untouched. *)
  if not (List.exists (fun part -> Option.is_some part.controller) p.parts)
  then None
  else begin
    let source () =
      {
        Ctx.tables = List.map (fun part -> part.mirror) p.parts;
        cols = p.shape.cols;
        prefix =
          (match p.policy with
          | Narrowing -> "\xce\xb1"
          | Partitioning _ -> "\xce\xb7");
      }
    in
    if peek then Some (source ())
    else begin
      (* A probe never mutates: probes run on wave workers, so keeping a
         partition's light residual pumped and its parts synced is the
         drain's single-writer work before each wave (Hotset.pump). *)
      let hit = fresh reg p in
      count ctx.Ctx.stats p.policy hit;
      if hit then Some (source ()) else None
    end
  end

(* Secondary indexes on the mirror columns the owner's equi-joins probe,
   in every part, so the planner turns a substituted base read into
   per-part index probes. *)
let note_probe_cols p owner_view j =
  List.iter
    (function
      | Predicate.Join (a, b) ->
          List.iter
            (fun (c : Predicate.col) ->
              if c.Predicate.source = j then
                Array.iteri
                  (fun k base_col ->
                    if base_col = c.Predicate.column
                       && not (List.mem k p.probe_cols)
                    then p.probe_cols <- p.probe_cols @ [ k ])
                  p.shape.cols)
            [ a; b ]
      | Predicate.Cmp _ -> ())
    (View.predicate owner_view);
  List.iter (index p) p.parts

let bind reg ~durable ?obs owner_controller bindings =
  let owner_view = Controller.view owner_controller in
  let owner = View.name owner_view in
  List.iter
    (fun (j, p) ->
      if not (List.mem owner p.owners) then p.owners <- p.owners @ [ owner ];
      p.durable <- p.durable || durable;
      if Option.is_none p.obs then p.obs <- obs;
      note_probe_cols p owner_view j)
    bindings;
  if bindings <> [] then begin
    let ctx = Controller.ctx owner_controller in
    let earlier = ctx.Ctx.partial in
    ctx.Ctx.partial <-
      Some
        (fun ~peek j ->
          match Option.bind earlier (fun f -> f ~peek j) with
          | Some _ as s -> s
          | None -> (
              match List.assoc_opt j bindings with
              | Some p -> probe reg ctx p ~peek
              | None -> None))
  end

(* Drop [owner] from every partial; partials left with no owners are
   orphans — removed from the registry, their maintained parts returned so
   the caller can retire them (mirrors and controllers become unreachable
   with them). *)
let release reg ~owner =
  List.iter
    (fun p ->
      p.owners <- List.filter (fun o -> not (String.equal o owner)) p.owners)
    reg.partials;
  let orphans, live = List.partition (fun p -> p.owners = []) reg.partials in
  reg.partials <- live;
  let retired = List.concat_map maintained orphans in
  if retired <> [] then
    Log.info (fun m ->
        m "retired %d part%s with their last owner: %s" (List.length retired)
          (if List.length retired = 1 then "" else "s")
          (String.concat ", " (List.map name retired)));
  retired

(* ------------------------------------------------------------------ *)
(* The narrowing policy                                                *)

let aux_name base signature =
  Printf.sprintf "aux_%s_%08x" base (Hashtbl.hash signature land 0xFFFFFFFF)

let attach ?(durable = false) ?(recover = false) ?obs reg owner_controller =
  let bindings =
    List.map
      (fun (s : shape) ->
        let signature = signature reg s in
        match find_partial reg signature with
        | Some p -> (s.source, p)
        | None ->
            let p =
              register reg ~signature ~policy:Narrowing ~durable ?obs s
            in
            let vname = aux_name s.base signature in
            let part =
              add_part p
                (new_controller reg p ~recover (shape_view reg ~name:vname s))
            in
            Log.info (fun m ->
                m "materialized auxiliary %s = π%s(σ(%s)) as_of=%d" vname
                  (String.concat ","
                     (List.map string_of_int (Array.to_list s.cols)))
                  s.base part.mirror_as_of);
            (s.source, p))
      (derive (Controller.view owner_controller))
  in
  bind reg ~durable ?obs owner_controller bindings;
  List.concat_map (fun (_, p) -> maintained p) bindings
