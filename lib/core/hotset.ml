(* The partitioning policy for derived partials (DESIGN.md section 18).

   Where narrowing materializes a relation's partial whole — and therefore
   skips relations that nothing narrows, like a star schema's fact table —
   this policy partitions one: the view's most-joined source relation is
   split by join-key frequency into a small set of eagerly-maintained
   per-key heavy parts (each an ordinary durable controller) plus one
   lazily-pumped light residual holding every other key's rows. The
   executor reads the η-union of the parts in place of the base relation
   whenever every part is provably fresh (Partial).

   Class migration is the delicate part: a key's rows must move between
   the light residual and its heavy part without loss or double counting.
   Both directions run only at provably-fresh points (no pending capture
   work, every part caught up to the captured delta), where "move" is
   exact: promotion materializes the key's partial from the base relation
   and then deletes the key's rows from the light mirror; demotion folds
   the retiring part's mirror into the light mirror. Durability is
   asymmetric by design — the only durable truth is the WAL (the heavy
   controllers' frontier markers plus this policy's promote/retire
   markers); every mirror is derived state rebuilt from recovered contents
   on restart, which is what makes a crash in the middle of a migration
   harmless: recovery re-derives the heavy set from the log and rebuilds
   the light residual from the base table minus exactly those keys. *)

open Roll_relation
module Time = Roll_delta.Time
module Delta = Roll_delta.Delta
module Database = Roll_storage.Database
module Table = Roll_storage.Table
module Wal = Roll_storage.Wal
module Capture = Roll_capture.Capture

let log_src = Logs.Src.create "roll.hotset" ~doc:"heavy-light partitioning"

module Log = (val Logs.src_log log_src)

type t = {
  reg : Partial.registry;
  max_heavy : int;
  capacity : int;
  enter : float option;
  exit_ : float option;
  mutable fault : Roll_util.Fault.t;
}

let create ?(capacity = 64) ?(max_heavy = 16) ?enter ?exit_ reg =
  if max_heavy <= 0 then invalid_arg "Hotset.create: max_heavy";
  (* Validate the sketch parameters once, eagerly. *)
  ignore (Partition.create ~capacity ?enter ?exit_ ());
  { reg; max_heavy; capacity; enter; exit_; fault = Roll_util.Fault.none }

let set_fault t fault = t.fault <- fault

let registry t = t.reg

(* ------------------------------------------------------------------ *)
(* Derivation: which relation to partition, on which column            *)

(* The partitioned relation: the source appearing in the most equi-join
   atoms — the fact table of a star join — with ties broken toward the
   lowest source index. The partition key is its lowest-numbered join
   column. A view with no equi-join has no probe structure to exploit. *)
let partition_target view =
  let n = View.n_sources view in
  if n < 2 then None
  else begin
    let joins = Array.make n 0 in
    let join_cols = Array.make n [] in
    List.iter
      (fun atom ->
        match atom with
        | Predicate.Join (a, b) when a.Predicate.source <> b.Predicate.source ->
            List.iter
              (fun (c : Predicate.col) ->
                joins.(c.Predicate.source) <- joins.(c.Predicate.source) + 1;
                if not (List.mem c.Predicate.column join_cols.(c.Predicate.source))
                then
                  join_cols.(c.Predicate.source) <-
                    c.Predicate.column :: join_cols.(c.Predicate.source))
              [ a; b ]
        | Predicate.Join _ | Predicate.Cmp _ -> ())
      (View.predicate view);
    let best = ref (-1) in
    Array.iteri
      (fun j count ->
        if count > 0 && (!best < 0 || count > joins.(!best)) then best := j)
      joins;
    match !best with
    | -1 -> None
    | j -> Some (j, List.fold_left min max_int join_cols.(j))
  end

(* ------------------------------------------------------------------ *)
(* Census                                                              *)

let groups_of t ~owner =
  List.filter_map
    (fun (p : Partial.t) ->
      match p.Partial.policy with
      | Partial.Partitioning pt when List.mem owner p.Partial.owners ->
          Some (p, pt)
      | Partial.Partitioning _ | Partial.Narrowing -> None)
    t.reg.Partial.partials

let heavy_count t ~owner =
  List.fold_left
    (fun acc (p, _) -> acc + List.length (Partial.maintained p))
    0 (groups_of t ~owner)

let sketch_keys t =
  List.fold_left
    (fun acc (p : Partial.t) ->
      match p.Partial.policy with
      | Partial.Partitioning pt -> acc + Partition.occupancy pt.Partial.sketch
      | Partial.Narrowing -> acc)
    0 t.reg.Partial.partials

let light_rows t ~owner =
  List.fold_left
    (fun acc (_, pt) -> acc + Table.cardinality pt.Partial.light.Partial.mirror)
    0 (groups_of t ~owner)

let partitioned t ~owner =
  List.map
    (fun ((p : Partial.t), pt) ->
      (p.Partial.shape.Partial.base, pt.Partial.col))
    (groups_of t ~owner)

(* Distinct owners over the same (base, col) can still derive distinct
   partial shapes (different retained columns or local filters), so names
   carry the partial-signature hash too — sibling groups must not share
   heavy view names, or their durable WAL markers would conflate. *)
let group_prefix base col signature =
  Printf.sprintf "hot_%s_c%d_%08x" base col
    (Hashtbl.hash signature land 0xFFFFFFFF)

let prefix_of (p : Partial.t) pt =
  group_prefix p.Partial.shape.Partial.base pt.Partial.col p.Partial.signature

let promote_tag vname base col key =
  Printf.sprintf "!hotset promote %s %s %d %d" vname base col key

let retire_tag vname = Printf.sprintf "!hotset retire %s" vname

(* ------------------------------------------------------------------ *)
(* The pump: capture delta -> sketch + light residual                  *)

(* Route one base row (or delta row) of [count]: the sketch sees every key,
   so classification sees the whole stream; the light residual gets the
   row, projected, when its key is not heavy and it passes the local
   filter. *)
let route (s : Partial.shape) ~col sketch light ~heavy tuple count =
  let light_key =
    match tuple.(col) with
    | Value.Int k ->
        Partition.observe sketch k ~count:(abs count);
        not (heavy k)
    | _ -> true
  in
  if light_key && Predicate.holds s.Partial.local [| tuple |] then
    Table.apply_change light.Partial.mirror
      (Array.map (fun c -> tuple.(c)) s.Partial.cols)
      count

(* Fold the base's captured delta suffix into the sketch and the light
   mirror (light keys only; heavy keys' rows flow through their
   controllers). Classification changes only at [rebalance] boundaries, so
   within one pumped window the class of every key is fixed and no row is
   routed twice. *)
let pump_light capture (s : Partial.shape) ~col sketch (light : Partial.part)
    () =
  let target = Capture.hwm capture in
  if target > light.Partial.mirror_as_of then begin
    let heavy = Partition.is_heavy sketch in
    Delta.window_iter
      (Capture.delta capture ~table:s.Partial.base)
      ~lo:light.Partial.mirror_as_of ~hi:target
      (fun (row : Delta.row) ->
        route s ~col sketch light ~heavy row.tuple row.count);
    light.Partial.mirror_as_of <- target
  end

let pump t =
  List.iter
    (fun (p : Partial.t) ->
      match p.Partial.policy with
      | Partial.Partitioning pt ->
          pt.Partial.pump ();
          List.iter Partial.sync p.Partial.parts
      | Partial.Narrowing -> ())
    t.reg.Partial.partials

(* ------------------------------------------------------------------ *)
(* Migration                                                           *)

let heavy_view t (p : Partial.t) pt k =
  let s = p.Partial.shape in
  View.create_select t.reg.Partial.db
    ~name:(Printf.sprintf "%s_k%d" (prefix_of p pt) k)
    ~sources:[ (s.Partial.base, s.Partial.base) ]
    ~predicate:
      (s.Partial.local
      @ [
          Predicate.Cmp
            ( Predicate.Eq,
              Predicate.Col { Predicate.source = 0; column = pt.Partial.col },
              Predicate.Const (Value.Int k) );
        ])
    ~select:s.Partial.select

(* Promotion handoff. Preconditions (checked by [rebalance_group]): the
   light mirror equals its partial at the base's current committed state.
   Materializing the key's partial through a fresh controller reads that
   same committed state — only marker commits intervene — so deleting the
   key's rows from the light mirror afterwards is an exact move. The
   promote marker makes the classification durable; a crash before it
   leaves the key light everywhere, a crash after it (the [hotset.promote]
   fault point) recovers the key heavy with the light residual rebuilt
   minus the key — consistent either way, because mirrors are derived. *)
let promote t (p : Partial.t) pt k =
  let view = heavy_view t p pt k in
  let controller = Partial.new_controller t.reg p ~recover:false view in
  ignore
    (Database.commit_marker t.reg.Partial.db
       ~tag:
         (promote_tag (View.name view) p.Partial.shape.Partial.base
            pt.Partial.col k));
  Roll_util.Fault.hit t.fault "hotset.promote";
  let part = Partial.add_part ~key:k p controller in
  (* Delete the key's rows from the light residual: they now live in (and
     are maintained through) the heavy part. *)
  let light = pt.Partial.light.Partial.mirror in
  let doomed = ref [] in
  Relation.iter
    (fun tuple count ->
      if Value.equal tuple.(pt.Partial.colpos) (Value.Int k) then
        doomed := (tuple, count) :: !doomed)
    (Table.contents light);
  List.iter
    (fun (tuple, count) -> Table.apply_change light tuple (-count))
    !doomed;
  Log.info (fun m ->
      m "promoted key %d of %s.%d -> %s (%d rows moved)" k
        p.Partial.shape.Partial.base pt.Partial.col (View.name view)
        (List.length !doomed));
  part

(* Demotion handoff: fold the retiring part's (fresh) mirror into the
   light residual, then commit the durable retire marker. A crash between
   the two (the [hotset.demote] fault point) recovers the key still heavy
   — the fold is in-memory state that dies with the process — so no row is
   ever counted twice. *)
let demote t (p : Partial.t) pt (part : Partial.part) =
  Relation.iter
    (fun tuple count ->
      Table.apply_change pt.Partial.light.Partial.mirror tuple count)
    (Table.contents part.Partial.mirror);
  Roll_util.Fault.hit t.fault "hotset.demote";
  ignore
    (Database.commit_marker t.reg.Partial.db
       ~tag:(retire_tag (Partial.name part)));
  Partial.remove_part p part;
  Log.info (fun m ->
      m "demoted key %d of %s.%d (retired %s)"
        (Option.get part.Partial.key)
        p.Partial.shape.Partial.base pt.Partial.col (Partial.name part));
  part

let rebalance_group t (p : Partial.t) pt =
  pt.Partial.pump ();
  List.iter Partial.sync p.Partial.parts;
  (* Migration is exact only at a provably-fresh point: every part equals
     its slice of the current committed state, so rows move between
     classes by construction rather than by compensation. A lagging part
     defers the whole group's migration to a later drain. *)
  if not (Partial.fresh t.reg p) then ([], [])
  else begin
    let promoted_keys, demoted_keys =
      Partition.rebalance ~max_heavy:t.max_heavy pt.Partial.sketch
    in
    let heavy k =
      List.find_opt
        (fun (part : Partial.part) -> part.Partial.key = Some k)
        p.Partial.parts
    in
    let promoted =
      List.filter_map
        (fun k ->
          if Option.is_some (heavy k) then None else Some (promote t p pt k))
        promoted_keys
    in
    let demoted =
      List.filter_map
        (fun k -> Option.map (demote t p pt) (heavy k))
        demoted_keys
    in
    (promoted, demoted)
  end

let rebalance t =
  List.fold_left
    (fun (pro, dem) (p : Partial.t) ->
      match p.Partial.policy with
      | Partial.Partitioning pt ->
          let pr, de = rebalance_group t p pt in
          (pro @ pr, dem @ de)
      | Partial.Narrowing -> (pro, dem))
    ([], []) t.reg.Partial.partials

(* ------------------------------------------------------------------ *)
(* Attach / recovery                                                   *)

(* The durable heavy set: the last promote/retire event per partial name
   in the WAL wins. WAL-prefix reclaim cannot split a pair — a retire
   marker always postdates its promote marker, so a reclaimed prefix drops
   both or neither. *)
let recovered_keys db ~prefix =
  let wal = Database.wal db in
  let vprefix = prefix ^ "_k" in
  let alive = Hashtbl.create 8 in
  Wal.iter_from wal ~pos:(Wal.first_pos wal) (fun (r : Wal.record) ->
      match r.Wal.marker with
      | None -> ()
      | Some tag -> (
          match String.split_on_char ' ' tag with
          | [ "!hotset"; "promote"; vname; _b; _c; k ]
            when String.starts_with ~prefix:vprefix vname -> (
              match int_of_string_opt k with
              | Some key -> Hashtbl.replace alive vname key
              | None -> ())
          | [ "!hotset"; "retire"; vname ] -> Hashtbl.remove alive vname
          | _ -> ()));
  List.sort Int.compare (Hashtbl.fold (fun _ k acc -> k :: acc) alive [])

(* A new partition group: the light residual and the sketch are seeded
   from the base relation's current contents — the sketch sees every key's
   standing mass (so pre-existing skew is classified without waiting for
   churn), the light mirror gets every row whose key is not
   (recovered-)heavy. The light residual's time starts at the current
   clock — table contents already reflect every committed change, captured
   or not, so the pump must only consume strictly-later windows. *)
let make_group t ~durable ?obs ~recover (s : Partial.shape) col =
  let db = t.reg.Partial.db in
  let signature = Printf.sprintf "%s#c%d" (Partial.signature t.reg s) col in
  match Partial.find_partial t.reg signature with
  | Some p -> p
  | None ->
      let colpos =
        let rec find k =
          if k >= Array.length s.Partial.cols then
            invalid_arg "Hotset: partition column not retained"
          else if s.Partial.cols.(k) = col then k
          else find (k + 1)
        in
        find 0
      in
      let sketch =
        Partition.create ~capacity:t.capacity ?enter:t.enter ?exit_:t.exit_ ()
      in
      let prefix = group_prefix s.Partial.base col signature in
      let light =
        {
          Partial.mirror =
            Table.create ~name:(prefix ^ "_light")
              (Partial.output_schema t.reg s);
          mirror_as_of = Time.origin;
          controller = None;
          key = None;
        }
      in
      let pt =
        {
          Partial.col;
          colpos;
          sketch;
          light;
          pump = pump_light t.reg.Partial.capture s ~col sketch light;
        }
      in
      let p =
        Partial.register t.reg ~signature ~policy:(Partial.Partitioning pt)
          ~durable ?obs ~parts:[ light ] s
      in
      let heavy_keys = if recover then recovered_keys db ~prefix else [] in
      Relation.iter
        (route s ~col sketch light ~heavy:(fun k -> List.mem k heavy_keys))
        (Table.contents (Database.table db s.Partial.base));
      light.Partial.mirror_as_of <- Database.now db;
      List.iter
        (fun k ->
          Partition.force_heavy sketch k;
          (* Promoted, durably, maybe crashed before its first frontier
             marker: [new_controller] then starts it cold. *)
          ignore
            (Partial.add_part ~key:k p
               (Partial.new_controller t.reg p ~recover:true
                  (heavy_view t p pt k))))
        heavy_keys;
      Log.info (fun m ->
          m "partitioning %s on column %d (%d heavy key%s recovered)"
            s.Partial.base col (List.length heavy_keys)
            (if List.length heavy_keys = 1 then "" else "s"));
      p

let attach ?(durable = false) ?(recover = false) ?obs t owner_controller =
  let view = Controller.view owner_controller in
  match partition_target view with
  | None -> []
  | Some (j, col) -> (
      match Partial.shape view j with
      | None -> []
      | Some s ->
          let p = make_group t ~durable ?obs ~recover s col in
          Partial.bind t.reg ~durable ?obs owner_controller [ (j, p) ];
          Partial.maintained p)
