type labels = (string * string) list

type kind = Counter | Gauge | Histogram

type hist = {
  bounds : float array;
  counts : int array;  (** length = Array.length bounds + 1 (the +inf bucket) *)
  mutable sum : float;
  mutable count : int;
  h_m : Mutex.t;
}

(* Counter and gauge values are atomic cells: an update is one
   compare-and-set, with no lock, so worker domains running propagation
   steps can bump a resolved series concurrently with exact totals. Only
   histograms (several fields per observation) take a per-series lock. *)
type instrument = I_value of float Atomic.t | I_hist of hist

type series = { s_labels : labels; inst : instrument }

(* The registry mutex guards family and series creation (get-or-create)
   and the collector list; reading or updating a resolved series never
   takes it. *)
type family = {
  name : string;
  help : string;
  kind : kind;
  f_bounds : float array option;
  tbl : (labels, series) Hashtbl.t;
}

type hist_snapshot = {
  h_bounds : float array;
  h_counts : int array;
  h_sum : float;
  h_count : int;
}

type point = { p_labels : labels; p_value : float; p_hist : hist_snapshot option }

type sample_family = {
  sf_name : string;
  sf_help : string;
  sf_kind : kind;
  points : point list;
}

type t = {
  families : (string, family) Hashtbl.t;
  mutable collectors : (unit -> sample_family list) list;  (** reversed *)
  m : Mutex.t;
}

type counter = series

type gauge = series

type histogram = series

let create () =
  { families = Hashtbl.create 32; collectors = []; m = Mutex.create () }

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let norm_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

let valid_name name =
  String.length name > 0
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = ':')
       name
  && not (name.[0] >= '0' && name.[0] <= '9')

let family t ~name ~help ~kind ~bounds =
  if not (valid_name name) then
    invalid_arg ("Metrics: invalid metric name: " ^ name);
  locked t.m (fun () ->
      match Hashtbl.find_opt t.families name with
      | Some f ->
          if f.kind <> kind then
            invalid_arg
              (Printf.sprintf "Metrics: %s already registered as a %s" name
                 (kind_name f.kind));
          f
      | None ->
          let f = { name; help; kind; f_bounds = bounds; tbl = Hashtbl.create 4 } in
          Hashtbl.add t.families name f;
          f)

let series t (f : family) labels =
  let labels = norm_labels labels in
  locked t.m (fun () ->
      match Hashtbl.find_opt f.tbl labels with
      | Some s -> s
      | None ->
          let inst =
            match f.kind with
            | Counter | Gauge -> I_value (Atomic.make 0.)
            | Histogram ->
                let bounds =
                  match f.f_bounds with
                  | Some b -> b
                  | None ->
                      invalid_arg "Metrics: histogram family without buckets"
                in
                I_hist
                  {
                    bounds;
                    counts = Array.make (Array.length bounds + 1) 0;
                    sum = 0.;
                    count = 0;
                    h_m = Mutex.create ();
                  }
          in
          let s = { s_labels = labels; inst } in
          Hashtbl.add f.tbl labels s;
          s)

let counter t ?(help = "") ?(labels = []) name =
  series t (family t ~name ~help ~kind:Counter ~bounds:None) labels

let gauge t ?(help = "") ?(labels = []) name =
  series t (family t ~name ~help ~kind:Gauge ~bounds:None) labels

(* 1-2-5 log-linear ladder: logarithmic decades, linearly subdivided. *)
let log_linear ?(lo = 1e-6) ?(hi = 1e6) () =
  if lo <= 0. || hi <= lo then invalid_arg "Metrics.log_linear: need 0 < lo < hi";
  let acc = ref [] in
  let decade = ref lo in
  (let continue = ref true in
   while !continue do
     List.iter
       (fun m ->
         let v = !decade *. m in
         if v <= hi *. 1.000001 then acc := v :: !acc)
       [ 1.; 2.; 5. ];
     decade := !decade *. 10.;
     if !decade > hi then continue := false
   done);
  Array.of_list (List.rev !acc)

let histogram t ?(help = "") ?(labels = []) ?buckets name =
  let bounds = match buckets with Some b -> b | None -> log_linear () in
  if Array.length bounds = 0 then invalid_arg "Metrics.histogram: no buckets";
  Array.iteri
    (fun i b -> if i > 0 && b <= bounds.(i - 1) then
        invalid_arg "Metrics.histogram: buckets must increase")
    bounds;
  series t (family t ~name ~help ~kind:Histogram ~bounds:(Some bounds)) labels

let histogram_by t ?help ?buckets ~key name =
  let cache = Atomic.make [] in
  fun value ->
    match List.assoc_opt value (Atomic.get cache) with
    | Some h -> h
    | None ->
        let h = histogram t ?help ~labels:[ (key, value) ] ?buckets name in
        let rec push () =
          let old = Atomic.get cache in
          if not (Atomic.compare_and_set cache old ((value, h) :: old)) then
            push ()
        in
        push ();
        h

let rec atomic_add cell dv =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (old +. dv)) then atomic_add cell dv

let add c dv =
  if dv < 0. then invalid_arg "Metrics.add: counters only go up";
  match c.inst with
  | I_value v -> atomic_add v dv
  | I_hist _ -> invalid_arg "Metrics.add: not a counter"

let inc c = add c 1.

let set g v =
  match g.inst with
  | I_value cell -> Atomic.set cell v
  | I_hist _ -> invalid_arg "Metrics.set: not a gauge"

let observe h v =
  match h.inst with
  | I_value _ -> invalid_arg "Metrics.observe: not a histogram"
  | I_hist hist ->
      locked hist.h_m (fun () ->
          let n = Array.length hist.bounds in
          let rec bucket i =
            if i >= n || v <= hist.bounds.(i) then i else bucket (i + 1)
          in
          let i = bucket 0 in
          hist.counts.(i) <- hist.counts.(i) + 1;
          hist.sum <- hist.sum +. v;
          hist.count <- hist.count + 1)

let value s =
  match s.inst with
  | I_value cell -> Atomic.get cell
  | I_hist h -> locked h.h_m (fun () -> h.sum)

let hist_count s =
  match s.inst with
  | I_hist h -> locked h.h_m (fun () -> h.count)
  | I_value _ -> 0

let register_collector t read =
  locked t.m (fun () -> t.collectors <- read :: t.collectors)

let sample ?(help = "") ~kind name values =
  if not (valid_name name) then
    invalid_arg ("Metrics: invalid metric name: " ^ name);
  (match kind with
  | Counter | Gauge -> ()
  | Histogram -> invalid_arg "Metrics.sample: histograms are live only");
  {
    sf_name = name;
    sf_help = help;
    sf_kind = kind;
    points =
      List.map
        (fun (labels, v) ->
          { p_labels = norm_labels labels; p_value = v; p_hist = None })
        values;
  }

let with_labels labels families =
  List.map
    (fun sf ->
      {
        sf with
        points =
          List.map
            (fun p -> { p with p_labels = norm_labels (labels @ p.p_labels) })
            sf.points;
      })
    families

(* ------------------------------------------------------------------ *)
(* Snapshots (what the exporters consume)                              *)

let render_labels labels =
  String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

let sort_points ps =
  List.sort
    (fun a b -> String.compare (render_labels a.p_labels) (render_labels b.p_labels))
    ps

let point_of (s : series) =
  match s.inst with
  | I_value cell ->
      { p_labels = s.s_labels; p_value = Atomic.get cell; p_hist = None }
  | I_hist h ->
      locked h.h_m (fun () ->
          {
            p_labels = s.s_labels;
            p_value = h.sum;
            p_hist =
              Some
                {
                  h_bounds = h.bounds;
                  h_counts = Array.copy h.counts;
                  h_sum = h.sum;
                  h_count = h.count;
                };
          })

let snapshot t =
  (* The series lists are copied under the lock; values and collector
     reads come after it (a collector may itself read a registry). *)
  let live, collectors =
    locked t.m (fun () ->
        ( Hashtbl.fold
            (fun _ f acc ->
              (f, Hashtbl.fold (fun _ s acc -> s :: acc) f.tbl []) :: acc)
            t.families [],
          List.rev t.collectors ))
  in
  let families =
    List.map
      (fun (f, series) ->
        {
          sf_name = f.name;
          sf_help = f.help;
          sf_kind = f.kind;
          points = List.map point_of series;
        })
      live
    @ List.concat_map (fun read -> read ()) collectors
  in
  (* Several sources may contribute to one name (a live family and
     collected series, or one registry per view): merge their points. *)
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun sf ->
      match Hashtbl.find_opt by_name sf.sf_name with
      | Some prev ->
          Hashtbl.replace by_name sf.sf_name
            { prev with points = prev.points @ sf.points }
      | None -> Hashtbl.add by_name sf.sf_name sf)
    families;
  Hashtbl.fold (fun _ sf acc -> { sf with points = sort_points sf.points } :: acc)
    by_name []
  |> List.sort (fun a b -> String.compare a.sf_name b.sf_name)

let find_value t ?(labels = []) name =
  let labels = norm_labels labels in
  let rec in_families = function
    | [] -> None
    | sf :: rest ->
        if String.equal sf.sf_name name then
          match List.find_opt (fun p -> p.p_labels = labels) sf.points with
          | Some p -> Some p.p_value
          | None -> in_families rest
        else in_families rest
  in
  in_families (snapshot t)

let reset t =
  let series =
    locked t.m (fun () ->
        Hashtbl.fold
          (fun _ f acc -> Hashtbl.fold (fun _ s acc -> s :: acc) f.tbl acc)
          t.families [])
  in
  List.iter
    (fun s ->
      match s.inst with
      | I_value cell -> Atomic.set cell 0.
      | I_hist h ->
          locked h.h_m (fun () ->
              Array.fill h.counts 0 (Array.length h.counts) 0;
              h.sum <- 0.;
              h.count <- 0))
    series
