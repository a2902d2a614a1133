module Prng = Roll_util.Prng
module Ctx = Roll_core.Ctx

type cost_model = { base_cost : float; per_row : float }

let default_costs = { base_cost = 0.002; per_row = 0.0001 }

let footprint_rows (fp : Ctx.footprint) =
  List.fold_left (fun acc (_, n) -> acc + n) 0 fp.reads + fp.emitted

let duration_of model rows =
  model.base_cost +. (model.per_row *. float_of_int rows)

let locks_of_footprint (fp : Ctx.footprint) =
  { Des.resource = "delta:view"; mode = Des.Exclusive }
  :: List.map
       (fun (resource, _) -> { Des.resource; mode = Des.Shared })
       fp.reads

let propagation_txns model footprints ~start ~spacing =
  List.mapi
    (fun i fp ->
      {
        Des.label = "propagate";
        arrival = start +. (float_of_int i *. spacing);
        duration = duration_of model (footprint_rows fp);
        locks = locks_of_footprint fp;
      })
    footprints

let monolithic_refresh model footprints ~start ~tables =
  let rows = List.fold_left (fun acc fp -> acc + footprint_rows fp) 0 footprints in
  {
    Des.label = "refresh";
    arrival = start;
    duration = duration_of model rows;
    locks =
      { Des.resource = "delta:view"; mode = Des.Exclusive }
      :: List.map (fun resource -> { Des.resource; mode = Des.Shared }) tables;
  }

let exponential rng mean = -.mean *. log (1.0 -. Prng.float rng 1.0)

let poisson_stream rng ~rate ~until ~make =
  let acc = ref [] in
  let t = ref 0.0 in
  while !t < until do
    t := !t +. exponential rng (1.0 /. rate);
    if !t < until then acc := make !t :: !acc
  done;
  List.rev !acc

let update_stream rng ~tables ~rate ~until ~mean_duration =
  let tables = Array.of_list tables in
  poisson_stream rng ~rate ~until ~make:(fun arrival ->
      let table = Prng.pick rng tables in
      {
        Des.label = "update";
        arrival;
        duration = exponential rng mean_duration;
        locks =
          [
            { Des.resource = table; mode = Des.Exclusive };
            { Des.resource = "delta:" ^ table; mode = Des.Exclusive };
          ];
      })

let reader_stream rng ~resource ~rate ~until ~mean_duration =
  poisson_stream rng ~rate ~until ~make:(fun arrival ->
      {
        Des.label = "reader";
        arrival;
        duration = exponential rng mean_duration;
        locks = [ { Des.resource; mode = Des.Shared } ];
      })

(* One wave of parallel maintenance: the items dispatch together and each
   writes only its own view delta (frozen-clock steps commit no markers and
   advance no capture), so two wave items share an exclusive resource only
   if the scheduler hands out overlapping windows — which take_wave never
   does. The single-writer apply and updaters are the only writers that can
   block a wave item. *)
let wave_txns model items ~start =
  List.map
    (fun (view, fp) ->
      {
        Des.label = "wave:" ^ view;
        arrival = start;
        duration = duration_of model (footprint_rows fp);
        locks =
          { Des.resource = "delta:" ^ view; mode = Des.Exclusive }
          :: List.map
               (fun (resource, _) -> { Des.resource; mode = Des.Shared })
               fp.Ctx.reads;
      })
    items

let apply_txn model ~rows ~start ~view =
  {
    Des.label = "apply";
    arrival = start;
    duration = duration_of model rows;
    locks =
      [
        { Des.resource = view; mode = Des.Exclusive };
        { Des.resource = "delta:view"; mode = Des.Shared };
      ];
  }
