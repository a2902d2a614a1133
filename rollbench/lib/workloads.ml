(* The three workloads. Every one is the star schema of
   Roll_workload.Star, seeded from the command line; they differ in the
   store backend, the views maintained over it and the ROLL_* feature
   flags, which are the only way a workload selects engine features.
   Rates and sizes are fixed here, never searched for per run; the
   steadiness record (STEADINESS.md) gives the reasoning behind each. *)

module C = Roll_core
module W = Roll_workload
module Predicate = Roll_relation.Predicate
module Value = Roll_relation.Value

type view_def = {
  view : C.View.t;
  algorithm : C.Controller.algorithm;
  read_share : float;  (** share of the open loop's reads aimed at it *)
}

type t = {
  name : string;
  env : (string * string) list;
      (** ROLL_* flags, set before any database is built *)
  star : W.Star.config;  (** the seed is replaced by the run's *)
  views : W.Star.t -> view_def list;
  checkpoint_every : int option;  (** commits between checkpoints *)
  dim_fraction : float;  (** share of base transactions touching a dimension *)
  setups : int;  (** set-ups per run; setup_s is their median *)
  warm_rounds : int;  (** untimed closed-loop rounds before each loop *)
  closed_rounds : int;  (** closed-loop rounds of [batch] transactions *)
  txn_rate : float;  (** open loop, base transactions per second *)
  read_rate : float;  (** open loop, READ lines per second *)
}

(* Transactions committed per closed-loop round: the service's default
   staleness SLA, so a round that drains to its last commit holds
   staleness at or below the SLA. *)
let batch = 100

(* rolld's maintenance budget per engine-loop iteration. *)
let budget = 64

(* rolld's default gc threshold, applied delta rows per view. *)
let gc_threshold = 20_000

(* Half the reads are FRESH, the rest AT a time drawn from
   now - U(0, at_window). *)
let fresh_frac = 0.5

let at_window = 50

(* Flags every workload sets, so the caller's environment never leaks a
   feature into a run. ROLL_DOMAINS is cleared: every drain is serial. *)
let base_env =
  [
    ("ROLL_STORE", "mem");
    ("ROLL_SHARING", "0");
    ("ROLL_AUX", "0");
    ("ROLL_HOTSET", "0");
    ("ROLL_DOMAINS", "");
  ]

let star_view star =
  [
    {
      view = W.Star.view star;
      algorithm = C.Controller.Rolling (C.Rolling.per_relation [| 16; 64; 64 |]);
      read_share = 1.0;
    };
  ]

(* Fleet: per dimension, a pair of alias twins (one memo identity per
   pair, all four sharing the fact table's delta windows), plus a pair of
   filtered twins whose small results take the reads. The filter is on
   the fact's measure, which the generator cycles through 0..96, so the
   filtered result is about 3% of the facts whatever the seed. *)
let fleet_views star =
  let db = W.Star.db star in
  let fact = W.Star.fact_table star in
  let rolling = C.Controller.Rolling (C.Rolling.per_relation [| 8; 32 |]) in
  let mk ?filter ~read_share name ~dim ~fa ~da =
    let sources = [ (fact, fa); (W.Star.dim_table star dim, da) ] in
    let b = C.View.binder db sources in
    let join =
      Predicate.join (b fa (Printf.sprintf "d%d_key" dim)) (b da "key")
    in
    let predicate =
      match filter with
      | None -> [ join ]
      | Some bound ->
          [
            join;
            Predicate.cmp Predicate.Lt
              (Predicate.Col (b fa "measure"))
              (Predicate.Const (Value.Int bound));
          ]
    in
    {
      view =
        C.View.create db ~name ~sources ~predicate
          ~project:[ b fa "measure"; b da "key"; b da "attr" ];
      algorithm = rolling;
      read_share;
    }
  in
  [
    mk "fleet_a" ~dim:0 ~fa:"f" ~da:"d" ~read_share:0.;
    mk "fleet_b" ~dim:0 ~fa:"ff" ~da:"dd" ~read_share:0.;
    mk "fleet_c" ~dim:1 ~fa:"f" ~da:"d" ~read_share:0.;
    mk "fleet_d" ~dim:1 ~fa:"g" ~da:"e" ~read_share:0.;
    mk "fleet_lo" ~filter:3 ~dim:0 ~fa:"f" ~da:"d" ~read_share:0.5;
    mk "fleet_lo2" ~filter:3 ~dim:0 ~fa:"h" ~da:"k" ~read_share:0.5;
  ]

let star_disk =
  {
    name = "star-disk";
    env =
      [
        ("ROLL_STORE", "disk");
        ("ROLL_CACHE_PAGES", "24");
        ("ROLL_STORE_POLICY", "lru");
      ];
    star =
      {
        W.Star.default_config with
        n_dimensions = 2;
        dim_size = 400;
        fact_initial = 6_000;
        zipf_theta = 0.5;
      };
    views = star_view;
    checkpoint_every = Some 500;
    dim_fraction = 0.05;
    setups = 7;
    warm_rounds = 3;
    closed_rounds = 60;
    txn_rate = 20.;
    read_rate = 10.;
  }

let fleet_mem =
  {
    name = "fleet-mem";
    env = [ ("ROLL_SHARING", "1") ];
    star =
      {
        W.Star.default_config with
        n_dimensions = 2;
        dim_size = 400;
        fact_initial = 6_000;
        zipf_theta = 0.3;
      };
    views = fleet_views;
    checkpoint_every = None;
    dim_fraction = 0.05;
    setups = 15;
    warm_rounds = 3;
    closed_rounds = 40;
    txn_rate = 20.;
    read_rate = 120.;
  }

(* Skew: at Zipf 1.4 over 1 024 keys the hotset's default enter share
   (2/64) falls halfway between the fifth key's share (3.6%) and the
   sixth's (2.8%), so most seeds promote the same five heavy keys; with
   64 keys the sixth key sat 6% below the threshold and crossed it in
   some seeds only, which moved every drain's cost. The many keys also
   keep a dimension update's fan-out small on average, so the view's
   delta grows smoothly and no gc falls inside the open loop. The long
   warm-up lets the heavy set settle before anything is timed. *)
let skew_mem =
  {
    name = "skew-mem";
    env = [ ("ROLL_AUX", "1"); ("ROLL_HOTSET", "1") ];
    star =
      {
        W.Star.default_config with
        n_dimensions = 2;
        dim_size = 1024;
        fact_initial = 3_000;
        zipf_theta = 1.4;
      };
    views = star_view;
    checkpoint_every = None;
    dim_fraction = 0.1;
    setups = 15;
    warm_rounds = 15;
    closed_rounds = 100;
    txn_rate = 25.;
    read_rate = 20.;
  }

let all = [ star_disk; fleet_mem; skew_mem ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

let apply_env w =
  List.iter (fun (k, v) -> Unix.putenv k v) base_env;
  List.iter (fun (k, v) -> Unix.putenv k v) w.env
