type spec = {
  topo : Sim.Topology.t;
  dc_sites : Sim.Topology.site array;
  partitions : int;
  frontends : int;
  cost : Saturn.Cost_model.t;
  rmap : Kvstore.Replica_map.t;
  saturn_config : Saturn.Config.t option;
  serializer_replicas : int;
  bulk_factor : float;
}

let default_spec ~topo ~dc_sites ~rmap =
  {
    topo;
    dc_sites;
    partitions = 2;
    frontends = 2;
    cost = Saturn.Cost_model.default;
    rmap;
    saturn_config = None;
    serializer_replicas = 1;
    bulk_factor = 1.0;
  }

(* three sites with unequal latencies, so the solver-independent chain tree
   below has a genuinely asymmetric geography to work against *)
let topo3 () =
  Sim.Topology.create
    ~names:[| "west"; "central"; "east" |]
    ~latency_ms:[| [| 0; 40; 90 |]; [| 40; 0; 50 |]; [| 90; 50; 0 |] |]

(* an explicit chain of three serializers (one per datacenter). The smoke
   scenario must exercise serializer-to-serializer forwarding; the solved
   configuration for three sites can collapse to a star, which never hops. *)
let chain_config ~dc_sites =
  let tree = Saturn.Tree.create ~n_serializers:3 ~edges:[ (0, 1); (1, 2) ] ~attach:[| 0; 1; 2 |] in
  let config = Saturn.Config.create ~tree ~placement:(Array.copy dc_sites) ~dc_sites () in
  (* small artificial delays so the δ-wait path is traced too *)
  Saturn.Config.set_delay config ~from:1 ~hop:(Saturn.Config.To_dc 1) (Sim.Time.of_ms 2);
  Saturn.Config.set_delay config ~from:0 ~hop:(Saturn.Config.To_serializer 1) (Sim.Time.of_ms 1);
  config

(* a pre-computed backup tree for the same three datacenters (§6.2): two
   serializers at the chain's endpoints, so the epoch-2 topology is
   genuinely different from the 0–1–2 chain it replaces *)
let backup_config ~dc_sites =
  let tree = Saturn.Tree.create ~n_serializers:2 ~edges:[ (0, 1) ] ~attach:[| 0; 0; 1 |] in
  Saturn.Config.create ~tree
    ~placement:[| dc_sites.(0); dc_sites.(2) |]
    ~dc_sites:(Array.copy dc_sites) ()

let solve_config spec =
  let bulk i j =
    let lat = Sim.Topology.latency spec.topo spec.dc_sites.(i) spec.dc_sites.(j) in
    Sim.Time.of_us (int_of_float (float_of_int (Sim.Time.to_us lat) *. spec.bulk_factor))
  in
  let crit = Saturn.Mismatch.of_replica_map spec.rmap ~bulk in
  let crit =
    (* fully-disjoint replica maps would zero every weight; fall back to
       uniform weights in that case *)
    let any = ref false in
    for i = 0 to Array.length spec.dc_sites - 1 do
      for j = 0 to Array.length spec.dc_sites - 1 do
        if i <> j && crit.Saturn.Mismatch.weight i j > 0. then any := true
      done
    done;
    if !any then crit else Saturn.Mismatch.uniform ~n_dcs:(Array.length spec.dc_sites) ~bulk
  in
  let problem =
    {
      Saturn.Config_solver.topo = spec.topo;
      dc_sites = Array.copy spec.dc_sites;
      candidates = Saturn.Config_solver.default_candidates ~dc_sites:spec.dc_sites;
      crit;
    }
  in
  fst (Saturn.Config_gen.find_configuration ~seed:11 problem)

let hooks_of_metrics metrics =
  {
    Saturn.System.on_visible =
      (fun ~dc ~key ~origin_dc ~origin_time ~value ->
        Metrics.on_visible metrics ~dc ~key ~origin_dc ~origin_time ~value);
  }

let saturn_with ~peer ?registry ?series ?faults engine spec metrics =
  let config =
    match spec.saturn_config with
    | Some c -> c
    | None ->
      if peer then
        (* placeholder tree; unused in peer mode *)
        Saturn.Config.create
          ~tree:(Saturn.Tree.star ~n_dcs:(Array.length spec.dc_sites))
          ~placement:[| spec.dc_sites.(0) |] ~dc_sites:(Array.copy spec.dc_sites) ()
      else solve_config spec
  in
  let params =
    {
      Saturn.System.topo = spec.topo;
      dc_sites = Array.copy spec.dc_sites;
      partitions = spec.partitions;
      frontends = spec.frontends;
      cost = spec.cost;
      rmap = spec.rmap;
      config;
      serializer_replicas = spec.serializer_replicas;
      peer_mode = peer;
      bulk_factor = spec.bulk_factor;
      clock_offsets = None;
    }
  in
  let system = Saturn.System.create ?registry ?series engine params (hooks_of_metrics metrics) in
  Option.iter (fun f -> Faults.Registry.bind_system f system) faults;
  let table : (int, Saturn.Client_lib.t) Hashtbl.t = Hashtbl.create 256 in
  let lib (c : Client.t) =
    match Hashtbl.find_opt table c.Client.id with
    | Some l -> l
    | None ->
      let l =
        Saturn.Client_lib.create ~id:c.Client.id ~home_site:c.Client.home_site
          ~preferred_dc:c.Client.preferred_dc
      in
      Hashtbl.replace table c.Client.id l;
      l
  in
  let api =
    {
      Api.name = (if peer then "saturn-peer" else "saturn");
      attach =
        (fun c ~dc ~k ->
          Saturn.System.attach system (lib c) ~dc ~k:(fun () ->
              c.Client.current_dc <- dc;
              k ()));
      read = (fun c ~key ~k -> Saturn.System.read system (lib c) ~key ~k);
      update = (fun c ~key ~value ~k -> Saturn.System.update system (lib c) ~key ~value ~k);
      migrate =
        (fun c ~dest_dc ~k ->
          Saturn.System.migrate system (lib c) ~dest_dc ~k:(fun () ->
              c.Client.current_dc <- dest_dc;
              k ()));
      stop = (fun () -> Saturn.System.stop system);
      store_value =
        (fun ~dc ~key ->
          let store = Saturn.Datacenter.store_of_key (Saturn.System.datacenter system dc) ~key in
          Option.map fst (Kvstore.Store.get store ~key));
    }
  in
  (api, system)

let saturn ?registry ?series ?faults engine spec metrics =
  saturn_with ~peer:false ?registry ?series ?faults engine spec metrics

let saturn_peer ?registry ?series ?faults engine spec metrics =
  saturn_with ~peer:true ?registry ?series ?faults engine spec metrics

let baseline_params spec =
  {
    Baselines.Common.topo = spec.topo;
    dc_sites = Array.copy spec.dc_sites;
    partitions = spec.partitions;
    frontends = spec.frontends;
    cost = spec.cost;
    rmap = spec.rmap;
    bulk_factor = spec.bulk_factor;
  }

(* Metadata bytes are always accounted, into the caller's registry or a
   fresh one, as {!Saturn.System.create} does. [create] is the baseline's
   own [create], applied to everything the builders share. *)
let create_baseline ?registry ?series create ~name engine spec metrics =
  let registry = match registry with Some r -> r | None -> Stats.Registry.create () in
  create ?series
    ~meta:(Stats.Meta_bytes.create registry ~system:name)
    engine (baseline_params spec)
    {
      Baselines.Common.on_visible =
        (fun ~dc ~key ~origin_dc ~origin_time ~value ->
          Metrics.on_visible metrics ~dc ~key ~origin_dc ~origin_time ~value);
    }

(* The one client wiring every baseline shares: operations run at the
   client's current datacenter, and a migration is a plain attach. *)
let baseline_api (type s) (module B : Baselines.Common.OPS with type t = s) ~name (sys : s) =
  let attach c ~dc ~k =
    B.attach sys ~client:c.Client.id ~home:c.Client.home_site ~dc ~k:(fun () ->
        c.Client.current_dc <- dc;
        k ())
  in
  {
    Api.name;
    attach;
    read =
      (fun c ~key ~k ->
        B.read sys ~client:c.Client.id ~home:c.Client.home_site ~dc:c.Client.current_dc ~key ~k);
    update =
      (fun c ~key ~value ~k ->
        B.update sys ~client:c.Client.id ~home:c.Client.home_site ~dc:c.Client.current_dc ~key
          ~value ~k);
    migrate = (fun c ~dest_dc ~k -> attach c ~dc:dest_dc ~k);
    stop = (fun () -> B.stop sys);
    store_value = B.store_value sys;
  }

let eventual ?registry ?series ?faults engine spec metrics =
  let name = "eventual" in
  let sys = create_baseline ?registry ?series Baselines.Eventual.create ~name engine spec metrics in
  Option.iter (fun f -> Faults.Registry.bind_fabric f (Baselines.Eventual.fabric sys)) faults;
  baseline_api (module Baselines.Eventual) ~name sys

let gentlerain ?registry ?series engine spec metrics =
  let name = "gentlerain" in
  let sys = create_baseline ?registry ?series Baselines.Gentlerain.create ~name engine spec metrics in
  baseline_api (module Baselines.Gentlerain) ~name sys

let cure ?registry ?series engine spec metrics =
  let name = "cure" in
  let sys = create_baseline ?registry ?series Baselines.Cure.create ~name engine spec metrics in
  baseline_api (module Baselines.Cure) ~name sys

let cops ?registry ?series engine spec metrics ~prune_on_write =
  let name = "cops" in
  let sys =
    create_baseline ?registry ?series Baselines.Cops.create ~name engine spec metrics ~prune_on_write
  in
  (baseline_api (module Baselines.Cops) ~name sys, sys)

let orbe ?registry ?series engine spec metrics =
  let name = "orbe" in
  let sys = create_baseline ?registry ?series Baselines.Orbe.create ~name engine spec metrics in
  (baseline_api (module Baselines.Orbe) ~name sys, sys)

let eunomia ?registry ?series ?faults engine spec metrics =
  let name = "eunomia" in
  let sys = create_baseline ?registry ?series Baselines.Eunomia.create ~name engine spec metrics in
  Option.iter
    (fun f ->
      Faults.Registry.bind_fabric f (Baselines.Eunomia.fabric sys);
      (* each per-DC sequencer registers as a crashable serializer: the
         ser-crash scenario shape applies to Eunomia's single point of
         order, with the backup takeover as the recovery path *)
      Array.iteri
        (fun dc site ->
          Faults.Registry.register_serializer f
            ~name:(Printf.sprintf "seq%d" dc)
            ~site
            ~crash_all:(fun () -> Baselines.Eunomia.sequencer_crash sys ~dc)
            ~crash_replica:(fun _ -> Baselines.Eunomia.sequencer_crash sys ~dc)
            ~down:(fun () -> Baselines.Eunomia.sequencer_down sys ~dc))
        spec.dc_sites)
    faults;
  baseline_api (module Baselines.Eunomia) ~name sys

let okapi ?registry ?series ?faults engine spec metrics =
  let name = "okapi" in
  let sys = create_baseline ?registry ?series Baselines.Okapi.create ~name engine spec metrics in
  Option.iter (fun f -> Faults.Registry.bind_fabric f (Baselines.Okapi.fabric sys)) faults;
  baseline_api (module Baselines.Okapi) ~name sys
