(** Builders: instantiate each system behind the uniform {!Api.t}. *)

type spec = {
  topo : Sim.Topology.t;
  dc_sites : Sim.Topology.site array;
  partitions : int;
  frontends : int;
  cost : Saturn.Cost_model.t;
  rmap : Kvstore.Replica_map.t;
  saturn_config : Saturn.Config.t option;
      (** serializer tree for Saturn builders; when [None], a configuration
          is computed with the generator (uniform weights) *)
  serializer_replicas : int;
  bulk_factor : float;  (** bulk-path inflation; 1.0 = shortest path *)
}

val default_spec :
  topo:Sim.Topology.t ->
  dc_sites:Sim.Topology.site array ->
  rmap:Kvstore.Replica_map.t ->
  spec

val topo3 : unit -> Sim.Topology.t
(** The three-site (west/central/east) geography the smoke and fault
    scenarios share: unequal latencies, so tree placement matters. *)

val chain_config : dc_sites:Sim.Topology.site array -> Saturn.Config.t
(** An explicit three-serializer chain (0–1–2, one per datacenter) with
    small artificial delays — guarantees serializer-to-serializer hops,
    which a solved three-site configuration may optimize away. *)

val backup_config : dc_sites:Sim.Topology.site array -> Saturn.Config.t
(** A pre-computed backup tree for the same three datacenters (§6.2): two
    serializers at the outer sites, datacenters 0 and 1 attached to the
    first. The reconfiguration scenarios switch to it mid-run. *)

val solve_config : spec -> Saturn.Config.t
(** Runs the configuration generator (Algorithm 3) for the spec's
    datacenters, weighting pairs by shared keys. *)

val saturn :
  ?registry:Stats.Registry.t ->
  ?series:Stats.Series.t ->
  ?faults:Faults.Registry.t ->
  Sim.Engine.t ->
  spec ->
  Metrics.t ->
  Api.t * Saturn.System.t
(** [registry] collects the deployment's counters (see
    {!Saturn.System.create}); [series] receives windowed queue-depth and
    throughput telemetry (see {!Stats.Series}); [faults] receives the
    deployment's breakable
    pieces via {!Faults.Registry.bind_system}, so a fault plan can be armed
    against it. *)

val saturn_peer :
  ?registry:Stats.Registry.t ->
  ?series:Stats.Series.t ->
  ?faults:Faults.Registry.t ->
  Sim.Engine.t ->
  spec ->
  Metrics.t ->
  Api.t * Saturn.System.t
(** The P-configuration: timestamp order only, no serializer tree. *)

val eventual :
  ?registry:Stats.Registry.t ->
  ?series:Stats.Series.t ->
  ?faults:Faults.Registry.t ->
  Sim.Engine.t ->
  spec ->
  Metrics.t ->
  Api.t
(** [faults] receives the baseline's bulk links via
    {!Faults.Registry.bind_fabric}. Every baseline builder accounts
    metadata bytes via {!Stats.Meta_bytes}, as {!saturn} does: the
    [meta.bytes.<system>.*] counters land in [registry], or in a fresh
    registry when none is given. All seven baselines reach clients through
    one {!Api.t} wiring over {!Baselines.Common.OPS}. *)

val gentlerain :
  ?registry:Stats.Registry.t -> ?series:Stats.Series.t -> Sim.Engine.t -> spec -> Metrics.t -> Api.t

val cure :
  ?registry:Stats.Registry.t -> ?series:Stats.Series.t -> Sim.Engine.t -> spec -> Metrics.t -> Api.t

val cops :
  ?registry:Stats.Registry.t ->
  ?series:Stats.Series.t ->
  Sim.Engine.t ->
  spec ->
  Metrics.t ->
  prune_on_write:bool ->
  Api.t * Baselines.Cops.t

val orbe :
  ?registry:Stats.Registry.t ->
  ?series:Stats.Series.t ->
  Sim.Engine.t ->
  spec ->
  Metrics.t ->
  Api.t * Baselines.Orbe.t
(** Dependency-matrix explicit checking; sound under full replication only
    (see {!Baselines.Orbe}). *)

val eunomia :
  ?registry:Stats.Registry.t ->
  ?series:Stats.Series.t ->
  ?faults:Faults.Registry.t ->
  Sim.Engine.t ->
  spec ->
  Metrics.t ->
  Api.t
(** Deferred update stabilization via per-DC sequencers. [faults] receives
    the bulk links ({!Faults.Registry.bind_fabric}) plus one crashable
    serializer per datacenter ([seq0], [seq1], …) mapping serializer-crash
    plan events onto sequencer failover. *)

val okapi :
  ?registry:Stats.Registry.t ->
  ?series:Stats.Series.t ->
  ?faults:Faults.Registry.t ->
  Sim.Engine.t ->
  spec ->
  Metrics.t ->
  Api.t
(** Hybrid vector/scalar stable time with a universal stability condition
    (see {!Baselines.Okapi}). *)
