(** The Weighted Minimal Mismatch objective (§5.4, Definition 2).

    For each ordered pair of datacenters (i, j) that share data, the optimal
    label propagation latency equals the bulk-data transfer latency β(i, j):
    delivering a label earlier creates premature false dependencies,
    delivering it later sacrifices freshness. A configuration's quality is
    the weighted sum over pairs of |λ(i, j) − β(i, j)| where λ is the
    metadata-path latency through the serializer tree. *)

type t = {
  n_dcs : int;
  weight : int -> int -> float;  (** c(i, j); pairs with weight 0 are ignored *)
  bulk : int -> int -> Sim.Time.t;  (** β(i, j), the bulk-data latency *)
}

val uniform : n_dcs:int -> bulk:(int -> int -> Sim.Time.t) -> t
(** Every ordered pair weighs 1. *)

val of_replica_map : Kvstore.Replica_map.t -> bulk:(int -> int -> Sim.Time.t) -> t
(** c(i, j) = number of keys replicated at both i and j (the workload-derived
    correlation weights of §5.4); pairs sharing nothing are ignored. *)

(** {2 Pair table}

    A tree's weighted pairs resolved once, so that scoring a placement walks
    flat arrays instead of re-deriving every serializer path. The table
    depends on the tree and the weights, not on the placement or the
    delays, so one table serves every placement tried for its tree. *)

type table = private {
  n_pairs : int;
  src : int array;  (** pair [p] runs from datacenter [src.(p)] ... *)
  dst : int array;  (** ... to [dst.(p)]; pairs in (src, dst) order, weight 0 left out *)
  weight : float array;  (** c(src, dst) *)
  beta_ms : float array;  (** β(src, dst) in ms *)
  path : int array array;  (** serializers from [src]'s attachment to [dst]'s *)
  hops : int array array;
      (** hop ids of the pair's delayable hops, in path order: [hops.(p).(k)]
          leaves [path.(p).(k)] *)
  hop_from : int array;  (** serializer hop [h] leaves *)
  hop_to : Config.hop array;  (** where hop [h] goes *)
  crossing : int array array;  (** pairs whose path takes hop [h], last pair first *)
}
(** Hop ids number the hops in the order they first appear when the pairs
    are read last to first. *)

val table : t -> Tree.t -> table

val n_hops : table -> int

val entry_latency :
  table ->
  Sim.Topology.t ->
  placement:Sim.Topology.site array ->
  dc_sites:Sim.Topology.site array ->
  int ->
  Sim.Time.t
(** Pair [p]'s first leg: from its source datacenter to the serializer it
    attaches to. *)

val hop_latency :
  table ->
  Sim.Topology.t ->
  placement:Sim.Topology.site array ->
  dc_sites:Sim.Topology.site array ->
  int ->
  Sim.Time.t
(** Hop [h]'s physical latency, without artificial delay. A pair's λ is its
    entry latency plus, for each of its hops, the hop's latency and delay. *)

val score :
  table ->
  Sim.Topology.t ->
  placement:Sim.Topology.site array ->
  dc_sites:Sim.Topology.site array ->
  delays_us:int array ->
  float
(** The Definition 2 sum for a placement whose hop [h] carries
    [delays_us.(h)] µs of artificial delay: the same value {!objective}
    gives once those delays are installed in a config. *)

val late_score :
  table ->
  Sim.Topology.t ->
  placement:Sim.Topology.site array ->
  dc_sites:Sim.Topology.site array ->
  delays_us:int array ->
  float
(** {!lower_bound} for a placement whose hop [h] carries [delays_us.(h)] µs
    of artificial delay. *)

val objective : t -> Config.t -> Sim.Topology.t -> float
(** The Definition 2 sum, in weighted milliseconds. This and {!lower_bound}
    build the config's table on every call. *)

val lower_bound : t -> Config.t -> Sim.Topology.t -> float
(** Objective achievable if delays could be chosen per-pair: counts only the
    pairs whose metadata path is *slower* than bulk (delays cannot speed a
    path up). Cheap; used to rank candidate trees during generation. *)
