(** Shared data-plane fabric for the baseline protocols.

    Eventual consistency, GentleRain and Cure all share the same substrate:
    partitioned storage servers per datacenter, frontends, bulk links over
    the latency matrix, per-partition monotonic timestamp sources and
    periodic heartbeats. They differ only in the metadata attached to
    versions and in when remote updates become visible; those parts live in
    the per-protocol modules. *)

type params = {
  topo : Sim.Topology.t;
  dc_sites : Sim.Topology.site array;
  partitions : int;
  frontends : int;
  cost : Saturn.Cost_model.t;
  rmap : Kvstore.Replica_map.t;
  bulk_factor : float;  (** bulk-path inflation; 1.0 = shortest path *)
}

type hooks = {
  on_visible :
    dc:int -> key:int -> origin_dc:int -> origin_time:Sim.Time.t -> value:Kvstore.Value.t -> unit;
}

(** The client-operation surface every baseline protocol exposes; the
    harness wraps any module of this type into an [Api.t]. Each operation
    takes the calling client's id and home site, and the datacenter it is
    attached to. *)
module type OPS = sig
  type t

  val attach : t -> client:int -> home:Sim.Topology.site -> dc:int -> k:(unit -> unit) -> unit
  (** Attach (with the protocol's stabilization wait) to [dc]. *)

  val read :
    t -> client:int -> home:Sim.Topology.site -> dc:int -> key:int ->
    k:(Kvstore.Value.t option -> unit) -> unit

  val update :
    t -> client:int -> home:Sim.Topology.site -> dc:int -> key:int -> value:Kvstore.Value.t ->
    k:(unit -> unit) -> unit

  val stop : t -> unit

  val store_value : t -> dc:int -> key:int -> Kvstore.Value.t option
  (** The version visible at [dc], for tests and diagnostics. *)
end

type t

val create : ?series:Stats.Series.t -> Sim.Engine.t -> params -> t
(** [series], when given, gains a [series.link.bulk.in_flight] gauge over
    the fabric's links — the same name the Saturn deployment uses, so
    Saturn-vs-baseline queue dynamics line up — and the fabric drives the
    series sampling tick until [stop]. Per-protocol modules add their own
    apply/pending series via {!series}. *)

val engine : t -> Sim.Engine.t

val n_dcs : t -> int
val params : t -> params
val partition_of : t -> key:int -> int

val via_frontend : t -> dc:int -> (unit -> unit) -> unit
(** Consumes frontend service time at [dc] (round-robin). *)

val submit : t -> dc:int -> part:int -> cost_us:int -> (unit -> unit) -> unit
(** Consumes storage-server time on partition [part] of [dc]. *)

val ship : t -> src:int -> dst:int -> size_bytes:int -> (unit -> unit) -> unit
(** Bulk-data transfer; the continuation runs at arrival. *)

val bulk_link : t -> src:int -> dst:int -> Sim.Link.t
(** The directed bulk link [src -> dst], for fault injection.
    @raise Invalid_argument when [src = dst]. *)

val gen_ts : t -> dc:int -> part:int -> floor:Sim.Time.t -> Sim.Time.t
(** Monotonic per-gear timestamp strictly greater than [floor]. *)

val dc_floor : t -> dc:int -> Sim.Time.t
(** Heartbeat promise of [dc] (min over its gears). *)

val round_trip :
  t -> home:Sim.Topology.site -> dc:int -> (('r -> unit) -> unit) -> k:('r -> unit) -> unit
(** Client request/response latency wrapper: home site → datacenter and
    back. *)

val every : t -> Sim.Time.t -> (unit -> unit) -> unit
(** Periodic task tied to the fabric's lifetime. *)

val stop : t -> unit
val stopped : t -> bool
