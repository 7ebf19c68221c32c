(** One Saturn-enabled datacenter (§4, Figure 2).

    Composes the abstract decomposition of the paper: stateless frontends,
    storage servers with attached gears, the label sink, and the remote
    proxy. The datacenter is linearizable (single simulated process), and
    exports a serial label stream through its sink.

    Networking (client latency, bulk links, the metadata tree) is wired by
    {!System}; this module owns only intra-datacenter behaviour. *)

type t

type hooks = {
  ship_payload : dst:int -> Proxy.payload -> unit;
      (** bulk-data transfer of an update to a replica datacenter *)
  emit_label : Label.t -> unit;  (** sink output toward the metadata service *)
  on_remote_visible : key:int -> origin_dc:int -> origin_time:Sim.Time.t -> value:Kvstore.Value.t -> unit;
      (** a remote update just became visible locally *)
}

val create :
  Sim.Engine.t ->
  dc:int ->
  n_dcs:int ->
  partitions:int ->
  frontends:int ->
  cost:Cost_model.t ->
  rmap:Kvstore.Replica_map.t ->
  hooks:hooks ->
  ?clock_offset:Sim.Time.t ->
  ?registry:Stats.Registry.t ->
  ?series:Stats.Series.t ->
  ?proxy_mode:Proxy.mode ->
  unit ->
  t
(** [registry] collects the datacenter's counters and those of its sink and
    proxy, scoped by datacenter id ([dc0.updates_originated],
    [sink.dc0.emitted], [proxy.dc0.applied_updates], …); a private registry
    is created when omitted. [series] is forwarded to the sink and proxy
    for windowed queue-depth / apply-throughput telemetry. *)

val proxy : t -> Proxy.t
val store_of_key : t -> key:int -> Label.t Kvstore.Store.t
val gear_floor : t -> Sim.Time.t
(** min over gears — the datacenter's bulk-heartbeat promise. *)

(** {2 Frontend operations} — continuation-passing; each consumes frontend
    and storage-server service time before completing. *)

val attach : t -> client_label:Label.t option -> k:(unit -> unit) -> unit
(** Algorithm 1 ATTACH: returns immediately for locally-generated (or
    empty) causal pasts; waits for migration-label application or for
    per-source timestamp stabilization otherwise. *)

val read : t -> key:int -> k:((Kvstore.Value.t * Label.t) option -> unit) -> unit

val update :
  t -> key:int -> value:Kvstore.Value.t -> client_ts:Sim.Time.t -> k:(Label.t -> unit) -> unit
(** Algorithm 2 UPDATE: mints the label, persists locally, ships payloads
    to replica datacenters and hands the label to the sink. *)

val migrate : t -> dest_dc:int -> client_ts:Sim.Time.t -> k:(Label.t -> unit) -> unit
(** Algorithm 2 MIGRATION: mints a migration label (greater than the
    client's past) and sinks it. *)

val emit_epoch_label : t -> epoch:int -> Label.t
(** Mints an epoch-change label (§6.2) and hands it to the sink; returns it
    so the caller can detect when the sink emits it. *)

val bump_clock : t -> Sim.Time.t -> unit
(** Fault injection: step-change the datacenter's physical-clock skew
    (shared by all its gears). Gear discipline keeps label timestamps
    monotonic through the bump. *)

val stop : t -> unit

(** {2 Introspection} *)

val updates_originated : t -> int
val remote_applied : t -> int
