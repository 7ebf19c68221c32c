(** Shape of the serializer tree (§5.3).

    Serializers and datacenters form a tree: serializers are internal
    infrastructure nodes, each datacenter attaches (as a leaf) to exactly
    one serializer. Labels travel along tree paths over FIFO channels;
    because every serializer relays in arrival order, each datacenter
    receives a causally consistent serialization.

    The structure precomputes routing: next hops between serializers and,
    for every serializer and datacenter, the neighbor a label for that
    datacenter leaves through — that is what lets a serializer forward a
    label only toward interested datacenters, giving genuine partial
    replication. *)

type t

val create : n_serializers:int -> edges:(int * int) list -> attach:int array -> t
(** [attach.(dc)] is the serializer datacenter [dc] connects to. [edges]
    must form a tree over the serializers (connected, n-1 edges).
    @raise Invalid_argument otherwise. *)

val star : n_dcs:int -> t
(** Single serializer with every datacenter attached — the S-configuration. *)

val n_serializers : t -> int
val n_dcs : t -> int
val edges : t -> (int * int) list
val neighbors : t -> int -> int list
val serializer_of : t -> dc:int -> int
val dcs_at : t -> int -> int list

val next_hop : t -> src:int -> dst:int -> int
(** Neighbor of [src] on the unique path to serializer [dst].
    @raise Invalid_argument if [src = dst]. *)

val serializer_path : t -> src_dc:int -> dst_dc:int -> int list
(** Serializers traversed from [src_dc]'s attachment to [dst_dc]'s,
    inclusive. A single element when both attach to the same serializer. *)

val hop_toward : t -> at:int -> dc:int -> int
(** The neighbor serializer [at] forwards to on the way to datacenter [dc],
    or [-1] when [dc] attaches to [at] itself. One array read: the
    per-label routing test. *)

val pp : Format.formatter -> t -> unit
