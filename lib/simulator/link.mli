(** Point-to-point FIFO network link.

    Links model the two transports the paper relies on:
    - the bulk-data transfer service between datacenters, and
    - the FIFO channels connecting serializers and datacenters
      (FIFO order is what makes the tree dissemination causal).

    Delivery time is [now + base latency + jitter + size/bandwidth], but
    never before a previously sent message: FIFO is enforced even under
    jitter. A link can be cut and restored to model partitions; messages in
    flight when the link is cut are dropped, messages sent while the link is
    down are dropped. *)

type t

val create :
  ?jitter_us:int ->
  ?bandwidth_bytes_per_us:float ->
  ?rng:Rng.t ->
  Engine.t ->
  latency:Time.t ->
  unit ->
  t
(** [jitter_us] adds a uniform random [0, jitter_us) component per message
    (requires [rng] when non-zero). [bandwidth_bytes_per_us], when given,
    adds a size-proportional transmission delay. *)

val send : t -> ?size_bytes:int -> (unit -> unit) -> unit
(** Schedules [deliver] on the receiving side after the link delay.
    [size_bytes] defaults to 0 (metadata-sized message). Consecutive
    messages that share an arrival instant and a cut epoch form one group,
    delivered by a single engine event in send order; a message sent from
    inside a delivery at that instant starts a new group. Messages wait in
    a per-link ring, so a send allocates nothing beyond amortised ring
    growth. Cut/epoch checks still happen per message at delivery time, so
    grouping is invisible to fault semantics. *)

val set_latency : t -> Time.t -> unit
(** Changes the base latency for subsequent messages (used by the
    latency-variability experiment, Fig. 6). *)

val latency : t -> Time.t

val cut : t -> unit
(** Take the link down: in-flight and future messages are dropped.
    Idempotent, but each call bumps the epoch, so anything still in flight
    is invalidated again. *)

val restore : t -> unit
(** Bring the link back up. Messages sent after the restore are delivered
    normally; messages lost during the outage stay lost (reliability is the
    sender's job — see [Reliable_fifo]). A cut/restore round trip therefore
    only affects traffic that overlapped the outage. Idempotent. *)

val is_up : t -> bool

val delivered_count : t -> int

val dropped_count : t -> int
(** Total losses: [dropped_down_count + dropped_cut_count]. *)

val dropped_down_count : t -> int
(** Messages sent while the link was down. *)

val dropped_cut_count : t -> int
(** Messages that were in flight when the link was cut. *)

val in_flight_count : t -> int
(** Messages sent but neither delivered nor dropped yet — the queue depth
    of the wire at the current simulated instant. *)
