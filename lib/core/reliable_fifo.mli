(** Reliable in-order delivery over lossy {!Sim.Link}s.

    The serializer tree needs FIFO channels that survive link cuts and
    serializer-replica crashes without losing or reordering labels — losing
    a label would silently break causal delivery downstream. This module
    implements the standard sequence-number / cumulative-ack / retransmit
    scheme. A sender can be re-pointed at a different receiver (the new head
    of a healed chain) and will retransmit everything unacknowledged. *)

type 'msg sender
type 'msg receiver

val receiver : Sim.Engine.t -> deliver:('msg -> unit) -> 'msg receiver
(** Delivers messages in sequence order exactly once. Out-of-order arrivals
    (possible only across reconnects) are buffered. A receiver serves the
    one sender that first {!connect}s to it. *)

val receiver_deferred :
  Sim.Engine.t -> deliver:('msg -> confirm:(unit -> unit) -> unit) -> 'msg receiver
(** Like {!receiver}, but a message is only acknowledged to the sender once
    the consumer calls [confirm]. A chain-replicated serializer confirms at
    chain commit, so a head crash between delivery and replication makes
    the sender retransmit instead of losing the label. Confirms must be
    issued in delivery order. *)

val sender : Sim.Engine.t -> resend_period:Sim.Time.t -> 'msg sender
(** Unacknowledged messages are retransmitted every [resend_period]. *)

val connect : 'msg sender -> data:Sim.Link.t -> ack:Sim.Link.t -> 'msg receiver -> unit
(** Routes the sender's traffic to [receiver] and binds the receiver to
    this sender; immediately retransmits any unacknowledged backlog. May be
    called again to re-target after a failure.
    @raise Invalid_argument if [receiver] is bound to another sender. *)

val send : 'msg sender -> ?size_bytes:int -> 'msg -> unit
(** Queues and transmits. @raise Invalid_argument before the first
    {!connect}. *)

val unacked : 'msg sender -> int
val delivered : 'msg receiver -> int

val redeliver_unconfirmed : 'msg receiver -> deliver:('msg -> confirm:(unit -> unit) -> unit) -> unit
(** Replays every delivered-but-unconfirmed message (deferred receivers
    only), in sequence order. Used when the consumer — a
    chain-replicated serializer — lost unreplicated state in a head crash:
    the replayed messages are re-ingested and deduplicated downstream. *)

val stop : 'msg sender -> unit
(** Cancels the retransmission timer (end of experiment teardown). *)
