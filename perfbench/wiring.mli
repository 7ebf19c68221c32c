(** One paper run of one system, composed from the harness's public
    functions the way [Harness.Scenario.run] composes it, plus the
    benchmark's three instruments: a counting wrapper over the [Api.t]
    closures (the correctness check), window-scoped metadata bytes, and a
    host-clock tick per 50 simulated ms that also times a slice of the
    host-speed reference. None of them changes what the simulation does;
    the self-test in [test/] holds that to [Scenario.run]'s numbers. *)

val now_ns : unit -> int
(** Monotonic host clock, ns. *)

type check = {
  mutable issued : int;  (** reads + updates called *)
  mutable completed : int;  (** their continuations run *)
  mutable bad_reads : int;  (** reads returning a payload never written to that key *)
  mutable attaches : int;
  mutable attached : int;
}

type ticks = {
  marks : int array;  (** host ns at each tick, before its reference slice *)
  resumes : int array;  (** host ns at each tick, after its reference slice *)
  mutable fired : int;
  mutable ref_ns : int;  (** host ns spent in the ticks' reference slices *)
  mutable pending_peak : int;  (** largest [Sim.Engine.pending] seen at a tick *)
  mutable events : int;  (** tick events processed, the final one that stops included *)
}

type deployment = {
  name : string;  (** lower-case system name: the metric-name prefix *)
  setup : Harness.Scenario.setup;
  rmap : Kvstore.Replica_map.t;
  engine : Sim.Engine.t;
  api : Harness.Api.t;  (** wrapped by the counting check *)
  metrics : Harness.Metrics.t;
  registry : Stats.Registry.t;
  clients : Harness.Client.t list;
  next_op : Harness.Client.t -> Workload.Op.t;
  check : check;
  window_bytes : int array;
      (** [attached; stabilization; heartbeat] [meta.bytes.*] sums sent
          inside the measurement window, filled by two scheduled reads *)
  ticks : ticks;
      (** a read-only engine tick every 50 simulated ms, to the end of the
          drain: its marks cut the run into segments that do the same work
          in every run of the deployment, and it runs one reference slice *)
}

val time_ref_slices : int -> int
(** Host ns of that many slices of the host-speed reference, back to back.
    A slice is a fixed amount of work that uses none of the program's code
    and allocates nothing; its host time tracks how fast the shared host
    runs at the moment. Every tick also runs one. *)

val setup : read_ratio:float -> seed:int -> Harness.Scenario.setup
(** [Scenario.default_setup] (7 EC2 datacenters, 700 keys, exponential
    correlation, 2 B values, 40 clients per DC, no remote reads) with a 1 s
    measurement window after its 0.4 s warm-up, and the given read ratio
    and seed. *)

val replica_map : Harness.Scenario.setup -> Kvstore.Replica_map.t

val solve : Harness.Scenario.setup -> Kvstore.Replica_map.t -> Saturn.Config.t
(** Algorithm 3 for the setup, uncached: every call pays the solve. *)

val build :
  Harness.Scenario.setup ->
  Kvstore.Replica_map.t ->
  Saturn.Config.t ->
  Harness.Scenario.system ->
  deployment
(** Engine, metrics, registry-carrying deployment, workload and clients.
    The config is used only by Saturn. *)

val own_events : deployment -> int
(** Engine events the benchmark itself scheduled: the window-edge byte
    reads and the ticks fired. *)

val segments : deployment -> t0:int -> t_end:int -> int array
(** Host ns of [t0 -> first tick], each tick-to-tick window, and
    [last tick -> t_end], the ticks' reference slices left out. *)

val run :
  ?wrap_api:(Harness.Api.t -> Harness.Api.t) ->
  ?wrap_next:((Harness.Client.t -> Workload.Op.t) -> Harness.Client.t -> Workload.Op.t) ->
  deployment ->
  Harness.Driver.result
(** [Driver.run] over the setup's warm-up, window and cool-down. The
    wrappers let a traced run time the calls into each layer. *)

type summary = {
  ops : int;  (** in-window completions *)
  throughput : float;  (** simulated ops/s in the window *)
  vis_n : int;
  vis_mean_ms : float;
  vis_p50_ms : float;
  vis_p99_ms : float;
  extra_mean_ms : float;
}

val analyse : deployment -> Harness.Driver.result -> summary
(** The post-run analysis: visibility percentiles and the extra-visibility
    mean. 0 for an empty sample. *)

val stuck_ops : deployment -> int
(** Ops whose continuation never ran. *)

val diverged_keys : deployment -> int
(** Keys whose replicas ([Replica_map.replicas]) do not all hold the same
    visible value. Meaningful after the run's drain. *)
