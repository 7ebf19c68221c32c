(* Bechamel micro-benchmarks of Saturn's hot paths: label comparison (the
   per-operation metadata cost the paper argues is negligible), Cure-style
   vector merges (the cost it avoids), tree routing, sink stabilization,
   the simulator's per-event path (the engine's keyed event queue at the
   repo benchmark's depths and a link send+fire), and the remote label
   path: a label through a proxy, a chain commit and a reliable-channel
   round trip; and Algorithm 3's two scorers. *)

open Bechamel
open Toolkit

let label_a = Saturn.Label.update ~ts:(Sim.Time.of_us 1234) ~src_dc:1 ~src_gear:0 ~key:42
let label_b = Saturn.Label.update ~ts:(Sim.Time.of_us 1235) ~src_dc:2 ~src_gear:1 ~key:43

let test_label_compare =
  Test.make ~name:"label compare (Saturn per-op metadata)"
    (Staged.stage (fun () -> ignore (Saturn.Label.compare label_a label_b)))

let vec_a = Array.init 7 (fun i -> i * 17)
let vec_b = Array.init 7 (fun i -> i * 13)

let test_vector_merge =
  Test.make ~name:"vector merge, 7 entries (Cure per-op metadata)"
    (Staged.stage (fun () ->
         let out = Array.copy vec_a in
         Array.iteri (fun i v -> if v > out.(i) then out.(i) <- v) vec_b;
         ignore (Sys.opaque_identity out)))

let routing_tree =
  Saturn.Tree.create ~n_serializers:6
    ~edges:[ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5) ]
    ~attach:[| 0; 1; 2; 3; 4; 5; 5 |]

let test_tree_routing =
  Test.make ~name:"tree routing decision (hop_toward lookup)"
    (Staged.stage (fun () -> ignore (Saturn.Tree.hop_toward routing_tree ~at:2 ~dc:5)))

let test_heap =
  Test.make ~name:"comparator heap push+pop, 64 deep (baseline pending buffers)"
    (Staged.stage
       (let heap = Sim.Heap.create ~cmp:Int.compare () in
        let i = ref 0 in
        fun () ->
          incr i;
          Sim.Heap.push heap (!i * 7919 mod 1000);
          if Sim.Heap.size heap > 64 then ignore (Sim.Heap.pop_exn heap)))

(* The engine queue's steady state at a fixed depth (the "hold" model): pop
   the earliest event and push one a pseudo-random delay after it, keyed by
   (µs, sequence) as [Sim.Engine] keys it. The depths are the repo
   benchmark's [engine.pending_peak] on ec2-r90 (~2.5k) and ec2-w50 (~6.5k). *)
let test_keyed_heap depth =
  Test.make
    ~name:(Printf.sprintf "event-queue keyed heap pop+push, %d deep" depth)
    (Staged.stage
       (let heap = Sim.Heap.Keyed.create ~capacity:depth ~dummy:ignore () in
        let seq = ref 0 in
        let delay () = (!seq * 7919 mod 100_003) + 1 in
        for _ = 1 to depth do
          incr seq;
          Sim.Heap.Keyed.push heap ~k1:(delay ()) ~k2:!seq ignore
        done;
        fun () ->
          let run = Sim.Heap.Keyed.pop_exn heap in
          incr seq;
          Sim.Heap.Keyed.push heap ~k1:(Sim.Heap.Keyed.popped_k1 heap + delay ()) ~k2:!seq run))

let test_link =
  Test.make ~name:"link send+fire (one message, one engine event)"
    (Staged.stage
       (let engine = Sim.Engine.create () in
        let link = Sim.Link.create engine ~latency:(Sim.Time.of_ms 1) () in
        fun () ->
          Sim.Link.send link ignore;
          ignore (Sim.Engine.step engine)))

let test_sink =
  Test.make ~name:"label sink offer+flush"
    (Staged.stage
       (let engine = Sim.Engine.create () in
        let clock = Sim.Clock.create engine in
        let gears = [| Saturn.Gear.create clock ~dc:0 ~gear_id:0 |] in
        let sink =
          Saturn.Sink.create engine ~gears ~period:(Sim.Time.of_ms 1) ~emit:(fun _ -> ()) ()
        in
        let i = ref 0 in
        fun () ->
          incr i;
          let ts = Saturn.Gear.generate_ts gears.(0) ~client_ts:Sim.Time.zero in
          Saturn.Sink.offer sink (Saturn.Label.update ~ts ~src_dc:0 ~src_gear:0 ~key:!i);
          Saturn.Sink.flush sink))

(* One label through a remote proxy whose stream holds 64 entries: the
   label arrives, then the payload of the label 63 places ahead of it,
   which stages at once and installs from the head of the stream. Every
   scan walks the whole 64-entry window. The proxy is rebuilt every 4096
   labels so its applied-label table stays small. *)
let test_proxy_label =
  Test.make ~name:"proxy label+payload+stage+install, 64-entry stream"
    (Staged.stage
       (let depth = 64 in
        let engine = Sim.Engine.create () in
        let label i = Saturn.Label.update ~ts:(Sim.Time.of_us (i + 1)) ~src_dc:1 ~src_gear:0 ~key:i in
        let fresh () =
          let p =
            Saturn.Proxy.create engine ~dc:0 ~n_dcs:3
              ~stage_update:(fun _ ~k -> k ())
              ~install_update:ignore ()
          in
          for i = 0 to depth - 2 do
            Saturn.Proxy.on_label p (label i)
          done;
          p
        in
        let proxy = ref (fresh ()) and i = ref (depth - 1) in
        fun () ->
          if !i >= 4096 then begin
            proxy := fresh ();
            i := depth - 1
          end;
          let l = label !i and head = label (!i - depth + 1) in
          Saturn.Proxy.on_label !proxy l;
          Saturn.Proxy.on_payload !proxy
            { Saturn.Proxy.label = head; value = Kvstore.Value.make ~payload:0 ~size_bytes:2;
              origin_time = Sim.Time.zero; epoch = 0 };
          incr i))

(* A serializer chain of one replica: input, commit, and the external
   confirm the commit schedules. *)
let test_chain =
  Test.make ~name:"chain input+commit+confirm, 1 replica"
    (Staged.stage
       (let engine = Sim.Engine.create () in
        let chain =
          Saturn.Chain.create engine ~replicas:1 ~intra_latency:(Sim.Time.of_us 300) ~deliver:ignore ()
        in
        let i = ref 0 in
        fun () ->
          incr i;
          Saturn.Chain.input chain ~ext_key:(0, !i) !i ~confirm:ignore;
          ignore (Sim.Engine.step engine)))

(* A reliable FIFO channel: send, deliver, the cumulative ack, and the
   retransmit timer's check, all through the engine. *)
let test_fifo =
  Test.make ~name:"reliable fifo send+deliver+ack"
    (Staged.stage
       (let engine = Sim.Engine.create () in
        let data = Sim.Link.create engine ~latency:(Sim.Time.of_ms 1) () in
        let ack = Sim.Link.create engine ~latency:(Sim.Time.of_ms 1) () in
        let recv = Saturn.Reliable_fifo.receiver engine ~deliver:ignore in
        let sender = Saturn.Reliable_fifo.sender engine ~resend_period:(Sim.Time.of_ms 10) in
        Saturn.Reliable_fifo.connect sender ~data ~ack recv;
        fun () ->
          Saturn.Reliable_fifo.send sender 0;
          Sim.Engine.run engine))

(* Algorithm 3's two scorers on the paper's default 7-DC EC2 problem
   (correlation weights from the default set-up's replica map, bulk = the
   shortest path), over the configuration the generator picks for it: one
   lower-bound score, as the placement search ranks every candidate site,
   and one full delay solve. Solved on first use, so that the other
   experiments never pay for it. *)
let ec2_problem =
  lazy
    (let setup = Harness.Scenario.default_setup in
     let rmap = Harness.Scenario.replica_map setup in
     let dc_sites = Harness.Scenario.dc_sites setup in
     let config =
       Harness.Build.solve_config (Harness.Build.default_spec ~topo:Sim.Ec2.topology ~dc_sites ~rmap)
     in
     let bulk i j = Sim.Topology.latency Sim.Ec2.topology dc_sites.(i) dc_sites.(j) in
     let problem =
       {
         Saturn.Config_solver.topo = Sim.Ec2.topology;
         dc_sites;
         candidates = Saturn.Config_solver.default_candidates ~dc_sites;
         crit = Saturn.Mismatch.of_replica_map rmap ~bulk;
       }
     in
     (problem, config))

let test_lower_bound () =
  let problem, config = Lazy.force ec2_problem in
  let table = Saturn.Mismatch.table problem.Saturn.Config_solver.crit (Saturn.Config.tree config) in
  let no_delays = Array.make (Saturn.Mismatch.n_hops table) 0 in
  Test.make ~name:"Alg. 3 placement score (lower bound), 7-DC EC2"
    (Staged.stage (fun () ->
         ignore
           (Saturn.Mismatch.late_score table Sim.Ec2.topology ~placement:(Saturn.Config.placement config)
              ~dc_sites:problem.Saturn.Config_solver.dc_sites ~delays_us:no_delays)))

let test_optimize_delays () =
  let problem, config = Lazy.force ec2_problem in
  Test.make ~name:"Alg. 3 delay solve (optimize_delays), 7-DC EC2"
    (Staged.stage (fun () -> ignore (Saturn.Config_solver.optimize_delays problem config)))

let tests () =
  [
    test_label_compare;
    test_vector_merge;
    test_tree_routing;
    test_heap;
    test_keyed_heap 2_500;
    test_keyed_heap 6_500;
    test_link;
    test_sink;
    test_proxy_label;
    test_chain;
    test_fifo;
    test_lower_bound ();
    test_optimize_delays ();
  ]

let run () =
  Util.section "Microbenchmarks (Bechamel): Saturn hot paths";
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false () in
  let table = Stats.Table.create ~title:"nanoseconds per call (OLS fit)" ~columns:[ "benchmark"; "ns/run" ] in
  List.iter
    (fun test ->
      List.iter
        (fun (name, raw) ->
          let ols =
            Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
          in
          let est = Analyze.one ols instance raw in
          let ns =
            match Analyze.OLS.estimates est with
            | Some [ v ] -> Printf.sprintf "%.1f" v
            | Some _ | None -> "-"
          in
          Stats.Table.add_row table [ name; ns ])
        (List.map (fun (k, v) -> (k, v)) (Hashtbl.fold (fun k v acc -> (k, v) :: acc) (Benchmark.all cfg [ instance ] test) [])))
    (tests ());
  Stats.Table.print table
