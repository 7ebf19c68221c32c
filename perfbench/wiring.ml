open Harness

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type check = {
  mutable issued : int;
  mutable completed : int;
  mutable bad_reads : int;
  mutable attaches : int;
  mutable attached : int;
}

type ticks = {
  marks : int array;
  resumes : int array;
  mutable fired : int;
  mutable ref_ns : int;
  mutable pending_peak : int;
  mutable events : int;
}

type deployment = {
  name : string;
  setup : Scenario.setup;
  rmap : Kvstore.Replica_map.t;
  engine : Sim.Engine.t;
  api : Api.t;
  metrics : Metrics.t;
  registry : Stats.Registry.t;
  clients : Client.t list;
  next_op : Client.t -> Workload.Op.t;
  check : check;
  window_bytes : int array;
  ticks : ticks;
}

(* The host-speed reference: a fixed slice of work that uses none of the
   program's code. 20,000 pseudo-random read-modify-writes over a 2 MB
   array outside the OCaml heap: integer work, branches and cache misses,
   nothing allocated, so it neither adds GC work nor depends on the
   program's heap. *)
let ref_words = 1 lsl 18
let ref_area = Bigarray.(Array1.create int c_layout ref_words)
let () = Bigarray.Array1.fill ref_area 0
let ref_seed = ref 12345

let ref_slice () =
  let a = ref_area in
  let st = ref !ref_seed and acc = ref 0 in
  for i = 0 to 19_999 do
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    let j = (!st lsr 4) land (ref_words - 1) in
    let v = Bigarray.Array1.unsafe_get a j in
    if v land 3 = 0 then acc := !acc + v else acc := !acc lxor (v lsl 1);
    Bigarray.Array1.unsafe_set a j (v + i)
  done;
  ref_seed := !st;
  ignore (Sys.opaque_identity !acc)

let time_ref_slices n =
  let t0 = now_ns () in
  for _ = 1 to n do
    ref_slice ()
  done;
  now_ns () - t0

let setup ~read_ratio ~seed =
  { Scenario.default_setup with Scenario.read_ratio; seed; measure = Sim.Time.of_sec 1. }

let replica_map = Scenario.replica_map

let spec (setup : Scenario.setup) rmap =
  let sites = Scenario.dc_sites setup in
  { (Build.default_spec ~topo:Sim.Ec2.topology ~dc_sites:sites ~rmap) with
    Build.partitions = setup.partitions;
    serializer_replicas = setup.serializer_replicas;
    bulk_factor = setup.bulk_factor;
  }

let solve setup rmap = Build.solve_config (spec setup rmap)

(* Payload tags are unique per update, so [written] maps each tag to the
   key it was written to; a read must return one of those or nothing. *)
let counting (api : Api.t) ck =
  let written : (int, int) Hashtbl.t = Hashtbl.create 65536 in
  let read_ok key = function
    | None -> true
    | Some (v : Kvstore.Value.t) -> (
      match Hashtbl.find written v.payload with k -> k = key | exception Not_found -> false)
  in
  {
    api with
    Api.attach =
      (fun c ~dc ~k ->
        ck.attaches <- ck.attaches + 1;
        api.attach c ~dc ~k:(fun () ->
            ck.attached <- ck.attached + 1;
            k ()));
    read =
      (fun c ~key ~k ->
        ck.issued <- ck.issued + 1;
        api.read c ~key ~k:(fun v ->
            ck.completed <- ck.completed + 1;
            if not (read_ok key v) then ck.bad_reads <- ck.bad_reads + 1;
            k v));
    update =
      (fun c ~key ~value ~k ->
        ck.issued <- ck.issued + 1;
        Hashtbl.replace written value.Kvstore.Value.payload key;
        api.update c ~key ~value ~k:(fun () ->
            ck.completed <- ck.completed + 1;
            k ()));
  }

let meta_kinds = [| ".attached"; ".stabilization"; ".heartbeat" |]

let meta_bytes registry =
  let sums = Array.make (Array.length meta_kinds) 0 in
  List.iter
    (fun (name, v) ->
      match v with
      | Stats.Registry.Counter n when String.starts_with ~prefix:"meta.bytes." name ->
        Array.iteri
          (fun i suffix -> if String.ends_with ~suffix name then sums.(i) <- sums.(i) + n)
          meta_kinds
      | _ -> ())
    (Stats.Registry.snapshot registry);
  sums

let build (setup : Scenario.setup) rmap config system =
  let engine = Sim.Engine.create () in
  let sites = Scenario.dc_sites setup in
  let registry = Stats.Registry.create () in
  let metrics =
    Metrics.create ~bulk_factor:setup.bulk_factor engine ~topo:Sim.Ec2.topology ~dc_sites:sites
  in
  let spec =
    match system with
    | Scenario.Saturn_sys -> { (spec setup rmap) with Build.saturn_config = Some config }
    | _ -> spec setup rmap
  in
  let api =
    match system with
    | Scenario.Saturn_sys -> fst (Build.saturn ~registry engine spec metrics)
    | Saturn_peer -> fst (Build.saturn_peer ~registry engine spec metrics)
    | Eventual -> Build.eventual ~registry engine spec metrics
    | Gentlerain -> Build.gentlerain ~registry engine spec metrics
    | Cure -> Build.cure ~registry engine spec metrics
    | Eunomia -> Build.eunomia ~registry engine spec metrics
    | Okapi -> Build.okapi ~registry engine spec metrics
  in
  let workload =
    Workload.Synthetic.create
      {
        Workload.Synthetic.n_keys = setup.n_keys;
        value_size = setup.value_size;
        read_ratio = setup.read_ratio;
        remote_read_ratio = setup.remote_read_ratio;
        seed = setup.seed;
      }
      ~rmap ~topo:Sim.Ec2.topology ~dc_sites:sites
  in
  let check = { issued = 0; completed = 0; bad_reads = 0; attaches = 0; attached = 0 } in
  (* read-only events at the window edges: heartbeats sent during warm-up
     and drain stay out of the per-op bytes *)
  let window_bytes = Array.make (Array.length meta_kinds) 0 in
  let at_start = ref [||] in
  Sim.Engine.schedule_at engine setup.warmup (fun () -> at_start := meta_bytes registry);
  Sim.Engine.schedule_at engine (Sim.Time.add setup.warmup setup.measure) (fun () ->
      Array.iteri (fun i n -> window_bytes.(i) <- n - !at_start.(i)) (meta_bytes registry));
  let every = Sim.Time.of_ms 50 in
  let horizon =
    Sim.Time.add setup.warmup
      (Sim.Time.add setup.measure (Sim.Time.add setup.cooldown (Sim.Time.of_sec 2.)))
  in
  let ticks =
    {
      marks = Array.make ((Sim.Time.to_us horizon / Sim.Time.to_us every) + 2) 0;
      resumes = Array.make ((Sim.Time.to_us horizon / Sim.Time.to_us every) + 2) 0;
      fired = 0;
      ref_ns = 0;
      pending_peak = 0;
      events = 0;
    }
  in
  Sim.Engine.periodic engine ~every
    (fun () ->
      let t = now_ns () in
      ticks.marks.(ticks.fired) <- t;
      ref_slice ();
      let t' = now_ns () in
      ticks.resumes.(ticks.fired) <- t';
      ticks.ref_ns <- ticks.ref_ns + (t' - t);
      ticks.fired <- ticks.fired + 1;
      ticks.pending_peak <- max ticks.pending_peak (Sim.Engine.pending engine))
    ~stop:(fun () ->
      (* every tick event polls [stop] once, the last one included *)
      ticks.events <- ticks.events + 1;
      Sim.Time.compare (Sim.Engine.now engine) horizon >= 0);
  {
    name = String.lowercase_ascii (Scenario.system_name system);
    setup;
    rmap;
    engine;
    api = counting api check;
    metrics;
    registry;
    clients = Driver.make_clients ~dc_sites:sites ~per_dc:setup.clients_per_dc;
    next_op = (fun (c : Client.t) -> Workload.Synthetic.next workload ~dc:c.Client.preferred_dc);
    check;
    window_bytes;
    ticks;
  }

let own_events d = 2 + d.ticks.events

let segments d ~t0 ~t_end =
  let t = d.ticks in
  Array.init (t.fired + 1) (fun i ->
      let a = if i = 0 then t0 else t.resumes.(i - 1) in
      let b = if i = t.fired then t_end else t.marks.(i) in
      b - a)

let run ?(wrap_api = Fun.id) ?(wrap_next = Fun.id) d =
  Driver.run d.engine (wrap_api d.api) d.metrics ~clients:d.clients ~next_op:(wrap_next d.next_op)
    ~warmup:d.setup.warmup ~measure:d.setup.measure ~cooldown:d.setup.cooldown

type summary = {
  ops : int;
  throughput : float;
  vis_n : int;
  vis_mean_ms : float;
  vis_p50_ms : float;
  vis_p99_ms : float;
  extra_mean_ms : float;
}

let analyse d (r : Driver.result) =
  let vis = Metrics.visibility d.metrics in
  let pct p = if Stats.Sample.is_empty vis then 0. else Stats.Sample.percentile vis p in
  {
    ops = r.ops_completed;
    throughput = r.throughput;
    vis_n = Stats.Sample.count vis;
    vis_mean_ms = Stats.Sample.mean vis;
    vis_p50_ms = pct 50.;
    vis_p99_ms = pct 99.;
    extra_mean_ms = Stats.Sample.mean (Metrics.extra_visibility d.metrics);
  }

let stuck_ops d = d.check.issued - d.check.completed + (d.check.attaches - d.check.attached)

let diverged_keys d =
  let n = ref 0 in
  for key = 0 to Kvstore.Replica_map.n_keys d.rmap - 1 do
    match Kvstore.Replica_map.replicas d.rmap ~key with
    | [] -> ()
    | first :: rest ->
      let v0 = d.api.store_value ~dc:first ~key in
      if
        List.exists
          (fun dc -> not (Option.equal Kvstore.Value.equal v0 (d.api.store_value ~dc ~key)))
          rest
      then incr n
  done;
  !n
