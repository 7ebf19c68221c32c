(* The repo benchmark: the paper's default 7-datacenter EC2 deployment
   (Table 1), 40 closed-loop clients per DC, run for each of the six systems
   of [Scenario.all_systems] back to back, from one single-threaded process.

     bench.exe --workload ec2-r90|ec2-w50 [--seed N] [--seconds S] [--trace 0|1]

   A pass sets up all six deployments, then runs them one after another.
   The untraced run (--trace 0) makes about S host seconds of passes on an
   idle host and prints the end-to-end metrics: simulator speed and the
   simulated Saturn numbers, which are exact for a seed and which every
   pass must reproduce. The traced run (--trace 1) makes one untraced
   reference pass and one traced pass, under a count-only probe, and prints
   the per-layer metrics.
   The last line of stdout is one JSON object; NOTES.md maps the metrics to
   the layers. Exit 1 when the correctness check fails. *)

open Harness
module W = Perfbench.Wiring

let now_ns = W.now_ns
let secs a b = float_of_int (b - a) /. 1e9

(* ---- workloads ---------------------------------------------------------- *)

type workload = {
  name : string;
  read_ratio : float;
  pass_s : float;  (** host seconds per pass on an idle 2-core VM *)
}

(* ec2-r90: the paper's default 90:10 point, the reference paper run (read
   path: store, driver, engine heap). ec2-w50: the write-heavy end of
   Fig. 5b, ~5x the updates through Saturn's metadata path and the
   baselines' stabilization. *)
let workloads =
  [
    { name = "ec2-r90"; read_ratio = 0.9; pass_s = 6. };
    { name = "ec2-w50"; read_ratio = 0.5; pass_s = 10. };
  ]

(* ---- traced run: host-clock spans around the calls into each layer ---- *)

module Spans = struct
  let read = 0
  and update = 1
  and attach = 2
  and next = 3

  type t = {
    mutable start : int array;
    mutable child : int array;
    mutable depth : int;
    self_ns : Stats.Hdr.t array;  (** duration minus nested child spans *)
    sim_us : Stats.Hdr.t array;  (** simulated call -> continuation *)
    calls : int array;
  }

  let create () =
    let hdrs () = Array.init 4 (fun _ -> Stats.Hdr.create ()) in
    {
      start = Array.make 64 0;
      child = Array.make 64 0;
      depth = 0;
      self_ns = hdrs ();
      sim_us = hdrs ();
      calls = Array.make 4 0;
    }

  (* continuations run inline, so spans nest: a span's self time excludes
     the spans opened inside it *)
  let enter t =
    t.depth <- t.depth + 1;
    if t.depth >= Array.length t.start then begin
      let grow a = Array.append a (Array.make (Array.length a) 0) in
      t.start <- grow t.start;
      t.child <- grow t.child
    end;
    t.child.(t.depth) <- 0;
    t.start.(t.depth) <- now_ns ()

  let leave t layer =
    let d = t.depth in
    let dur = now_ns () - t.start.(d) in
    Stats.Hdr.add t.self_ns.(layer) (dur - t.child.(d));
    t.calls.(layer) <- t.calls.(layer) + 1;
    t.depth <- d - 1;
    if d > 1 then t.child.(d - 1) <- t.child.(d - 1) + dur

  let wrap_api t engine (api : Api.t) =
    let sim_now () = Sim.Time.to_us (Sim.Engine.now engine) in
    {
      api with
      Api.read =
        (fun c ~key ~k ->
          let t0 = sim_now () in
          enter t;
          api.read c ~key ~k:(fun v ->
              Stats.Hdr.add t.sim_us.(read) (sim_now () - t0);
              k v);
          leave t read);
      update =
        (fun c ~key ~value ~k ->
          let t0 = sim_now () in
          enter t;
          api.update c ~key ~value ~k:(fun () ->
              Stats.Hdr.add t.sim_us.(update) (sim_now () - t0);
              k ());
          leave t update);
      attach =
        (fun c ~dc ~k ->
          enter t;
          api.attach c ~dc ~k;
          leave t attach);
    }

  let wrap_next t f c =
    enter t;
    let op = f c in
    leave t next;
    op
end

(* ---- one pass ------------------------------------------------------------ *)

type gc = { minor : float; major : float; promoted : float; minor_gcs : int; major_gcs : int }

let gc_now () =
  let q = Gc.quick_stat () in
  {
    minor = Gc.minor_words ();
    major = q.major_words;
    promoted = q.promoted_words;
    minor_gcs = q.minor_collections;
    major_gcs = q.major_collections;
  }

(* ---- host speed ---------------------------------------------------------- *)

(* A shared host runs the same work at speeds that differ by up to 2x, in
   spells of seconds to minutes. The benchmark times a fixed reference
   slice ({!W.time_ref_slices}) at every tick, so in step with the work it
   measures, and reports host seconds rescaled to a host on which one slice
   takes its nominal time: [speed] is the nominal time over the slice's mean
   time, and a measured time times [speed] is in reference seconds. A change
   to the program leaves the slice's time alone, so it still shows in full.
   The nominal times are the slice's typical times on a 2-core Xeon VM, so
   reference seconds come out close to host seconds there. *)
let speed ~nominal_ns ~slices ~ns = nominal_ns *. float_of_int slices /. float_of_int ns

(* between two ticks the program has evicted the slice's array from the
   caches; back to back, as around a set-up, the slices run faster *)
let tick_slice_ns = 300_000.
let setup_slice_ns = 210_000.

(* set-up has no ticks: it is bracketed by this many slices on each side *)
let setup_slices = 32

type setup_times = {
  total_s : float;
  rmap_s : float;
  solve_s : float;
  build_s : float;
  setup_speed : float;
}

let set_up setup =
  let before = W.time_ref_slices setup_slices in
  let t0 = now_ns () in
  let rmap = W.replica_map setup in
  let t1 = now_ns () in
  let config = W.solve setup rmap in
  let t2 = now_ns () in
  let ds =
    Array.of_list (List.map (fun s -> Some (W.build setup rmap config s)) Scenario.all_systems)
  in
  let t3 = now_ns () in
  let after = W.time_ref_slices setup_slices in
  let v = speed ~nominal_ns:setup_slice_ns ~slices:(2 * setup_slices) ~ns:(before + after) in
  ( ds,
    {
      total_s = v *. secs t0 t3;
      rmap_s = v *. secs t0 t1;
      solve_s = v *. secs t1 t2;
      build_s = v *. secs t2 t3;
      setup_speed = v;
    } )

type sys_run = {
  name : string;
  sum : W.summary;
  wall_s : float;  (** run + post-run analysis, host s, the reference slices left out *)
  run_speed : float;  (** host speed over the run, see {!speed} *)
  analysis_s : float;
  segments : int array;  (** host ns per tick window, see {!W.segments} *)
  pending_peak : int;
  words : float;
  minor_words : float;
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
  events : int;  (** the program's: the benchmark's own ticks and window reads excluded *)
  issued : int;
  completed : int;
  stuck : int;
  bad_reads : int;
  diverged : int;
  window_bytes : int array;
  counters : (string * int) list;  (** the deployment's registry counters *)
  probe : Sim.Probe.t option;
  spans : Spans.t option;
}

type pass = { times : setup_times; runs : sys_run list }

let run_system ~traced (d : W.deployment) =
  let probe = if traced then Some (Sim.Probe.create ~keep:false ()) else None in
  let spans = if traced then Some (Spans.create ()) else None in
  let wrap_api = Option.map (fun t -> Spans.wrap_api t d.engine) spans
  and wrap_next = Option.map Spans.wrap_next spans in
  let g0 = gc_now () in
  let t0 = now_ns () in
  let go () =
    let r = W.run ?wrap_api ?wrap_next d in
    let t1 = now_ns () in
    (W.analyse d r, t1)
  in
  let sum, t1 = match probe with Some p -> Sim.Probe.with_probe p go | None -> go () in
  let t2 = now_ns () in
  let g1 = gc_now () in
  {
    name = d.name;
    sum;
    wall_s = secs t0 t2 -. (float_of_int d.ticks.ref_ns /. 1e9);
    run_speed = speed ~nominal_ns:tick_slice_ns ~slices:d.ticks.fired ~ns:d.ticks.ref_ns;
    analysis_s = secs t1 t2;
    segments = W.segments d ~t0 ~t_end:t2;
    pending_peak = d.ticks.pending_peak;
    words = g1.minor -. g0.minor +. (g1.major -. g0.major) -. (g1.promoted -. g0.promoted);
    minor_words = g1.minor -. g0.minor;
    promoted_words = g1.promoted -. g0.promoted;
    minor_gcs = g1.minor_gcs - g0.minor_gcs;
    major_gcs = g1.major_gcs - g0.major_gcs;
    events = Sim.Engine.events_processed d.engine - W.own_events d;
    issued = d.check.issued;
    completed = d.check.completed;
    stuck = W.stuck_ops d;
    bad_reads = d.check.bad_reads;
    diverged = W.diverged_keys d;
    window_bytes = d.window_bytes;
    counters =
      List.filter_map
        (function name, Stats.Registry.Counter n -> Some (name, n) | _ -> None)
        (Stats.Registry.snapshot d.registry);
    probe;
    spans;
  }

let run_pass ~traced setup =
  Gc.compact ();
  (* each deployment leaves [ds] when it runs, so the heap holds one at a time *)
  let ds, times = set_up setup in
  let runs =
    List.init (Array.length ds) (fun i ->
        let d = Option.get ds.(i) in
        ds.(i) <- None;
        run_system ~traced d)
  in
  { times; runs }

(* ---- aggregates ---------------------------------------------------------- *)

let sum_int f runs = List.fold_left (fun a r -> a + f r) 0 runs
let sum_float f runs = List.fold_left (fun a r -> a +. f r) 0. runs
let completed p = sum_int (fun r -> r.completed) p.runs
let run_s p = sum_float (fun r -> r.wall_s) p.runs
let find p name = List.find (fun r -> r.name = name) p.runs
let per_op x p = x /. float_of_int (completed p)
let failed p = sum_int (fun r -> r.stuck + r.bad_reads + r.diverged) p.runs
let window_bytes r = Array.fold_left ( + ) 0 r.window_bytes
let bytes_per_op r i = float_of_int r.window_bytes.(i) /. float_of_int r.sum.ops

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ref_s r = r.wall_s *. r.run_speed

(* each system's run in reference seconds, the median over the passes *)
let median_ref_s passes =
  List.fold_left
    (fun acc r -> acc +. median (List.map (fun q -> ref_s (find q r.name)) passes))
    0. (List.hd passes).runs

(* everything a pass computes that must not depend on host timing *)
let fingerprint p =
  List.map
    (fun r ->
      ( (r.name, r.sum, r.events, Array.length r.segments, r.pending_peak),
        (r.issued, r.completed, r.stuck, r.bad_reads, r.diverged, Array.to_list r.window_bytes) ))
    p.runs

let assoc_count kind l = Option.value ~default:0 (List.assoc_opt kind l)

let probe_count r kind =
  Option.fold ~none:0 ~some:(fun p -> assoc_count kind (Sim.Probe.counts_by_kind p)) r.probe

let probe_total r = Option.fold ~none:0 ~some:Sim.Probe.count r.probe

let span_us r kind =
  Option.fold ~none:0 ~some:(fun p -> assoc_count kind (Sim.Probe.span_totals_us p)) r.probe

let span_n r kind =
  Option.fold ~none:0 ~some:(fun p -> assoc_count kind (Sim.Probe.span_counts p)) r.probe

let merged_spans p f =
  List.fold_left
    (fun acc r -> match r.spans with Some s -> Stats.Hdr.merge acc (f s) | None -> acc)
    (Stats.Hdr.create ()) p.runs

let pct h p = if Stats.Hdr.count h = 0 then 0. else Stats.Hdr.percentile h p

(* ---- report -------------------------------------------------------------- *)

let print_pass label p =
  Printf.printf "%s: setup %.3f ref s (rmap %.3f, solve %.3f, build %.3f), host speed %.3f\n"
    label p.times.total_s p.times.rmap_s p.times.solve_s p.times.build_s p.times.setup_speed;
  Printf.printf "  %-10s %7s %6s %9s %8s %8s %8s %8s %7s %7s %7s %5s %3s %8s\n" "system" "wall_s"
    "speed" "events" "win_ops" "tput/s" "vis_p50" "vis_p99" "vis_n" "extra" "B/op" "stuck" "bad"
    "diverged";
  List.iter
    (fun r ->
      Printf.printf "  %-10s %7.3f %6.3f %9d %8d %8.0f %8.2f %8.2f %7d %7.2f %7.3f %5d %3d %8d\n"
        r.name r.wall_s r.run_speed r.events r.sum.ops r.sum.throughput r.sum.vis_p50_ms
        r.sum.vis_p99_ms r.sum.vis_n r.sum.extra_mean_ms
        (float_of_int (window_bytes r) /. float_of_int r.sum.ops)
        r.stuck r.bad_reads r.diverged)
    p.runs;
  let ref_run_s = sum_float ref_s p.runs in
  Printf.printf
    "  ops completed %d in %.3f host s, %.3f ref s (%.0f ops per ref s), %.0f words allocated\n%!"
    (completed p) (run_s p) ref_run_s
    (float_of_int (completed p) /. ref_run_s)
    (sum_float (fun r -> r.words) p.runs)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let emit ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (json_number v) unit)
         metrics)
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    attempted failed body;
  print_newline ()

(* ---- metrics ------------------------------------------------------------- *)

let end_to_end passes ~setup_s =
  let p = List.hd passes in
  let sat = find p "saturn" in
  Printf.printf "saturn visibility samples in window: %d\n" sat.sum.vis_n;
  [
    ("ops_per_s", float_of_int (completed p) /. median_ref_s passes, "1/s");
    ("setup_s", setup_s, "s");
    ("alloc_words_per_op", per_op (sum_float (fun r -> r.words) p.runs) p, "words/op");
    ( "peak_heap_mb",
      float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.,
      "MB" );
    ( "fail_ratio",
      float_of_int (failed p) /. float_of_int (sum_int (fun r -> r.issued) p.runs),
      "ratio" );
    ("saturn.vis_p50_ms", sat.sum.vis_p50_ms, "ms");
    ("saturn.vis_p99_ms", sat.sum.vis_p99_ms, "ms");
    ("saturn.extra_vis_ms", sat.sum.extra_mean_ms, "ms");
    ("saturn.tput_ops_s", sat.sum.throughput, "1/s");
    ( "saturn.meta_bytes_per_op",
      float_of_int (window_bytes sat) /. float_of_int sat.sum.ops,
      "B/op" );
  ]

let baselines = [ "eventual"; "gentlerain"; "eunomia"; "okapi"; "cure" ]

(* [p]: the untraced reference pass; [tr]: the traced pass, under a
   count-only probe. Traced-minus-reference words are the probe's, plus the
   few the spans allocate. *)
let per_layer ~med ~p ~tr =
  let ops = float_of_int (completed p) in
  let events = float_of_int (sum_int (fun r -> r.events) p.runs) in
  let traced_sum f = float_of_int (sum_int f tr.runs) in
  let probe_events = traced_sum probe_total in
  let sat = find p "saturn" and sat_tr = find tr "saturn" in
  let sat_counter prefix suffix =
    List.fold_left
      (fun acc (name, n) ->
        if String.starts_with ~prefix name && String.ends_with ~suffix name then acc + n else acc)
      0 sat.counters
    |> float_of_int
  in
  let labels = sat_counter "service." ".labels_input" in
  let per_label_ms kinds =
    float_of_int (List.fold_left (fun a k -> a + span_us sat_tr k) 0 kinds) /. labels /. 1000.
  in
  let driver layer i =
    let self = merged_spans tr (fun s -> s.self_ns.(i)) in
    [
      ( Printf.sprintf "driver.%s.calls" layer,
        traced_sum (fun r -> match r.spans with Some s -> s.calls.(i) | None -> 0),
        "count" );
      (Printf.sprintf "driver.%s.self_us_p50" layer, pct self 50. /. 1000., "us");
      (Printf.sprintf "driver.%s.self_us_p99" layer, pct self 99. /. 1000., "us");
    ]
  in
  let sim_wait layer i =
    let sim = merged_spans tr (fun s -> s.sim_us.(i)) in
    [
      (Printf.sprintf "driver.%s.sim_ms_p50" layer, pct sim 50. /. 1000., "ms");
      (Printf.sprintf "driver.%s.sim_ms_p99" layer, pct sim 99. /. 1000., "ms");
    ]
  in
  let windows = Stats.Hdr.create () in
  List.iter
    (fun r ->
      (* tick-to-tick windows only: the first and last segments are partial *)
      Array.iteri
        (fun i ns ->
          if i > 0 && i < Array.length r.segments - 1 then Stats.Hdr.add windows (ns / 1000))
        r.segments)
    p.runs;
  let base_tr = List.map (find tr) baselines in
  let stab_n = sum_int (fun r -> span_n r "stab") base_tr in
  List.concat
    [
      [
        ("setup.rmap_s", med (fun t -> t.rmap_s), "s");
        ("setup.solve_s", med (fun t -> t.solve_s), "s");
        ("setup.build_s", med (fun t -> t.build_s), "s");
        ("engine.events", events, "count");
        ("engine.events_per_op", events /. ops, "events/op");
        ("engine.events_per_s", events /. run_s p, "1/s");
        ( "engine.pending_peak",
          float_of_int (List.fold_left (fun a r -> max a r.pending_peak) 0 p.runs),
          "count" );
        ("engine.host_ms_per_window_p99", pct windows 99. /. 1000., "ms");
      ];
      driver "read" Spans.read;
      driver "update" Spans.update;
      driver "attach" Spans.attach;
      sim_wait "read" Spans.read;
      sim_wait "update" Spans.update;
      [
        ( "workload.next_ns",
          Stats.Hdr.mean (merged_spans tr (fun s -> s.self_ns.(Spans.next))),
          "ns" );
        ("link.sends_per_op", traced_sum (fun r -> probe_count r "link_send") /. ops, "msgs/op");
        ( "link.delivers_per_op",
          traced_sum (fun r -> probe_count r "link_deliver") /. ops,
          "msgs/op" );
        ("saturn.wall_s", sat.wall_s, "s");
        ("saturn.wall_vs_eventual", sat.wall_s /. (find p "eventual").wall_s, "x");
        ("saturn.labels_input", labels, "count");
        ("saturn.labels_delivered", sat_counter "service." ".labels_delivered", "count");
        ( "saturn.hops_per_label",
          float_of_int (probe_count sat_tr "serializer_hop") /. labels,
          "hops" );
        ("saturn.chain_acks", float_of_int (probe_count sat_tr "chain_ack"), "count");
        ("saturn.sink_emitted", sat_counter "sink.dc" ".emitted", "count");
        ("saturn.proxy_applied", sat_counter "proxy.dc" ".applied_updates", "count");
        ("saturn.proxy_fallbacks", sat_counter "proxy.dc" ".fallback_activations", "count");
        ("saturn.sink_hold_ms", per_label_ms [ "sink_hold" ], "ms");
        ("saturn.delay_ms", per_label_ms [ "delay_hop"; "delay_egress" ], "ms");
        ("saturn.hop_ms", per_label_ms [ "hop" ], "ms");
        ("saturn.proxy_order_ms", per_label_ms [ "proxy_order" ], "ms");
        ("saturn.meta_bytes.attached_per_op", bytes_per_op sat 0, "B/op");
        ("saturn.meta_bytes.heartbeat_per_op", bytes_per_op sat 2, "B/op");
      ];
      List.concat_map
        (fun name ->
          let r = find p name in
          [
            (name ^ ".wall_s", r.wall_s, "s");
            (name ^ ".tput_ops_s", r.sum.throughput, "1/s");
            (name ^ ".vis_p99_ms", r.sum.vis_p99_ms, "ms");
            (name ^ ".extra_vis_ms", r.sum.extra_mean_ms, "ms");
            ( name ^ ".meta_bytes_per_op",
              float_of_int (window_bytes r) /. float_of_int r.sum.ops,
              "B/op" );
          ])
        baselines;
      [
        ( "baselines.stab_rounds",
          float_of_int (sum_int (fun r -> probe_count r "stab_round") base_tr),
          "count" );
        ( "baselines.vec_advances",
          float_of_int (sum_int (fun r -> probe_count r "vec_advance") base_tr),
          "count" );
        ( "baselines.stab_wait_ms",
          (if stab_n = 0 then 0.
           else
             float_of_int (sum_int (fun r -> span_us r "stab") base_tr)
             /. float_of_int stab_n /. 1000.),
          "ms" );
        ("metrics.analysis_s", sum_float (fun r -> r.analysis_s) p.runs, "s");
        ("probe.events_per_op", probe_events /. ops, "events/op");
        ( "probe.engine_step_share",
          traced_sum (fun r -> probe_count r "engine_step") /. probe_events,
          "ratio" );
        ( "probe.words_per_event",
          (sum_float (fun r -> r.words) tr.runs -. sum_float (fun r -> r.words) p.runs)
          /. probe_events,
          "words" );
        ("gc.minor_collections", float_of_int (sum_int (fun r -> r.minor_gcs) p.runs), "count");
        ("gc.major_collections", float_of_int (sum_int (fun r -> r.major_gcs) p.runs), "count");
        ("gc.minor_words_per_op", per_op (sum_float (fun r -> r.minor_words) p.runs) p, "words/op");
        ( "gc.promoted_words_per_op",
          per_op (sum_float (fun r -> r.promoted_words) p.runs) p,
          "words/op" );
        ("check.stuck_ops", float_of_int (sum_int (fun r -> r.stuck) p.runs), "count");
        ("check.bad_reads", float_of_int (sum_int (fun r -> r.bad_reads) p.runs), "count");
      ];
      List.map
        (fun r -> ("check.diverged_keys." ^ r.name, float_of_int r.diverged, "count"))
        p.runs;
      [ ("trace.overhead_x", run_s tr /. run_s p, "x") ];
    ]

(* ---- main ---------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload ec2-r90|ec2-w50 [--seed N] [--seconds S] [--trace 0|1]";
  exit 2

(* set-up is short and noisy: it is sampled this many times besides the
   passes' own, and reported as the median *)
let extra_setups = 4

let () =
  let workload = ref "" and seed = ref Scenario.default_setup.seed in
  let seconds = ref 10. and trace = ref false in
  let rec parse = function
    | "--workload" :: v :: rest ->
      workload := v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string v;
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string v;
      parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := v = "1";
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let w =
    match List.find_opt (fun (w : workload) -> w.name = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  let setup = W.setup ~read_ratio:w.read_ratio ~seed:!seed in
  Printf.printf "workload %s  seed %d  read ratio %.2f  trace %b\n%!" w.name !seed w.read_ratio
    !trace;
  let setups =
    List.init extra_setups (fun _ ->
        Gc.compact ();
        snd (set_up setup))
  in
  (* the pass count follows from --seconds and the workload's nominal pass
     time, not from how fast this host happens to be: a slow spell must not
     also cost the speed estimate its passes *)
  let n_passes = if !trace then 1 else max 1 (Float.to_int (Float.round (!seconds /. w.pass_s))) in
  let passes = List.init n_passes (fun _ -> run_pass ~traced:false setup) in
  List.iteri (fun i p -> print_pass (Printf.sprintf "pass %d" (i + 1)) p) passes;
  let p = List.hd passes in
  let all_times = setups @ List.map (fun p -> p.times) passes in
  let med f = median (List.map f all_times) in
  let repeat_ok = List.for_all (fun q -> fingerprint q = fingerprint p) passes in
  if not repeat_ok then print_endline "CHECK FAILED: passes disagree on simulated results";
  let stuck = sum_int (fun r -> r.stuck) p.runs and bad = sum_int (fun r -> r.bad_reads) p.runs in
  Printf.printf "check: stuck ops %d, bad reads %d, diverged keys %s\n" stuck bad
    (String.concat " " (List.map (fun r -> Printf.sprintf "%s=%d" r.name r.diverged) p.runs));
  let metrics =
    if not !trace then end_to_end passes ~setup_s:(med (fun t -> t.total_s))
    else begin
      let tr = run_pass ~traced:true setup in
      print_pass "traced pass" tr;
      per_layer ~med ~p ~tr
    end
  in
  let correct = repeat_ok && stuck = 0 && bad = 0 in
  emit ~correct ~attempted:(sum_int (fun r -> r.issued) p.runs) ~failed:(failed p) metrics;
  if not correct then exit 1
