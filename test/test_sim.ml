(* Unit and property tests for the simulator substrate. *)

let qtest = QCheck_alcotest.to_alcotest

(* ---- Time ---------------------------------------------------------------- *)

let test_time_units () =
  Alcotest.(check int) "ms" 5_000 (Sim.Time.to_us (Sim.Time.of_ms 5));
  Alcotest.(check int) "sec" 1_500_000 (Sim.Time.to_us (Sim.Time.of_sec 1.5));
  Alcotest.(check (float 1e-9)) "to ms" 2.5 (Sim.Time.to_ms_float (Sim.Time.of_us 2_500));
  Alcotest.(check int) "add" 7 (Sim.Time.add 3 4);
  Alcotest.(check int) "sub" 1 (Sim.Time.sub 5 4);
  Alcotest.(check string) "pp us" "12us" (Sim.Time.to_string (Sim.Time.of_us 12));
  Alcotest.(check string) "pp ms" "1.500ms" (Sim.Time.to_string (Sim.Time.of_us 1_500));
  Alcotest.(check string) "pp s" "2.000s" (Sim.Time.to_string (Sim.Time.of_sec 2.))

(* ---- Heap ---------------------------------------------------------------- *)

let test_heap_basic () =
  let h = Sim.Heap.create ~cmp:Int.compare () in
  Alcotest.(check bool) "empty" true (Sim.Heap.is_empty h);
  List.iter (Sim.Heap.push h) [ 5; 1; 4; 1; 3 ];
  Alcotest.(check int) "size" 5 (Sim.Heap.size h);
  Alcotest.(check (option int)) "peek" (Some 1) (Sim.Heap.peek h);
  Alcotest.(check int) "pop 1" 1 (Sim.Heap.pop_exn h);
  Alcotest.(check int) "pop dup" 1 (Sim.Heap.pop_exn h);
  Alcotest.(check int) "pop 3" 3 (Sim.Heap.pop_exn h);
  Sim.Heap.clear h;
  Alcotest.(check (option int)) "cleared" None (Sim.Heap.pop h)

let test_heap_pop_empty () =
  let h = Sim.Heap.create ~cmp:Int.compare () in
  Alcotest.check_raises "pop_exn on empty" (Invalid_argument "Heap.pop_exn: empty heap") (fun () ->
      ignore (Sim.Heap.pop_exn h))

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Sim.Heap.create ~cmp:Int.compare () in
      List.iter (Sim.Heap.push h) xs;
      let rec drain acc = match Sim.Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc) in
      drain [] = List.sort Int.compare xs)

let prop_heap_to_list_preserves =
  QCheck.Test.make ~name:"to_list holds exactly the pushed elements" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let h = Sim.Heap.create ~cmp:Int.compare () in
      List.iter (Sim.Heap.push h) xs;
      List.sort Int.compare (Sim.Heap.to_list h) = List.sort Int.compare xs)

(* ---- Keyed heap ----------------------------------------------------------- *)

let test_keyed_heap_basic () =
  let h = Sim.Heap.Keyed.create ~dummy:"" () in
  Alcotest.(check bool) "empty" true (Sim.Heap.Keyed.is_empty h);
  List.iter
    (fun (k1, k2, x) -> Sim.Heap.Keyed.push h ~k1 ~k2 x)
    [ (5, 0, "e"); (1, 1, "b"); (1, 0, "a"); (3, 0, "c"); (3, 0, "d") ];
  Alcotest.(check int) "size" 5 (Sim.Heap.Keyed.size h);
  Alcotest.(check int) "min_k1" 1 (Sim.Heap.Keyed.min_k1 h);
  Alcotest.(check string) "top" "a" (Sim.Heap.Keyed.top_exn h);
  Alcotest.(check string) "pop a" "a" (Sim.Heap.Keyed.pop_exn h);
  Alcotest.(check int) "popped k1" 1 (Sim.Heap.Keyed.popped_k1 h);
  Alcotest.(check int) "popped k2" 0 (Sim.Heap.Keyed.popped_k2 h);
  Alcotest.(check string) "pop b" "b" (Sim.Heap.Keyed.pop_exn h);
  Sim.Heap.Keyed.clear h;
  Alcotest.(check bool) "cleared" true (Sim.Heap.Keyed.is_empty h)

let test_keyed_heap_empty_raises () =
  let h = Sim.Heap.Keyed.create ~dummy:0 () in
  Alcotest.check_raises "top_exn on empty" (Invalid_argument "Heap.Keyed.top_exn: empty heap")
    (fun () -> ignore (Sim.Heap.Keyed.top_exn h));
  Alcotest.check_raises "pop_exn on empty" (Invalid_argument "Heap.Keyed.pop_exn: empty heap")
    (fun () -> ignore (Sim.Heap.Keyed.pop_exn h));
  Sim.Heap.Keyed.push h ~k1:1 ~k2:1 1;
  ignore (Sim.Heap.Keyed.pop_exn h);
  Alcotest.check_raises "pop_exn once drained" (Invalid_argument "Heap.Keyed.pop_exn: empty heap")
    (fun () -> ignore (Sim.Heap.Keyed.pop_exn h))

let keyed_drain h =
  let rec go acc =
    if Sim.Heap.Keyed.is_empty h then List.rev acc else go (Sim.Heap.Keyed.pop_exn h :: acc)
  in
  go []

let prop_keyed_heap_sorts =
  QCheck.Test.make ~name:"keyed heap drains in (k1, k2) order" ~count:200
    QCheck.(list (pair small_int small_int))
    (fun ks ->
      let h = Sim.Heap.Keyed.create ~dummy:(-1, -1) () in
      List.iter (fun (k1, k2) -> Sim.Heap.Keyed.push h ~k1 ~k2 (k1, k2)) ks;
      keyed_drain h = List.sort compare ks)

(* Random interleavings of push and pop_exn against a sorted-list model,
   from a one-slot heap so growth happens mid-run. Keys come from small
   ranges so k1 ties (and whole-key ties) are common; the payload is the key
   pair, so tied entries are indistinguishable and the model stays exact. *)
let prop_keyed_heap_interleaved =
  let op =
    QCheck.Gen.(
      frequency
        [ (3, map2 (fun k1 k2 -> Some (k1, k2)) (int_bound 20) (int_bound 3)); (2, return None) ])
  in
  let print = function None -> "pop" | Some (k1, k2) -> Printf.sprintf "push(%d,%d)" k1 k2 in
  QCheck.Test.make ~name:"keyed heap matches a sorted list under interleaved push/pop" ~count:300
    (QCheck.make ~print:QCheck.Print.(list print) QCheck.Gen.(list_size (int_bound 400) op))
    (fun ops ->
      let h = Sim.Heap.Keyed.create ~capacity:1 ~dummy:(-1, -1) () in
      let check model =
        if Sim.Heap.Keyed.size h <> List.length model then
          QCheck.Test.fail_reportf "size %d, model %d" (Sim.Heap.Keyed.size h) (List.length model);
        match model with
        | [] -> ()
        | m :: _ ->
          if Sim.Heap.Keyed.top_exn h <> m then QCheck.Test.fail_report "top_exn differs";
          if Sim.Heap.Keyed.min_k1 h <> fst m then QCheck.Test.fail_report "min_k1 differs"
      in
      let step model = function
        | Some ((k1, k2) as k) ->
          Sim.Heap.Keyed.push h ~k1 ~k2 k;
          List.merge compare [ k ] model
        | None -> (
          match model with
          | [] ->
            (match Sim.Heap.Keyed.pop_exn h with
            | _ -> QCheck.Test.fail_report "pop_exn on empty returned"
            | exception Invalid_argument _ -> ());
            []
          | ((k1, k2) as m) :: rest ->
            if Sim.Heap.Keyed.pop_exn h <> m then QCheck.Test.fail_report "pop_exn differs";
            if Sim.Heap.Keyed.popped_k1 h <> k1 || Sim.Heap.Keyed.popped_k2 h <> k2 then
              QCheck.Test.fail_report "popped keys differ";
            rest)
      in
      let model =
        List.fold_left
          (fun model o ->
            let model = step model o in
            check model;
            model)
          [] ops
      in
      keyed_drain h = model)

(* ---- Rng ----------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Sim.Rng.create ~seed:99 and b = Sim.Rng.create ~seed:99 in
  for _ = 1 to 50 do
    Alcotest.(check int) "same stream" (Sim.Rng.int a 1000) (Sim.Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Sim.Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let x = Sim.Rng.int rng 7 in
    if x < 0 || x >= 7 then Alcotest.failf "out of range: %d" x;
    let f = Sim.Rng.float rng 3.5 in
    if f < 0. || f >= 3.5 then Alcotest.failf "float out of range: %f" f
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Sim.Rng.int rng 0))

let prop_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle permutes" ~count:100
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let arr = Array.of_list xs in
      Sim.Rng.shuffle (Sim.Rng.create ~seed) arr;
      List.sort Int.compare (Array.to_list arr) = List.sort Int.compare xs)

let test_rng_exponential_positive () =
  let rng = Sim.Rng.create ~seed:3 in
  let sum = ref 0. in
  for _ = 1 to 1000 do
    let x = Sim.Rng.exponential rng ~mean:10. in
    if x < 0. then Alcotest.fail "negative exponential sample";
    sum := !sum +. x
  done;
  let mean = !sum /. 1000. in
  if mean < 8. || mean > 12. then Alcotest.failf "exponential mean off: %f" mean

(* ---- Engine -------------------------------------------------------------- *)

let test_engine_ordering () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 5) (fun () -> log := 2 :: !log);
  Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 1) (fun () -> log := 1 :: !log);
  Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 9) (fun () -> log := 3 :: !log);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check int) "now at last event" 9_000 (Sim.Engine.now e)

let test_engine_fifo_same_time () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 1) (fun () -> log := i :: !log)
  done;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "fifo at equal timestamps" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_until () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 10) (fun () -> fired := true);
  Sim.Engine.run ~until:(Sim.Time.of_ms 5) e;
  Alcotest.(check bool) "not yet" false !fired;
  Alcotest.(check int) "clock advanced to horizon" 5_000 (Sim.Engine.now e);
  Sim.Engine.run e;
  Alcotest.(check bool) "eventually fires" true !fired

let test_engine_nested_schedule () =
  let e = Sim.Engine.create () in
  let hits = ref 0 in
  Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 1) (fun () ->
      Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 1) (fun () -> incr hits));
  Sim.Engine.run e;
  Alcotest.(check int) "nested event ran" 1 !hits;
  Alcotest.(check int) "two events processed" 2 (Sim.Engine.events_processed e)

let test_engine_periodic_stop () =
  let e = Sim.Engine.create () in
  let n = ref 0 in
  Sim.Engine.periodic e ~every:(Sim.Time.of_ms 2) (fun () -> incr n) ~stop:(fun () -> !n >= 3);
  Sim.Engine.run e;
  Alcotest.(check int) "stopped after 3" 3 !n

let test_engine_negative_delay_clamped () =
  let e = Sim.Engine.create () in
  let fired_at = ref (-1) in
  Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 2) (fun () ->
      Sim.Engine.schedule_at e Sim.Time.zero (fun () -> fired_at := Sim.Engine.now e));
  Sim.Engine.run e;
  Alcotest.(check int) "past-due event runs now" 2_000 !fired_at

(* ---- Clock --------------------------------------------------------------- *)

let test_clock_monotonic () =
  let e = Sim.Engine.create () in
  let c = Sim.Clock.create e in
  let a = Sim.Clock.read c in
  let b = Sim.Clock.read c in
  if Sim.Time.compare b a <= 0 then Alcotest.fail "clock reads must strictly increase"

let test_clock_offset_drift () =
  let e = Sim.Engine.create () in
  let c = Sim.Clock.create ~offset:(Sim.Time.of_ms 3) ~drift_ppm:1000. e in
  Sim.Engine.schedule e ~delay:(Sim.Time.of_sec 1.) (fun () ->
      (* 1s elapsed, +3ms offset, +1ms drift (1000 ppm of 1s) *)
      let v = Sim.Clock.peek c in
      Alcotest.(check int) "offset+drift" 1_004_000 (Sim.Time.to_us v));
  Sim.Engine.run e

(* ---- Link ---------------------------------------------------------------- *)

let test_link_latency () =
  let e = Sim.Engine.create () in
  let l = Sim.Link.create e ~latency:(Sim.Time.of_ms 10) () in
  let arrival = ref (-1) in
  Sim.Link.send l (fun () -> arrival := Sim.Engine.now e);
  Sim.Engine.run e;
  Alcotest.(check int) "latency applied" 10_000 !arrival

let test_link_bandwidth () =
  let e = Sim.Engine.create () in
  let l = Sim.Link.create ~bandwidth_bytes_per_us:1. e ~latency:(Sim.Time.of_ms 1) () in
  let arrival = ref (-1) in
  Sim.Link.send l ~size_bytes:500 (fun () -> arrival := Sim.Engine.now e);
  Sim.Engine.run e;
  Alcotest.(check int) "latency + transmission" 1_500 !arrival

let test_link_cut_drops () =
  let e = Sim.Engine.create () in
  let l = Sim.Link.create e ~latency:(Sim.Time.of_ms 10) () in
  let delivered = ref 0 in
  Sim.Link.send l (fun () -> incr delivered);
  Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 5) (fun () -> Sim.Link.cut l);
  (* in-flight message is lost; messages sent while down are lost too *)
  Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 6) (fun () -> Sim.Link.send l (fun () -> incr delivered));
  Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 7) (fun () -> Sim.Link.restore l);
  Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 8) (fun () -> Sim.Link.send l (fun () -> incr delivered));
  Sim.Engine.run e;
  Alcotest.(check int) "only post-restore delivery" 1 !delivered;
  Alcotest.(check int) "drops counted" 2 (Sim.Link.dropped_count l)

let prop_link_fifo_under_jitter =
  QCheck.Test.make ~name:"link preserves FIFO under jitter" ~count:50
    QCheck.(pair small_int (int_bound 50))
    (fun (seed, n) ->
      let n = n + 2 in
      let e = Sim.Engine.create () in
      let rng = Sim.Rng.create ~seed in
      let l = Sim.Link.create ~jitter_us:5_000 ~rng e ~latency:(Sim.Time.of_ms 2) () in
      let received = ref [] in
      for i = 1 to n do
        Sim.Engine.schedule e ~delay:(Sim.Time.of_us (i * 100)) (fun () ->
            Sim.Link.send l (fun () -> received := i :: !received))
      done;
      Sim.Engine.run e;
      List.rev !received = List.init n (fun i -> i + 1))

(* ---- Link vs. the batch-record reference model -------------------------- *)

module type LINK = sig
  type t

  val create :
    ?jitter_us:int ->
    ?bandwidth_bytes_per_us:float ->
    ?rng:Sim.Rng.t ->
    Sim.Engine.t ->
    latency:Sim.Time.t ->
    unit ->
    t

  val send : t -> ?size_bytes:int -> (unit -> unit) -> unit
  val set_latency : t -> Sim.Time.t -> unit
  val cut : t -> unit
  val restore : t -> unit
  val delivered_count : t -> int
  val dropped_down_count : t -> int
  val dropped_cut_count : t -> int
  val in_flight_count : t -> int
end

(* What a delivery does besides logging itself: nothing, send back through
   the same link (same instant when the latency is 0), or cut the link so
   the rest of its group is dropped. *)
type on_deliver = Quiet | Echo | Cut_link

type link_action =
  | Send of { size : int; burst : int; on_deliver : on_deliver }
  | Set_latency of int
  | Cut
  | Restore

type link_script = { seed : int; jitter_us : int; bandwidth : float; steps : (int * link_action) list }

let print_link_script s =
  let action = function
    | Send { size; burst; on_deliver } ->
      Printf.sprintf "send(size=%d,x%d,%s)" size burst
        (match on_deliver with Quiet -> "quiet" | Echo -> "echo" | Cut_link -> "cut")
    | Set_latency us -> Printf.sprintf "latency=%dus" us
    | Cut -> "cut"
    | Restore -> "restore"
  in
  Printf.sprintf "seed=%d jitter=%dus bw=%.1fB/us [%s]" s.seed s.jitter_us s.bandwidth
    (String.concat "; " (List.map (fun (at, a) -> Printf.sprintf "%dus:%s" at (action a)) s.steps))

let gen_link_script =
  QCheck.Gen.(
    let at = map (fun k -> k * 250) (int_bound 40) in
    let on_deliver = frequency [ (6, return Quiet); (3, return Echo); (1, return Cut_link) ] in
    let send =
      map3
        (fun size burst on_deliver -> Send { size; burst = burst + 1; on_deliver })
        (oneofl [ 0; 0; 100; 500; 2_000 ])
        (int_bound 3) on_deliver
    in
    let action =
      frequency
        [
          (8, send);
          (2, map (fun us -> Set_latency us) (oneofl [ 0; 0; 250; 1_000; 3_000 ]));
          (1, return Cut);
          (1, return Restore);
        ]
    in
    map4
      (fun seed jitter_us bandwidth steps -> { seed; jitter_us; bandwidth; steps })
      small_nat (oneofl [ 0; 0; 700 ]) (oneofl [ 0.; 0.5; 4. ])
      (list_size (int_bound 40) (pair at action)))

(* Runs [s] against one link implementation, under a keeping probe. The
   log records every delivery (with the in-flight count it observed) and
   every script step; the probe adds every send, deliver and drop with its
   instant and every engine step with its scheduling sequence. *)
let run_link_script (module L : LINK) s =
  let e = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed:s.seed in
  let l =
    L.create ~jitter_us:s.jitter_us ~bandwidth_bytes_per_us:s.bandwidth ~rng e
      ~latency:(Sim.Time.of_us 1_000) ()
  in
  let log = Buffer.create 256 in
  let now () = Sim.Time.to_us (Sim.Engine.now e) in
  List.iteri
    (fun i (at, action) ->
      Sim.Engine.schedule_at e (Sim.Time.of_us at) (fun () ->
          match action with
          | Send { size; burst; on_deliver } ->
            for j = 1 to burst do
              L.send l ~size_bytes:size (fun () ->
                  Printf.bprintf log "d%d.%d@%d/%d " i j (now ()) (L.in_flight_count l);
                  match on_deliver with
                  | Quiet -> ()
                  | Echo -> L.send l (fun () -> Printf.bprintf log "e%d.%d@%d " i j (now ()))
                  | Cut_link -> L.cut l)
            done
          | Set_latency us -> L.set_latency l (Sim.Time.of_us us)
          | Cut -> L.cut l
          | Restore -> L.restore l))
    s.steps;
  let probe = Sim.Probe.create () in
  Sim.Probe.with_probe probe (fun () -> Sim.Engine.run e);
  ( Buffer.contents log,
    ( L.delivered_count l,
      L.dropped_down_count l,
      L.dropped_cut_count l,
      L.in_flight_count l,
      Sim.Engine.events_processed e ),
    List.map (fun (at, ev) -> Sim.Probe.to_json at ev) (Sim.Probe.events probe) )

let prop_link_matches_reference =
  QCheck.Test.make ~name:"link ring matches the batch-record reference model" ~count:300
    (QCheck.make ~print:print_link_script gen_link_script)
    (fun s ->
      let log, counts, events = run_link_script (module Sim.Link) s in
      let rlog, rcounts, revents = run_link_script (module Link_ref) s in
      let d, dd, dc, fl, ev = counts and rd, rdd, rdc, rfl, rev = rcounts in
      if log <> rlog then QCheck.Test.fail_reportf "delivery log:\n%s\nreference:\n%s" log rlog;
      if counts <> rcounts then
        QCheck.Test.fail_reportf
          "delivered/dropped_down/dropped_cut/in_flight/events %d/%d/%d/%d/%d, reference \
           %d/%d/%d/%d/%d"
          d dd dc fl ev rd rdd rdc rfl rev;
      if events <> revents then QCheck.Test.fail_report "probe event streams differ";
      true)

(* ---- Server -------------------------------------------------------------- *)

let test_server_serializes () =
  let e = Sim.Engine.create () in
  let s = Sim.Server.create e in
  let finish = ref [] in
  Sim.Server.submit s ~cost:(Sim.Time.of_ms 2) (fun () -> finish := (1, Sim.Engine.now e) :: !finish);
  Sim.Server.submit s ~cost:(Sim.Time.of_ms 3) (fun () -> finish := (2, Sim.Engine.now e) :: !finish);
  Sim.Engine.run e;
  (match List.rev !finish with
  | [ (1, t1); (2, t2) ] ->
    Alcotest.(check int) "first at 2ms" 2_000 t1;
    Alcotest.(check int) "second queued behind" 5_000 t2
  | _ -> Alcotest.fail "completion order wrong");
  Alcotest.(check int) "busy time" 5_000 (Sim.Time.to_us (Sim.Server.busy_time s));
  Alcotest.(check int) "completed" 2 (Sim.Server.completed s)

let test_server_idle_gap () =
  let e = Sim.Engine.create () in
  let s = Sim.Server.create e in
  let at = ref 0 in
  Sim.Server.submit s ~cost:(Sim.Time.of_ms 1) (fun () -> ());
  Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 10) (fun () ->
      Sim.Server.submit s ~cost:(Sim.Time.of_ms 1) (fun () -> at := Sim.Engine.now e));
  Sim.Engine.run e;
  Alcotest.(check int) "no phantom queueing after idle" 11_000 !at

(* ---- Topology / EC2 ------------------------------------------------------ *)

let test_topology_validation () =
  let names = [| "a"; "b" |] in
  Alcotest.check_raises "asymmetric" (Invalid_argument "Topology.create: asymmetric matrix")
    (fun () -> ignore (Sim.Topology.create ~names ~latency_ms:[| [| 0; 1 |]; [| 2; 0 |] |]));
  Alcotest.check_raises "diagonal" (Invalid_argument "Topology.create: non-zero diagonal")
    (fun () -> ignore (Sim.Topology.create ~names ~latency_ms:[| [| 1; 1 |]; [| 1; 0 |] |]))

let test_ec2_matrix () =
  let t = Sim.Ec2.topology in
  Alcotest.(check int) "seven regions" 7 (Sim.Topology.n_sites t);
  Alcotest.(check int) "I-F 10ms" 10_000 (Sim.Time.to_us (Sim.Topology.latency t Sim.Ec2.i Sim.Ec2.f));
  Alcotest.(check int) "F-S 161ms" 161_000 (Sim.Time.to_us (Sim.Topology.latency t Sim.Ec2.f Sim.Ec2.s));
  Alcotest.(check string) "name" "T" (Sim.Topology.name t Sim.Ec2.t);
  Alcotest.(check int) "lookup" Sim.Ec2.o (Sim.Topology.site_of_name t "O");
  (* symmetry of the whole table *)
  for i = 0 to 6 do
    for j = 0 to 6 do
      Alcotest.(check int) "symmetric"
        (Sim.Time.to_us (Sim.Topology.latency t i j))
        (Sim.Time.to_us (Sim.Topology.latency t j i))
    done
  done

let test_topology_sub () =
  let sub, mapping = Sim.Topology.sub Sim.Ec2.topology [ Sim.Ec2.i; Sim.Ec2.s ] in
  Alcotest.(check int) "two sites" 2 (Sim.Topology.n_sites sub);
  Alcotest.(check int) "latency preserved" 154_000 (Sim.Time.to_us (Sim.Topology.latency sub 0 1));
  Alcotest.(check (array int)) "mapping" [| Sim.Ec2.i; Sim.Ec2.s |] mapping

let suite =
  [
    Alcotest.test_case "time units and printing" `Quick test_time_units;
    Alcotest.test_case "heap basics" `Quick test_heap_basic;
    Alcotest.test_case "heap pop on empty" `Quick test_heap_pop_empty;
    qtest prop_heap_sorts;
    qtest prop_heap_to_list_preserves;
    Alcotest.test_case "keyed heap basics" `Quick test_keyed_heap_basic;
    Alcotest.test_case "keyed heap raises when empty" `Quick test_keyed_heap_empty_raises;
    qtest prop_keyed_heap_sorts;
    qtest prop_keyed_heap_interleaved;
    Alcotest.test_case "rng determinism" `Quick test_rng_deterministic;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    qtest prop_shuffle_is_permutation;
    Alcotest.test_case "rng exponential" `Quick test_rng_exponential_positive;
    Alcotest.test_case "engine time ordering" `Quick test_engine_ordering;
    Alcotest.test_case "engine FIFO at equal times" `Quick test_engine_fifo_same_time;
    Alcotest.test_case "engine run ~until" `Quick test_engine_until;
    Alcotest.test_case "engine nested scheduling" `Quick test_engine_nested_schedule;
    Alcotest.test_case "engine periodic with stop" `Quick test_engine_periodic_stop;
    Alcotest.test_case "engine clamps past-due events" `Quick test_engine_negative_delay_clamped;
    Alcotest.test_case "clock monotonic reads" `Quick test_clock_monotonic;
    Alcotest.test_case "clock offset and drift" `Quick test_clock_offset_drift;
    Alcotest.test_case "link latency" `Quick test_link_latency;
    Alcotest.test_case "link bandwidth term" `Quick test_link_bandwidth;
    Alcotest.test_case "link cut drops traffic" `Quick test_link_cut_drops;
    qtest prop_link_fifo_under_jitter;
    qtest prop_link_matches_reference;
    Alcotest.test_case "server serializes work" `Quick test_server_serializes;
    Alcotest.test_case "server no phantom queueing" `Quick test_server_idle_gap;
    Alcotest.test_case "topology validation" `Quick test_topology_validation;
    Alcotest.test_case "EC2 Table 1 data" `Quick test_ec2_matrix;
    Alcotest.test_case "topology sub-selection" `Quick test_topology_sub;
  ]
