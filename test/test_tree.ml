(* Tests for the serializer tree, configurations, the mismatch objective and
   the configuration generator/solver. *)

let qtest = QCheck_alcotest.to_alcotest

(* a chain of 3 serializers with 4 DCs:
   dc0,dc1 -> s0 ; dc2 -> s1 ; dc3 -> s2 ; edges s0-s1-s2 *)
let chain_tree () =
  Saturn.Tree.create ~n_serializers:3 ~edges:[ (0, 1); (1, 2) ] ~attach:[| 0; 0; 1; 2 |]

let test_tree_validation () =
  Alcotest.check_raises "edge count" (Invalid_argument "Tree.create: a tree over n nodes has n-1 edges")
    (fun () -> ignore (Saturn.Tree.create ~n_serializers:3 ~edges:[ (0, 1) ] ~attach:[| 0 |]));
  Alcotest.check_raises "disconnected" (Invalid_argument "Tree.create: disconnected") (fun () ->
      ignore (Saturn.Tree.create ~n_serializers:4 ~edges:[ (0, 1); (2, 3); (0, 1) ] ~attach:[| 0 |]));
  Alcotest.check_raises "self edge" (Invalid_argument "Tree.create: invalid edge") (fun () ->
      ignore (Saturn.Tree.create ~n_serializers:2 ~edges:[ (1, 1) ] ~attach:[| 0 |]))

(* datacenters whose route from serializer [from] leaves through [via] *)
let behind t ~from ~via =
  List.filter (fun dc -> Saturn.Tree.hop_toward t ~at:from ~dc = via) (List.init (Saturn.Tree.n_dcs t) Fun.id)

let test_tree_routing () =
  let t = chain_tree () in
  Alcotest.(check int) "next hop 0->2" 1 (Saturn.Tree.next_hop t ~src:0 ~dst:2);
  Alcotest.(check (list int)) "path dc0->dc3" [ 0; 1; 2 ] (Saturn.Tree.serializer_path t ~src_dc:0 ~dst_dc:3);
  Alcotest.(check (list int)) "path within serializer" [ 0 ] (Saturn.Tree.serializer_path t ~src_dc:0 ~dst_dc:1);
  Alcotest.(check (list int)) "behind s0->s1" [ 2; 3 ] (behind t ~from:0 ~via:1);
  Alcotest.(check (list int)) "behind s1->s0" [ 0; 1 ] (behind t ~from:1 ~via:0);
  Alcotest.(check int) "routes toward remote" 1 (Saturn.Tree.hop_toward t ~at:0 ~dc:3);
  Alcotest.(check int) "local attachment" (-1) (Saturn.Tree.hop_toward t ~at:0 ~dc:1)

let test_tree_star () =
  let t = Saturn.Tree.star ~n_dcs:5 in
  Alcotest.(check int) "one serializer" 1 (Saturn.Tree.n_serializers t);
  Alcotest.(check (list int)) "all attached" [ 0; 1; 2; 3; 4 ] (Saturn.Tree.dcs_at t 0)

(* random tree generator: n serializers in a random parent structure *)
let random_tree_gen =
  QCheck.Gen.(
    let* n = 2 -- 7 in
    let* parents = list_repeat (n - 1) (int_bound 1000) in
    let edges = List.mapi (fun i p -> (i + 1, p mod (i + 1))) parents in
    let* n_dcs = 2 -- 6 in
    let* attach = list_repeat n_dcs (int_bound (n - 1)) in
    return (Saturn.Tree.create ~n_serializers:n ~edges ~attach:(Array.of_list attach)))

let arbitrary_tree = QCheck.make random_tree_gen

let prop_hop_toward_partition =
  QCheck.Test.make ~name:"hop_toward partitions the remote datacenters" ~count:100 arbitrary_tree
    (fun t ->
      let ok = ref true in
      for s = 0 to Saturn.Tree.n_serializers t - 1 do
        let local = Saturn.Tree.dcs_at t s in
        let behind = List.concat_map (fun b -> behind t ~from:s ~via:b) (Saturn.Tree.neighbors t s) in
        let all = List.sort Int.compare (local @ behind) in
        if all <> List.init (Saturn.Tree.n_dcs t) Fun.id then ok := false
      done;
      !ok)

let prop_path_endpoints =
  QCheck.Test.make ~name:"serializer paths start/end at attachments" ~count:100 arbitrary_tree
    (fun t ->
      let n_dcs = Saturn.Tree.n_dcs t in
      let ok = ref true in
      for a = 0 to n_dcs - 1 do
        for b = 0 to n_dcs - 1 do
          let path = Saturn.Tree.serializer_path t ~src_dc:a ~dst_dc:b in
          (match (path, List.rev path) with
          | first :: _, last :: _ ->
            if first <> Saturn.Tree.serializer_of t ~dc:a then ok := false;
            if last <> Saturn.Tree.serializer_of t ~dc:b then ok := false
          | [], _ | _, [] -> ok := false);
          (* paths never repeat a serializer *)
          if List.sort_uniq Int.compare path <> List.sort Int.compare path then ok := false
        done
      done;
      !ok)

(* ---- Config --------------------------------------------------------------- *)

let test_config_latency () =
  let tree = chain_tree () in
  (* sites: use EC2 NV(0) NC(1) O(2) for the serializers; DCs at NV NV NC O *)
  let config =
    Saturn.Config.create ~tree ~placement:[| 0; 1; 2 |] ~dc_sites:[| 0; 0; 1; 2 |] ()
  in
  (* dc0 -> dc3: dc0(NV)->s0(NV)=0 + s0->s1 (NV-NC 37) + s1->s2 (NC-O 10) + s2->dc3(O)=0 *)
  Alcotest.(check int) "metadata latency" 47_000
    (Sim.Time.to_us (Saturn.Config.metadata_latency config Sim.Ec2.topology ~src_dc:0 ~dst_dc:3));
  Saturn.Config.set_delay config ~from:0 ~hop:(Saturn.Config.To_serializer 1) (Sim.Time.of_ms 5);
  Alcotest.(check int) "with artificial delay" 52_000
    (Sim.Time.to_us (Saturn.Config.metadata_latency config Sim.Ec2.topology ~src_dc:0 ~dst_dc:3));
  Saturn.Config.set_delay config ~from:2 ~hop:(Saturn.Config.To_dc 3) (Sim.Time.of_ms 2);
  Alcotest.(check int) "delivery delay" 54_000
    (Sim.Time.to_us (Saturn.Config.metadata_latency config Sim.Ec2.topology ~src_dc:0 ~dst_dc:3));
  Alcotest.(check int) "reverse unaffected by directed delays" 47_000
    (Sim.Time.to_us (Saturn.Config.metadata_latency config Sim.Ec2.topology ~src_dc:3 ~dst_dc:0));
  Alcotest.check_raises "negative delay" (Invalid_argument "Config.set_delay: negative delay")
    (fun () -> Saturn.Config.set_delay config ~from:0 ~hop:(Saturn.Config.To_serializer 1) (-1));
  (* delays sit in a serializer x hop matrix: a hop past the tree must not
     land in a neighbouring column *)
  Alcotest.check_raises "hop out of range" (Invalid_argument "Config: hop out of range") (fun () ->
      Saturn.Config.set_delay config ~from:0 ~hop:(Saturn.Config.To_serializer 3) (Sim.Time.of_ms 1));
  let copy = Saturn.Config.copy config in
  Saturn.Config.clear_delays copy;
  Alcotest.(check int) "copy cleared" 47_000
    (Sim.Time.to_us (Saturn.Config.metadata_latency copy Sim.Ec2.topology ~src_dc:0 ~dst_dc:3));
  Alcotest.(check int) "original intact" 54_000
    (Sim.Time.to_us (Saturn.Config.metadata_latency config Sim.Ec2.topology ~src_dc:0 ~dst_dc:3))

(* ---- Mismatch / solver ----------------------------------------------------- *)

let three_dc_problem () =
  let dc_sites = [| Sim.Ec2.nv; Sim.Ec2.nc; Sim.Ec2.o |] in
  let bulk i j = Sim.Topology.latency Sim.Ec2.topology dc_sites.(i) dc_sites.(j) in
  {
    Saturn.Config_solver.topo = Sim.Ec2.topology;
    dc_sites;
    candidates = Saturn.Config_solver.default_candidates ~dc_sites;
    crit = Saturn.Mismatch.uniform ~n_dcs:3 ~bulk;
  }

let test_solver_three_dcs () =
  let problem = three_dc_problem () in
  let tree = Saturn.Tree.star ~n_dcs:3 in
  let _config, score = Saturn.Config_solver.solve ~seed:5 problem tree in
  (* the star over NV/NC/O: placing the serializer anywhere gives some
     mismatch; the solver must find a placement no worse than every
     single-site alternative it could enumerate *)
  let best_manual =
    List.fold_left
      (fun acc site ->
        let c =
          Saturn.Config.create ~tree ~placement:[| site |]
            ~dc_sites:(Array.copy problem.Saturn.Config_solver.dc_sites) ()
        in
        let v = Saturn.Config_solver.optimize_delays problem c in
        Float.min acc v)
      infinity
      (Array.to_list problem.Saturn.Config_solver.candidates)
  in
  if score > best_manual +. 1e-6 then
    Alcotest.failf "solver (%.2f) worse than exhaustive placement (%.2f)" score best_manual

let test_optimize_delays_improves () =
  let problem = three_dc_problem () in
  let tree = Saturn.Tree.star ~n_dcs:3 in
  (* serializer at NV: NC->O via NV is 37+49=86 vs bulk 10: late (no delay
     can help); NV->NC is 0+37 matching bulk 37 *)
  let config =
    Saturn.Config.create ~tree ~placement:[| Sim.Ec2.nv |]
      ~dc_sites:(Array.copy problem.Saturn.Config_solver.dc_sites) ()
  in
  let before = Saturn.Mismatch.objective problem.Saturn.Config_solver.crit config Sim.Ec2.topology in
  let after = Saturn.Config_solver.optimize_delays problem config in
  Alcotest.(check bool) "no worse" true (after <= before +. 1e-9);
  (* objective consistency: returned value equals a fresh evaluation *)
  let fresh = Saturn.Mismatch.objective problem.Saturn.Config_solver.crit config Sim.Ec2.topology in
  Alcotest.(check (float 1e-6)) "objective consistent" after fresh

let test_mismatch_lower_bound () =
  let problem = three_dc_problem () in
  let tree = Saturn.Tree.star ~n_dcs:3 in
  let config =
    Saturn.Config.create ~tree ~placement:[| Sim.Ec2.nc |]
      ~dc_sites:(Array.copy problem.Saturn.Config_solver.dc_sites) ()
  in
  let crit = problem.Saturn.Config_solver.crit in
  let lb = Saturn.Mismatch.lower_bound crit config Sim.Ec2.topology in
  let obj = Saturn.Mismatch.objective crit config Sim.Ec2.topology in
  Alcotest.(check bool) "lower bound is a lower bound" true (lb <= obj +. 1e-9)

(* ---- Pair-table solver vs the list-based reference ------------------------ *)

(* A random Algorithm 3 problem on 3-7 EC2 sites: replica sets drawn per
   key (so some pairs share nothing and weigh 0), a bulk-path inflation
   that makes nonzero δ worth adding, one random tree over the sites with
   a random placement, and a seed for the solver's random restarts. *)
type solver_case = {
  sites : Sim.Topology.site array;
  replica_sets : int list array;
  bulk_factor : float;
  insert_at : int list;  (** edge choice for each leaf after the first two *)
  placement : int list;  (** candidate index per serializer *)
  seed : int;
}

let gen_solver_case =
  QCheck.Gen.(
    let* n = 3 -- 7 in
    let* order = shuffle_l (Sim.Ec2.first_n 7) in
    let sites = Array.of_list (List.filteri (fun i _ -> i < n) order) in
    let* n_keys = 1 -- 12 in
    let* masks = list_repeat n_keys (1 -- ((1 lsl n) - 1)) in
    let replica_sets =
      Array.of_list
        (List.map (fun m -> List.filter (fun dc -> m land (1 lsl dc) <> 0) (List.init n Fun.id)) masks)
    in
    (* EC2 latencies are whole milliseconds, so under the first four
       factors every λ and β is a multiple of 0.5 ms and float sums come out
       exact in any order; the last two make β inexact in binary, so the
       order of the scorers' sums shows in their bits *)
    let* bulk_factor = oneofl [ 0.5; 1.0; 1.5; 2.0; 1.13; 0.77 ] in
    let* insert_at = list_repeat (n - 2) (int_bound 1000) in
    let* placement = list_repeat (n - 1) (int_bound 1000) in
    let* seed = int_bound 100_000 in
    return { sites; replica_sets; bulk_factor; insert_at; placement; seed })

let print_solver_case c =
  Printf.sprintf "sites=[%s] replicas=[%s] bulk_factor=%g insert_at=[%s] placement=[%s] seed=%d"
    (String.concat ";" (Array.to_list (Array.map string_of_int c.sites)))
    (String.concat " "
       (Array.to_list
          (Array.map (fun dcs -> "{" ^ String.concat "," (List.map string_of_int dcs) ^ "}") c.replica_sets)))
    c.bulk_factor
    (String.concat ";" (List.map string_of_int c.insert_at))
    (String.concat ";" (List.map string_of_int c.placement))
    c.seed

let case_problem c =
  let n = Array.length c.sites in
  let rmap =
    Kvstore.Replica_map.create ~n_dcs:n ~n_keys:(Array.length c.replica_sets) ~assign:(fun k ->
        c.replica_sets.(k))
  in
  (* the bulk path as the harness inflates it *)
  let bulk i j =
    let lat = Sim.Topology.latency Sim.Ec2.topology c.sites.(i) c.sites.(j) in
    Sim.Time.of_us (int_of_float (float_of_int (Sim.Time.to_us lat) *. c.bulk_factor))
  in
  {
    Saturn.Config_solver.topo = Sim.Ec2.topology;
    dc_sites = c.sites;
    candidates = Saturn.Config_solver.default_candidates ~dc_sites:c.sites;
    crit = Saturn.Mismatch.of_replica_map rmap ~bulk;
  }

let case_tree c =
  let bt =
    List.fold_left
      (fun (bt, dc) pick ->
        let options = Saturn.Config_gen.insertions bt ~dc in
        (List.nth options (pick mod List.length options), dc + 1))
      (Saturn.Config_gen.Node (Leaf 0, Leaf 1), 2)
      c.insert_at
  in
  Saturn.Config_gen.to_tree (fst bt) ~n_dcs:(Array.length c.sites)

(* everything a config decides: tree shape, placement, every hop's delay *)
let config_repr config =
  let tree = Saturn.Config.tree config in
  let b = Buffer.create 128 in
  Buffer.add_string b (Format.asprintf "%a" Saturn.Config.pp config);
  let n_ser = Saturn.Tree.n_serializers tree in
  let hops =
    List.init n_ser (fun s -> Saturn.Config.To_serializer s)
    @ List.init (Saturn.Tree.n_dcs tree) (fun d -> Saturn.Config.To_dc d)
  in
  for from = 0 to n_ser - 1 do
    List.iter
      (fun hop ->
        let d = Sim.Time.to_us (Saturn.Config.delay config ~from ~hop) in
        if d <> 0 then Printf.bprintf b " δ%d:%d" from d)
      hops
  done;
  Buffer.contents b

let same_float what a b =
  if Int64.bits_of_float a <> Int64.bits_of_float b then
    QCheck.Test.fail_reportf "%s: %h, reference %h" what a b

let same_config what a b =
  let a = config_repr a and b = config_repr b in
  if a <> b then QCheck.Test.fail_reportf "%s:\n%s\nreference:\n%s" what a b

let prop_solver_matches_reference =
  QCheck.Test.make ~name:"pair-table solver matches the list-based reference" ~count:200
    (QCheck.make ~print:print_solver_case gen_solver_case)
    (fun c ->
      let problem = case_problem c in
      let tree = case_tree c in
      let fresh () =
        let candidates = problem.Saturn.Config_solver.candidates in
        let placement =
          Array.of_list (List.map (fun i -> candidates.(i mod Array.length candidates)) c.placement)
        in
        Saturn.Config.create ~tree ~placement ~dc_sites:(Array.copy c.sites) ()
      in
      (* one placement: the delay solve, then both scorers over its δ *)
      let mine = fresh () and theirs = fresh () in
      same_float "optimize_delays score"
        (Saturn.Config_solver.optimize_delays problem mine)
        (Config_solver_ref.optimize_delays problem theirs);
      same_config "optimize_delays" mine theirs;
      let crit = problem.Saturn.Config_solver.crit in
      same_float "objective" (Saturn.Mismatch.objective crit mine Sim.Ec2.topology)
        (Config_solver_ref.Mismatch.objective crit theirs Sim.Ec2.topology);
      same_float "lower_bound" (Saturn.Mismatch.lower_bound crit mine Sim.Ec2.topology)
        (Config_solver_ref.Mismatch.lower_bound crit theirs Sim.Ec2.topology);
      (* one tree: placement search, fast and full, from equal seeds *)
      List.iter
        (fun fast ->
          let rng = Sim.Rng.create ~seed:c.seed and rng' = Sim.Rng.create ~seed:c.seed in
          let mine, score = Saturn.Config_solver.optimize_placement ~fast ~rng problem tree in
          let theirs, score' = Config_solver_ref.optimize_placement ~fast ~rng:rng' problem tree in
          same_float (Printf.sprintf "optimize_placement ~fast:%b score" fast) score score';
          same_config (Printf.sprintf "optimize_placement ~fast:%b" fast) mine theirs;
          if Sim.Rng.int rng 1_000_000 <> Sim.Rng.int rng' 1_000_000 then
            QCheck.Test.fail_reportf "optimize_placement ~fast:%b drew a different random sequence" fast)
        [ true; false ];
      if Array.length c.sites <= 4 then begin
        let mine, score = Saturn.Config_solver.solve_exact problem tree in
        let theirs, score' = Config_solver_ref.solve_exact problem tree in
        same_float "solve_exact score" score score';
        same_config "solve_exact" mine theirs
      end;
      (* Algorithm 3 end to end, with its two runners-up; a pool of 3 trees
         per round keeps 200 cases quick and still ranks, filters, solves
         and fuses several trees per case *)
      let mine = Saturn.Config_gen.find_configurations ~pool:3 ~seed:c.seed ~top:3 problem in
      let theirs = Config_solver_ref.find_configurations ~pool:3 ~seed:c.seed ~top:3 problem in
      if List.length mine <> List.length theirs then
        QCheck.Test.fail_reportf "find_configurations: %d configurations, reference %d"
          (List.length mine) (List.length theirs);
      List.iteri
        (fun i ((a, sa), (b, sb)) ->
          same_float (Printf.sprintf "find_configurations #%d score" i) sa sb;
          same_config (Printf.sprintf "find_configurations #%d" i) a b)
        (List.combine mine theirs);
      true)

(* ---- Config generator ------------------------------------------------------ *)

let test_insertions_count () =
  (* a full binary tree with f leaves yields 2f-1 isomorphism classes *)
  let t2 = Saturn.Config_gen.Node (Leaf 0, Leaf 1) in
  Alcotest.(check int) "f=2 gives 3" 3 (List.length (Saturn.Config_gen.insertions t2 ~dc:2));
  let t3 = List.hd (Saturn.Config_gen.insertions t2 ~dc:2) in
  Alcotest.(check int) "f=3 gives 5" 5 (List.length (Saturn.Config_gen.insertions t3 ~dc:3));
  List.iter
    (fun t ->
      Alcotest.(check (list int)) "leaves preserved" [ 0; 1; 2 ]
        (List.sort Int.compare (Saturn.Config_gen.leaves t)))
    (Saturn.Config_gen.insertions t2 ~dc:2)

let test_count_nodes () =
  let open Saturn.Config_gen in
  Alcotest.(check int) "leaf" 1 (count_nodes (Leaf 0));
  Alcotest.(check int) "full tree with 3 leaves" 5
    (count_nodes (Node (Node (Leaf 0, Leaf 1), Leaf 2)))

let test_to_tree () =
  let bt = Saturn.Config_gen.Node (Node (Leaf 0, Leaf 1), Leaf 2) in
  let tree = Saturn.Config_gen.to_tree bt ~n_dcs:3 in
  Alcotest.(check int) "two serializers" 2 (Saturn.Tree.n_serializers tree);
  Alcotest.(check int) "dc2 at root" (Saturn.Tree.serializer_of tree ~dc:2) 0;
  Alcotest.(check bool) "dc0 and dc1 together" true
    (Saturn.Tree.serializer_of tree ~dc:0 = Saturn.Tree.serializer_of tree ~dc:1)

let test_find_configuration_three_dcs () =
  let problem = three_dc_problem () in
  let config, score = Saturn.Config_gen.find_configuration ~seed:7 problem in
  (* must be at least as good as the best solved star *)
  let star = Saturn.Tree.star ~n_dcs:3 in
  let _, star_score = Saturn.Config_solver.solve ~seed:7 problem star in
  if score > star_score +. 1e-6 then
    Alcotest.failf "generator (%.2f) worse than a solved star (%.2f)" score star_score;
  (* metadata latencies should be close to bulk for every pair *)
  for i = 0 to 2 do
    for j = 0 to 2 do
      if i <> j then begin
        let meta =
          Sim.Time.to_ms_float (Saturn.Config.metadata_latency config Sim.Ec2.topology ~src_dc:i ~dst_dc:j)
        in
        let bulk =
          Sim.Time.to_ms_float
            (Sim.Topology.latency Sim.Ec2.topology
               problem.Saturn.Config_solver.dc_sites.(i)
               problem.Saturn.Config_solver.dc_sites.(j))
        in
        if Float.abs (meta -. bulk) > 15. then
          Alcotest.failf "pair %d->%d mismatch too large: meta=%.0f bulk=%.0f" i j meta bulk
      end
    done
  done

let test_solver_exact_agrees () =
  (* the heuristic must land on (or near) the exhaustive optimum *)
  let problem = three_dc_problem () in
  List.iter
    (fun tree ->
      let _, exact = Saturn.Config_solver.solve_exact problem tree in
      let _, heuristic = Saturn.Config_solver.solve ~seed:3 problem tree in
      if heuristic < exact -. 1e-6 then
        Alcotest.failf "heuristic (%.2f) beat the exhaustive optimum (%.2f)?!" heuristic exact;
      if heuristic > exact *. 1.10 +. 1e-6 then
        Alcotest.failf "heuristic (%.2f) more than 10%% off the optimum (%.2f)" heuristic exact)
    [
      Saturn.Tree.star ~n_dcs:3;
      Saturn.Tree.create ~n_serializers:2 ~edges:[ (0, 1) ] ~attach:[| 0; 0; 1 |];
      Saturn.Tree.create ~n_serializers:3 ~edges:[ (0, 1); (1, 2) ] ~attach:[| 0; 1; 2 |];
    ]

let test_solver_exact_guard () =
  let problem = three_dc_problem () in
  let big = Saturn.Tree.create ~n_serializers:4 ~edges:[ (0, 1); (1, 2); (2, 3) ] ~attach:[| 0; 1; 2 |] in
  match Saturn.Config_solver.solve_exact ~max_enum:10 problem big with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "enumeration guard must trip"

let test_find_configurations_backups () =
  (* §6.2: backup trees pre-computed to speed up reconfiguration *)
  let problem = three_dc_problem () in
  let ranked = Saturn.Config_gen.find_configurations ~seed:7 ~top:3 problem in
  Alcotest.(check bool) "returns at least one" true (List.length ranked >= 1);
  let scores = List.map snd ranked in
  let rec non_decreasing = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && non_decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "ranked best-first" true (non_decreasing scores);
  (* the head must agree with find_configuration *)
  let _, best = Saturn.Config_gen.find_configuration ~seed:7 problem in
  Alcotest.(check (float 1e-6)) "head is the winner" best (List.hd scores)

let test_backup_tree_switch () =
  (* pre-compute a backup, crash the primary tree, switch to the backup
     with the forced protocol: data keeps flowing *)
  let problem = three_dc_problem () in
  let ranked = Saturn.Config_gen.find_configurations ~seed:9 ~top:2 problem in
  let primary = fst (List.hd ranked) in
  let backup =
    match ranked with
    | _ :: (b, _) :: _ -> b
    | _ ->
      (* only one distinct configuration survived the pool: fall back to a
         star at a different site as the backup *)
      Saturn.Config.create ~tree:(Saturn.Tree.star ~n_dcs:3)
        ~placement:[| problem.Saturn.Config_solver.dc_sites.(2) |]
        ~dc_sites:(Array.copy problem.Saturn.Config_solver.dc_sites) ()
  in
  let engine = Sim.Engine.create () in
  let dc_sites = problem.Saturn.Config_solver.dc_sites in
  let rmap = Kvstore.Replica_map.full ~n_dcs:3 ~n_keys:8 in
  let params =
    Saturn.System.default_params ~topo:Sim.Ec2.topology ~dc_sites:(Array.copy dc_sites) ~rmap
      ~config:primary
  in
  let system = Saturn.System.create engine params Saturn.System.no_hooks in
  let c = Saturn.Client_lib.create ~id:0 ~home_site:dc_sites.(0) ~preferred_dc:0 in
  let wrote_after_switch = ref false in
  Saturn.System.attach system c ~dc:0 ~k:(fun () ->
      Saturn.System.update system c ~key:1 ~value:(Kvstore.Value.make ~payload:1 ~size_bytes:2)
        ~k:(fun () -> ()));
  Sim.Engine.schedule engine ~delay:(Sim.Time.of_ms 100) (fun () ->
      for s = 0 to Saturn.Tree.n_serializers (Saturn.Config.tree primary) - 1 do
        Saturn.System.crash_serializer system s
      done;
      Saturn.System.switch_config system backup ~graceful:false);
  Sim.Engine.schedule engine ~delay:(Sim.Time.of_ms 200) (fun () ->
      Saturn.System.update system c ~key:2 ~value:(Kvstore.Value.make ~payload:2 ~size_bytes:2)
        ~k:(fun () -> wrote_after_switch := true));
  Sim.Engine.run ~until:(Sim.Time.of_sec 4.) engine;
  Alcotest.(check bool) "writes continued" true !wrote_after_switch;
  Alcotest.(check bool) "switch completed" true (Saturn.System.switch_complete system);
  for dc = 1 to 2 do
    let store = Saturn.Datacenter.store_of_key (Saturn.System.datacenter system dc) ~key:2 in
    Alcotest.(check bool)
      (Printf.sprintf "key 2 visible at dc%d via the backup tree" dc)
      true
      (Kvstore.Store.mem store ~key:2)
  done

let test_fuse () =
  (* two serializers at the same site with zero delays fuse into one *)
  let tree = Saturn.Tree.create ~n_serializers:2 ~edges:[ (0, 1) ] ~attach:[| 0; 1 |] in
  let config = Saturn.Config.create ~tree ~placement:[| Sim.Ec2.nv; Sim.Ec2.nv |] ~dc_sites:[| Sim.Ec2.nv; Sim.Ec2.nc |] () in
  let before = Saturn.Config.metadata_latency config Sim.Ec2.topology ~src_dc:0 ~dst_dc:1 in
  let fused = Saturn.Config_gen.fuse config in
  Alcotest.(check int) "one serializer" 1 (Saturn.Tree.n_serializers (Saturn.Config.tree fused));
  Alcotest.(check int) "latency preserved"
    (Sim.Time.to_us before)
    (Sim.Time.to_us (Saturn.Config.metadata_latency fused Sim.Ec2.topology ~src_dc:0 ~dst_dc:1))

let test_fuse_keeps_delayed_pairs () =
  (* a pair with a non-zero delay between them must NOT fuse *)
  let tree = Saturn.Tree.create ~n_serializers:2 ~edges:[ (0, 1) ] ~attach:[| 0; 1 |] in
  let config = Saturn.Config.create ~tree ~placement:[| Sim.Ec2.nv; Sim.Ec2.nv |] ~dc_sites:[| Sim.Ec2.nv; Sim.Ec2.nc |] () in
  Saturn.Config.set_delay config ~from:0 ~hop:(Saturn.Config.To_serializer 1) (Sim.Time.of_ms 1);
  let fused = Saturn.Config_gen.fuse config in
  Alcotest.(check int) "still two serializers" 2 (Saturn.Tree.n_serializers (Saturn.Config.tree fused))

let suite =
  [
    Alcotest.test_case "tree validation" `Quick test_tree_validation;
    Alcotest.test_case "tree routing" `Quick test_tree_routing;
    Alcotest.test_case "star tree" `Quick test_tree_star;
    qtest prop_hop_toward_partition;
    qtest prop_path_endpoints;
    Alcotest.test_case "config metadata latency" `Quick test_config_latency;
    Alcotest.test_case "solver beats exhaustive star placements" `Quick test_solver_three_dcs;
    Alcotest.test_case "delay optimization never hurts" `Quick test_optimize_delays_improves;
    Alcotest.test_case "mismatch lower bound" `Quick test_mismatch_lower_bound;
    qtest prop_solver_matches_reference;
    Alcotest.test_case "Alg 3 insertion enumeration (2f-1)" `Quick test_insertions_count;
    Alcotest.test_case "binary-tree node counting" `Quick test_count_nodes;
    Alcotest.test_case "binary tree to serializer tree" `Quick test_to_tree;
    Alcotest.test_case "Alg 3 end-to-end on 3 DCs" `Quick test_find_configuration_three_dcs;
    Alcotest.test_case "exhaustive solver agrees with heuristic" `Quick test_solver_exact_agrees;
    Alcotest.test_case "exhaustive solver enumeration guard" `Quick test_solver_exact_guard;
    Alcotest.test_case "backup trees are ranked (§6.2)" `Quick test_find_configurations_backups;
    Alcotest.test_case "failover to a pre-computed backup tree" `Quick test_backup_tree_switch;
    Alcotest.test_case "serializer fusion" `Quick test_fuse;
    Alcotest.test_case "fusion respects delays" `Quick test_fuse_keeps_delayed_pairs;
  ]
