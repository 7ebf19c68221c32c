(* Reference model for the differential solver test: Algorithm 3's
   scorers and optimizer as they were before the per-tree pair table. The
   Weighted Minimal Mismatch sums walk [Tree.serializer_path] lists through
   [Config.metadata_latency]; the delay solve keeps δ in a [Hashtbl] keyed
   by hop and filters every pair for each hop it visits. [Saturn.Mismatch],
   [Saturn.Config_solver] and [Saturn.Config_gen] must choose the same
   trees, placements and delays, and return the same scores bit for bit,
   drawing the same random numbers. *)

module Config = Saturn.Config
module Tree = Saturn.Tree

type problem = Saturn.Config_solver.problem = {
  topo : Sim.Topology.t;
  dc_sites : Sim.Topology.site array;
  candidates : Sim.Topology.site array;
  crit : Saturn.Mismatch.t;
}

module Mismatch = struct
  type t = Saturn.Mismatch.t = {
    n_dcs : int;
    weight : int -> int -> float;
    bulk : int -> int -> Sim.Time.t;
  }

  let pair_mismatch_ms t config topo ~src ~dst =
    let lambda = Config.metadata_latency config topo ~src_dc:src ~dst_dc:dst in
    let beta = t.bulk src dst in
    Float.abs (Sim.Time.to_ms_float lambda -. Sim.Time.to_ms_float beta)

  let fold_pairs t f init =
    let acc = ref init in
    for i = 0 to t.n_dcs - 1 do
      for j = 0 to t.n_dcs - 1 do
        if i <> j then begin
          let c = t.weight i j in
          if c > 0. then acc := f !acc i j c
        end
      done
    done;
    !acc

  let objective t config topo =
    fold_pairs t (fun acc i j c -> acc +. (c *. pair_mismatch_ms t config topo ~src:i ~dst:j)) 0.

  let lower_bound t config topo =
    fold_pairs t
      (fun acc i j c ->
        let lambda = Config.metadata_latency config topo ~src_dc:i ~dst_dc:j in
        let beta = t.bulk i j in
        let gap = Sim.Time.to_ms_float lambda -. Sim.Time.to_ms_float beta in
        if gap > 0. then acc +. (c *. gap) else acc)
      0.
end

(* A pair's metadata path, decomposed into its delayable hops. *)
type pair = {
  src : int;
  dst : int;
  weight : float;
  beta_ms : float;
  hops : (int * Config.hop) list; (* serializer hops carrying artificial delay *)
}

let pairs_of problem config =
  let tree = Config.tree config in
  let n = Array.length problem.dc_sites in
  let out = ref [] in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then begin
        let c = problem.crit.Mismatch.weight src dst in
        if c > 0. then begin
          let path = Tree.serializer_path tree ~src_dc:src ~dst_dc:dst in
          let rec hops = function
            | a :: (b :: _ as rest) -> (a, Config.To_serializer b) :: hops rest
            | [ last ] -> [ (last, Config.To_dc dst) ]
            | [] -> []
          in
          let beta_ms = Sim.Time.to_ms_float (problem.crit.Mismatch.bulk src dst) in
          out := { src; dst; weight = c; beta_ms; hops = hops path } :: !out
        end
      end
    done
  done;
  !out

let base_ms problem config pair =
  (* physical-only latency of the pair's path (no artificial delays) *)
  let tree = Config.tree config in
  let path = Tree.serializer_path tree ~src_dc:pair.src ~dst_dc:pair.dst in
  match path with
  | [] -> assert false
  | first :: _ ->
    let lat a b = Sim.Time.to_ms_float (Sim.Topology.latency problem.topo a b) in
    let place = Config.placement config in
    let entry = lat problem.dc_sites.(pair.src) place.(first) in
    let rec walk acc = function
      | a :: (b :: _ as rest) -> walk (acc +. lat place.(a) place.(b)) rest
      | [ last ] -> acc +. lat place.(last) problem.dc_sites.(pair.dst)
      | [] -> acc
    in
    walk entry path

let weighted_median targets =
  (* targets: (value, weight) list, weight > 0; classic weighted median *)
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) targets in
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. sorted in
  let rec walk acc = function
    | [] -> 0.
    | (v, w) :: rest -> if acc +. w >= total /. 2. then v else walk (acc +. w) rest
  in
  walk 0. sorted

let optimize_delays problem config =
  let pairs = pairs_of problem config in
  let bases = List.map (fun p -> (p, base_ms problem config p)) pairs in
  (* delta table in float ms, keyed by hop *)
  let deltas : (int * int, float) Hashtbl.t = Hashtbl.create 32 in
  let encode (from, hop) =
    (from, match hop with Config.To_serializer s -> s | Config.To_dc d -> -d - 1)
  in
  let delta h = Option.value ~default:0. (Hashtbl.find_opt deltas (encode h)) in
  let lambda (p, base) = base +. List.fold_left (fun acc h -> acc +. delta h) 0. p.hops in
  let objective () =
    List.fold_left (fun acc pb -> acc +. ((fst pb).weight *. Float.abs (lambda pb -. (fst pb).beta_ms))) 0. bases
  in
  let all_hops =
    let seen = Hashtbl.create 32 in
    List.concat_map (fun p -> p.hops) pairs
    |> List.filter (fun h ->
           let k = encode h in
           if Hashtbl.mem seen k then false
           else begin
             Hashtbl.add seen k ();
             true
           end)
  in
  let pass () =
    List.iter
      (fun hop ->
        let key = encode hop in
        let affected = List.filter (fun (p, _) -> List.exists (fun h -> encode h = key) p.hops) bases in
        if affected <> [] then begin
          let cur = delta hop in
          let targets =
            List.map
              (fun ((p, _) as pb) ->
                let rest = lambda pb -. cur in
                (p.beta_ms -. rest, p.weight))
              affected
          in
          let best = Float.max 0. (weighted_median targets) in
          Hashtbl.replace deltas key best
        end)
      all_hops
  in
  let obj = ref (objective ()) in
  let improved = ref true in
  let passes = ref 0 in
  while !improved && !passes < 50 do
    incr passes;
    pass ();
    let o = objective () in
    improved := o < !obj -. 1e-9;
    obj := o
  done;
  (* install the delays into the config *)
  List.iter
    (fun ((from, hop) as h) ->
      Config.set_delay config ~from ~hop (Sim.Time.of_us (int_of_float (Float.round (delta h *. 1000.)))))
    all_hops;
  Mismatch.objective problem.crit config problem.topo

let score_placement_fast problem config = Mismatch.lower_bound problem.crit config problem.topo

let initial_placement problem tree ~variant rng =
  let n = Tree.n_serializers tree in
  Array.init n (fun s ->
      if variant = 0 then begin
        (* seed: place each serializer at the site of a nearby attached DC *)
        match Tree.dcs_at tree s with
        | dc :: _ -> problem.dc_sites.(dc)
        | [] ->
          (* internal serializer without attached DCs: site of the first DC
             found through its first neighbor *)
          let rec probe at from =
            match Tree.dcs_at tree at with
            | dc :: _ -> problem.dc_sites.(dc)
            | [] -> (
              match List.filter (fun x -> x <> from) (Tree.neighbors tree at) with
              | next :: _ -> probe next at
              | [] -> problem.dc_sites.(0) )
          in
          probe s (-1)
      end
      else Sim.Rng.pick rng problem.candidates)

let placement_descent problem config ~score =
  let place = Config.placement config in
  let n = Array.length place in
  let best = ref (score config) in
  let improved = ref true in
  let passes = ref 0 in
  while !improved && !passes < 8 do
    incr passes;
    improved := false;
    for s = 0 to n - 1 do
      let original = place.(s) in
      let best_site = ref original in
      Array.iter
        (fun w ->
          if w <> !best_site then begin
            place.(s) <- w;
            let v = score config in
            if v < !best -. 1e-9 then begin
              best := v;
              best_site := w;
              improved := true
            end
          end)
        problem.candidates;
      place.(s) <- !best_site
    done
  done;
  !best

let optimize_placement ?(fast = false) ?(restarts = 3) ~rng problem tree =
  let run variant =
    let placement = initial_placement problem tree ~variant rng in
    let config = Config.create ~tree ~placement ~dc_sites:(Array.copy problem.dc_sites) () in
    let _ = placement_descent problem config ~score:(score_placement_fast problem) in
    if not fast then begin
      (* refine: one descent round scoring with full delay optimization *)
      let full_score c =
        let c' = Config.copy c in
        optimize_delays problem c'
      in
      let _ = placement_descent problem config ~score:full_score in
      ()
    end;
    let obj = optimize_delays problem config in
    (config, obj)
  in
  let best = ref (run 0) in
  for variant = 1 to restarts - 1 do
    let candidate = run variant in
    if snd candidate < snd !best then best := candidate
  done;
  !best

let solve ?restarts ~seed problem tree =
  let rng = Sim.Rng.create ~seed in
  optimize_placement ?restarts ~rng problem tree

let solve_exact ?(max_enum = 200_000) problem tree =
  let n = Tree.n_serializers tree in
  let w = Array.length problem.candidates in
  let total =
    let rec pow acc i = if i = 0 then acc else if acc > max_enum then acc else pow (acc * w) (i - 1) in
    pow 1 n
  in
  if total > max_enum then
    invalid_arg
      (Printf.sprintf "solve_exact: %d placements exceed max_enum=%d" total max_enum);
  let best = ref None in
  let placement = Array.make n problem.candidates.(0) in
  let rec enumerate s =
    if s = n then begin
      let config =
        Config.create ~tree ~placement:(Array.copy placement) ~dc_sites:(Array.copy problem.dc_sites) ()
      in
      let score = optimize_delays problem config in
      match !best with
      | Some (_, b) when b <= score -> ()
      | Some _ | None -> best := Some (config, score)
    end
    else
      Array.iter
        (fun site ->
          placement.(s) <- site;
          enumerate (s + 1))
        problem.candidates
  in
  enumerate 0;
  match !best with Some r -> r | None -> assert false

(* Algorithm 3's driver over the reference solver; the tree enumeration,
   [to_tree] and [fuse] come from the library *)
open Saturn.Config_gen

let find_configurations ?(threshold = 25.0) ?(pool = 10) ?(seed = 42) ?insertion_order ~top problem =
  let n = Array.length problem.dc_sites in
  if n < 2 then invalid_arg "Config_gen.find_configuration: need at least 2 datacenters";
  let order = match insertion_order with Some o -> o | None -> List.init n Fun.id in
  (match List.sort_uniq Int.compare order with
  | sorted when sorted = List.init n Fun.id -> ()
  | _ -> invalid_arg "Config_gen.find_configuration: order must be a permutation of dcs");
  let rng = Sim.Rng.create ~seed in
  (* rank a partial tree on the sub-problem over the leaves it contains *)
  let rank bt =
    let present = List.sort Int.compare (leaves bt) in
    let f = List.length present in
    let index = Hashtbl.create 8 in
    List.iteri (fun i dc -> Hashtbl.replace index dc i) present;
    let orig = Array.of_list present in
    let rec relabel = function
      | Leaf dc -> Leaf (Hashtbl.find index dc)
      | Node (l, r) -> Node (relabel l, relabel r)
    in
    let sub_sites = Array.map (fun dc -> problem.dc_sites.(dc)) orig in
    let crit = problem.crit in
    let sub_crit =
      {
        Mismatch.n_dcs = f;
        weight = (fun i j -> crit.Mismatch.weight orig.(i) orig.(j));
        bulk = (fun i j -> crit.Mismatch.bulk orig.(i) orig.(j));
      }
    in
    let sub_problem = { problem with dc_sites = sub_sites; crit = sub_crit } in
    let tree = to_tree (relabel bt) ~n_dcs:f in
    let _, score = optimize_placement ~fast:true ~restarts:2 ~rng sub_problem tree in
    score
  in
  let filter ranked =
    (* FILTER of Alg. 3: cut at the first ranking gap wider than the
       threshold; additionally cap the pool. *)
    let sorted = List.sort (fun (_, a) (_, b) -> Float.compare a b) ranked in
    let rec keep prev n = function
      | [] -> []
      | (t, s) :: rest ->
        if n >= pool || s -. prev > threshold then []
        else (t, s) :: keep s (n + 1) rest
    in
    match sorted with [] -> [] | (t, s) :: rest -> (t, s) :: keep s 1 rest
  in
  match order with
  | first :: second :: rest ->
    let init = Node (Leaf first, Leaf second) in
    let final_pool =
      List.fold_left
        (fun trees dc ->
          let expanded = List.concat_map (fun (t, _) -> insertions t ~dc) trees in
          let ranked = List.map (fun t -> (t, rank t)) expanded in
          filter ranked)
        [ (init, 0.) ]
        rest
    in
    let solved =
      List.map
        (fun (bt, _) ->
          let tree = to_tree bt ~n_dcs:n in
          let config, score = optimize_placement ~fast:false ~restarts:3 ~rng problem tree in
          (fuse config, score))
        final_pool
    in
    (match List.sort (fun (_, a) (_, b) -> Float.compare a b) solved with
    | [] -> invalid_arg "Config_gen.find_configurations: empty pool"
    | ranked -> List.filteri (fun i _ -> i < top) ranked)
  | _ -> invalid_arg "Config_gen.find_configurations: need at least 2 datacenters"

let find_configuration ?threshold ?pool ?seed ?insertion_order problem =
  match find_configurations ?threshold ?pool ?seed ?insertion_order ~top:1 problem with
  | best :: _ -> best
  | [] -> assert false
