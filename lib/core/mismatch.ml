type t = {
  n_dcs : int;
  weight : int -> int -> float;
  bulk : int -> int -> Sim.Time.t;
}

let uniform ~n_dcs ~bulk = { n_dcs; weight = (fun i j -> if i = j then 0. else 1.); bulk }

let of_replica_map rm ~bulk =
  let n = Kvstore.Replica_map.n_dcs rm in
  let shared = Array.make_matrix n n 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        shared.(i).(j) <- float_of_int (Kvstore.Replica_map.shared_keys rm i j)
    done
  done;
  { n_dcs = n; weight = (fun i j -> shared.(i).(j)); bulk }

type table = {
  n_pairs : int;
  src : int array;
  dst : int array;
  weight : float array;
  beta_ms : float array;
  path : int array array;
  hops : int array array;
  hop_from : int array;
  hop_to : Config.hop array;
  crossing : int array array;
}

let table t tree =
  let n_ser = Tree.n_serializers tree in
  let pairs = ref [] in
  for i = t.n_dcs - 1 downto 0 do
    for j = t.n_dcs - 1 downto 0 do
      if i <> j then begin
        let c = t.weight i j in
        if c > 0. then pairs := (i, j, c) :: !pairs
      end
    done
  done;
  let pairs = Array.of_list !pairs in
  let n_pairs = Array.length pairs in
  let path =
    Array.map (fun (i, j, _) -> Array.of_list (Tree.serializer_path tree ~src_dc:i ~dst_dc:j)) pairs
  in
  (* hop ids in first-use order over the pairs taken last to first: a hop
     leaving serializer [a] is keyed by [a] and its Config column *)
  let columns = n_ser + t.n_dcs in
  let id_of_key = Array.make (n_ser * columns) (-1) in
  let from_rev = ref [] and to_rev = ref [] and n_hops = ref 0 in
  let hops = Array.make n_pairs [||] in
  for p = n_pairs - 1 downto 0 do
    let (_, j, _) = pairs.(p) and pp = path.(p) in
    let last = Array.length pp - 1 in
    hops.(p) <-
      Array.init (last + 1) (fun k ->
          let a = pp.(k) in
          let col = if k < last then pp.(k + 1) else n_ser + j in
          let key = (a * columns) + col in
          if id_of_key.(key) < 0 then begin
            id_of_key.(key) <- !n_hops;
            incr n_hops;
            from_rev := a :: !from_rev;
            to_rev := (if k < last then Config.To_serializer pp.(k + 1) else Config.To_dc j) :: !to_rev
          end;
          id_of_key.(key))
  done;
  let crossing_rev = Array.make !n_hops [] in
  for p = 0 to n_pairs - 1 do
    Array.iter (fun h -> crossing_rev.(h) <- p :: crossing_rev.(h)) hops.(p)
  done;
  {
    n_pairs;
    src = Array.map (fun (i, _, _) -> i) pairs;
    dst = Array.map (fun (_, j, _) -> j) pairs;
    weight = Array.map (fun (_, _, c) -> c) pairs;
    beta_ms = Array.map (fun (i, j, _) -> Sim.Time.to_ms_float (t.bulk i j)) pairs;
    path;
    hops;
    hop_from = Array.of_list (List.rev !from_rev);
    hop_to = Array.of_list (List.rev !to_rev);
    crossing = Array.map Array.of_list crossing_rev;
  }

let n_hops tbl = Array.length tbl.hop_from

let entry_latency tbl topo ~placement ~dc_sites p =
  Sim.Topology.latency topo dc_sites.(tbl.src.(p)) placement.(tbl.path.(p).(0))

let hop_latency tbl topo ~placement ~dc_sites h =
  let dst_site = match tbl.hop_to.(h) with Config.To_serializer b -> placement.(b) | To_dc d -> dc_sites.(d) in
  Sim.Topology.latency topo placement.(tbl.hop_from.(h)) dst_site

(* λ(src, dst) of pair [p] given every hop's latency, delay included *)
let lambda tbl topo ~placement ~dc_sites ~hop_us p =
  let hops = tbl.hops.(p) in
  let acc = ref (entry_latency tbl topo ~placement ~dc_sites p) in
  for k = 0 to Array.length hops - 1 do
    acc := Sim.Time.add !acc hop_us.(hops.(k))
  done;
  !acc

(* Definition 2's sum in pair order; [late] keeps only the pairs whose
   metadata path is slower than bulk. λ − β is taken in ms exactly as
   [Sim.Time.to_ms_float] converts, written out so the float stays
   unboxed in the loop. *)
let sum_gaps ~late tbl topo ~placement ~dc_sites ~delays_us =
  let hop_us = Array.make (n_hops tbl) Sim.Time.zero in
  for h = 0 to n_hops tbl - 1 do
    hop_us.(h) <- Sim.Time.add (hop_latency tbl topo ~placement ~dc_sites h) (Sim.Time.of_us delays_us.(h))
  done;
  let acc = ref 0. in
  for p = 0 to tbl.n_pairs - 1 do
    let lambda_us = Sim.Time.to_us (lambda tbl topo ~placement ~dc_sites ~hop_us p) in
    let gap = (float_of_int lambda_us /. 1_000.) -. tbl.beta_ms.(p) in
    if not late then acc := !acc +. (tbl.weight.(p) *. Float.abs gap)
    else if gap > 0. then acc := !acc +. (tbl.weight.(p) *. gap)
  done;
  !acc

let score tbl topo ~placement ~dc_sites ~delays_us =
  sum_gaps ~late:false tbl topo ~placement ~dc_sites ~delays_us

let late_score tbl topo ~placement ~dc_sites ~delays_us =
  sum_gaps ~late:true tbl topo ~placement ~dc_sites ~delays_us

let config_delays_us tbl config =
  Array.init (n_hops tbl) (fun h ->
      Sim.Time.to_us (Config.delay config ~from:tbl.hop_from.(h) ~hop:tbl.hop_to.(h)))

let of_config score t config topo =
  let tbl = table t (Config.tree config) in
  score tbl topo ~placement:(Config.placement config) ~dc_sites:(Config.dc_sites config)
    ~delays_us:(config_delays_us tbl config)

let objective = of_config score
let lower_bound = of_config late_score
