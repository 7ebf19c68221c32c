type problem = {
  topo : Sim.Topology.t;
  dc_sites : Sim.Topology.site array;
  candidates : Sim.Topology.site array;
  crit : Mismatch.t;
}

let default_candidates ~dc_sites =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  Array.iter
    (fun s ->
      if not (Hashtbl.mem seen s) then begin
        Hashtbl.add seen s ();
        out := s :: !out
      end)
    dc_sites;
  Array.of_list (List.rev !out)

(* physical-only latency of pair [p]'s path (no artificial delays), summed
   in ms leg by leg from the datacenter's entry to its exit; [hop_ms] holds
   each hop's physical latency under the placement *)
let base_ms problem (tbl : Mismatch.table) ~hop_ms placement p =
  let hops = tbl.hops.(p) in
  let acc =
    ref
      (Sim.Time.to_ms_float
         (Mismatch.entry_latency tbl problem.topo ~placement ~dc_sites:problem.dc_sites p))
  in
  for k = 0 to Array.length hops - 1 do
    acc := !acc +. hop_ms.(hops.(k))
  done;
  !acc

(* Per-table working space of the delay solve, reused across placements. *)
type scratch = {
  base : float array; (* pair -> base_ms under the current placement *)
  lambda : float array; (* pair -> base plus its hops' δ, in ms *)
  hop_ms : float array; (* hop -> physical latency in ms *)
  delta : float array; (* hop -> δ in ms *)
  delays_us : int array; (* hop -> δ rounded to µs *)
  no_delays : int array; (* hop -> 0 *)
  values : float array; (* weighted-median targets of one hop ... *)
  weights : float array; (* ... and their weights *)
}

let scratch (tbl : Mismatch.table) =
  let widest = Array.fold_left (fun acc c -> max acc (Array.length c)) 0 tbl.crossing in
  let n_hops = Mismatch.n_hops tbl in
  {
    base = Array.make tbl.n_pairs 0.;
    lambda = Array.make tbl.n_pairs 0.;
    hop_ms = Array.make n_hops 0.;
    delta = Array.make n_hops 0.;
    delays_us = Array.make n_hops 0;
    no_delays = Array.make n_hops 0;
    values = Array.make widest 0.;
    weights = Array.make widest 0.;
  }

(* Weighted median of the first [n] (value, weight) targets, weights > 0.
   An insertion sort keeps equal values in their given order, as any
   stable sort would. *)
let weighted_median sc n =
  let values = sc.values and weights = sc.weights in
  for i = 1 to n - 1 do
    let v = values.(i) and w = weights.(i) in
    let j = ref i in
    while !j > 0 && Float.compare values.(!j - 1) v > 0 do
      values.(!j) <- values.(!j - 1);
      weights.(!j) <- weights.(!j - 1);
      decr j
    done;
    values.(!j) <- v;
    weights.(!j) <- w
  done;
  let total = ref 0. in
  for i = 0 to n - 1 do
    total := !total +. weights.(i)
  done;
  let half = !total /. 2. in
  let rec walk acc i =
    if i = n then 0. else if acc +. weights.(i) >= half then values.(i) else walk (acc +. weights.(i)) (i + 1)
  in
  walk 0. 0

(* λ of pair [p] in ms: its base plus its hops' δ, summed from zero in path
   order *)
let refresh_lambda (tbl : Mismatch.table) sc p =
  let hops = tbl.hops.(p) in
  let sum = ref 0. in
  for k = 0 to Array.length hops - 1 do
    sum := !sum +. sc.delta.(hops.(k))
  done;
  sc.lambda.(p) <- sc.base.(p) +. !sum

let delay_objective (tbl : Mismatch.table) sc =
  let acc = ref 0. in
  for p = tbl.n_pairs - 1 downto 0 do
    acc := !acc +. (tbl.weight.(p) *. Float.abs (sc.lambda.(p) -. tbl.beta_ms.(p)))
  done;
  !acc

(* One round of exact coordinate descent: each hop in turn is set to the
   weighted median of what its crossing pairs want, given every other δ. *)
let delay_pass (tbl : Mismatch.table) sc =
  for h = 0 to Array.length tbl.crossing - 1 do
    let crossing = tbl.crossing.(h) in
    let cur = sc.delta.(h) in
    for i = 0 to Array.length crossing - 1 do
      let p = crossing.(i) in
      sc.values.(i) <- tbl.beta_ms.(p) -. (sc.lambda.(p) -. cur);
      sc.weights.(i) <- tbl.weight.(p)
    done;
    let best = Float.max 0. (weighted_median sc (Array.length crossing)) in
    if not (Float.equal best cur) then begin
      sc.delta.(h) <- best;
      Array.iter (refresh_lambda tbl sc) crossing
    end
  done

(* Minimizes the objective over δ for the config's placement. Leaves δ in
   [sc.delta] and its µs rounding in [sc.delays_us]; returns the config's
   objective with the rounded delays, without installing them. *)
let solve_delays problem (tbl : Mismatch.table) sc config =
  let placement = Config.placement config in
  for h = 0 to Array.length sc.hop_ms - 1 do
    sc.hop_ms.(h) <-
      Sim.Time.to_ms_float (Mismatch.hop_latency tbl problem.topo ~placement ~dc_sites:problem.dc_sites h)
  done;
  Array.fill sc.delta 0 (Array.length sc.delta) 0.;
  for p = 0 to tbl.n_pairs - 1 do
    sc.base.(p) <- base_ms problem tbl ~hop_ms:sc.hop_ms placement p;
    refresh_lambda tbl sc p
  done;
  let obj = ref (delay_objective tbl sc) in
  let improved = ref true in
  let passes = ref 0 in
  while !improved && !passes < 50 do
    incr passes;
    delay_pass tbl sc;
    let o = delay_objective tbl sc in
    improved := o < !obj -. 1e-9;
    obj := o
  done;
  Array.iteri (fun h d -> sc.delays_us.(h) <- int_of_float (Float.round (d *. 1000.))) sc.delta;
  Mismatch.score tbl problem.topo ~placement ~dc_sites:(Config.dc_sites config) ~delays_us:sc.delays_us

let optimize_delays_with problem (tbl : Mismatch.table) sc config =
  let score = solve_delays problem tbl sc config in
  Array.iteri
    (fun h us -> Config.set_delay config ~from:tbl.hop_from.(h) ~hop:tbl.hop_to.(h) (Sim.Time.of_us us))
    sc.delays_us;
  score

let optimize_delays problem config =
  let tbl = Mismatch.table problem.crit (Config.tree config) in
  optimize_delays_with problem tbl (scratch tbl) config

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
  let tbl = Mismatch.table problem.crit tree in
  let sc = scratch tbl in
  let run variant =
    let placement = initial_placement problem tree ~variant rng in
    let config = Config.create ~tree ~placement ~dc_sites:(Array.copy problem.dc_sites) () in
    (* the config carries no delays until [optimize_delays_with] installs
       them at the end of the run *)
    let lower_bound c =
      Mismatch.late_score tbl problem.topo ~placement:(Config.placement c) ~dc_sites:(Config.dc_sites c)
        ~delays_us:sc.no_delays
    in
    let _ = placement_descent problem config ~score:lower_bound in
    if not fast then begin
      (* refine: one descent round scoring with full delay optimization *)
      let _ = placement_descent problem config ~score:(solve_delays problem tbl sc) in
      ()
    end;
    let obj = optimize_delays_with problem tbl sc config in
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
      (Printf.sprintf "Config_solver.solve_exact: %d placements exceed max_enum=%d" total max_enum);
  let tbl = Mismatch.table problem.crit tree in
  let sc = scratch tbl in
  let best = ref None in
  let placement = Array.make n problem.candidates.(0) in
  let rec enumerate s =
    if s = n then begin
      let config =
        Config.create ~tree ~placement:(Array.copy placement) ~dc_sites:(Array.copy problem.dc_sites) ()
      in
      let score = optimize_delays_with problem tbl sc config in
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
