type part = Sink_hold | Serializer | Delta | Proxy_order | Transit_excess

let parts = [ Sink_hold; Serializer; Delta; Proxy_order; Transit_excess ]

let part_name = function
  | Sink_hold -> "sink_hold"
  | Serializer -> "serializer"
  | Delta -> "delta"
  | Proxy_order -> "proxy_order"
  | Transit_excess -> "transit_excess"

type blamed = {
  j : Journey.journey;
  optimal_us : int;
  gap_us : int;
  blame : (part * int) list;
  culprits : (string * int) list;
}

type part_stat = {
  part : part;
  journeys : int;
  total_us : int;
  p50_ms : float;
  p99_ms : float;
}

type culprit_stat = {
  culprit : string;
  c_journeys : int;
  c_total_us : int;
  c_tail_us : int;
}

type report = {
  blamed : blamed list;
  per_part : part_stat list;
  culprits : culprit_stat list;
  gap_hist : Stats.Hdr.t;
  tail_threshold_us : int;
  optimal_total_us : int;
  mismatches : string list;
  fallback_applied : int;
  incomplete : int;
}

(* ---- the optimum ---------------------------------------------------------- *)

let scaled_us ~bulk_factor t =
  int_of_float (float_of_int (Sim.Time.to_us t) *. bulk_factor)

let optimal_matrix ~topo ~dc_sites ~bulk_factor =
  let n = Array.length dc_sites in
  let m =
    Array.init n (fun i ->
        Array.init n (fun j ->
            scaled_us ~bulk_factor (Sim.Topology.latency topo dc_sites.(i) dc_sites.(j))))
  in
  (* Floyd–Warshall: the bulk fabric is a full mesh of direct links, but a
     geography violating the triangle inequality makes a relayed path the
     true optimum — the paper's "deviation from optimal" baseline *)
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if m.(i).(k) + m.(k).(j) < m.(i).(j) then m.(i).(j) <- m.(i).(k) + m.(k).(j)
      done
    done
  done;
  m

(* ---- per-journey attribution ---------------------------------------------- *)

(* walk the path-ordered segments, pinning each occurrence on its edge or
   serializer: the k-th Chain is path.(k), each Delay_hop belongs to the
   Hop that follows it, Delay_egress/Egress to (last serializer, dst) *)
type walk_leg =
  | L_sink of int
  | L_attach of int
  | L_chain of int * int (* serializer, us *)
  | L_delay_hop of int * int * int (* from, to, us *)
  | L_hop of int * int * int
  | L_delay_egress of int * int (* last serializer, us *)
  | L_egress of int * int
  | L_proxy of int

let walk (j : Journey.journey) =
  let path = Array.of_list j.Journey.path in
  let last = if Array.length path = 0 then -1 else path.(Array.length path - 1) in
  let chain_i = ref 0 in
  let edge_i = ref 0 in
  List.map
    (fun ((seg : Journey.segment), us) ->
      match seg with
      | Journey.Sink_hold -> L_sink us
      | Journey.Attach -> L_attach us
      | Journey.Chain ->
        let s = if !chain_i < Array.length path then path.(!chain_i) else -1 in
        incr chain_i;
        L_chain (s, us)
      | Journey.Delay_hop ->
        let a = path.(!edge_i) and b = path.(!edge_i + 1) in
        L_delay_hop (a, b, us)
      | Journey.Hop ->
        let a = path.(!edge_i) and b = path.(!edge_i + 1) in
        incr edge_i;
        L_hop (a, b, us)
      | Journey.Delay_egress -> L_delay_egress (last, us)
      | Journey.Egress -> L_egress (last, us)
      | Journey.Proxy_order -> L_proxy us)
    j.Journey.parts

(* assoc-merge keeping first-occurrence order *)
let merge_culprits legs_named =
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (name, us) ->
      match Hashtbl.find_opt tbl name with
      | Some v -> Hashtbl.replace tbl name (v + us)
      | None ->
        Hashtbl.replace tbl name us;
        order := name :: !order)
    legs_named;
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order

let blame_journey ~optimal (j : Journey.journey) =
  let opt = optimal.(j.Journey.origin).(j.Journey.dst) in
  let gap = j.Journey.visibility_us - opt in
  let legs = walk j in
  let sum f = List.fold_left (fun acc l -> acc + f l) 0 legs in
  let sink = sum (function L_sink us -> us | _ -> 0) in
  let attach = sum (function L_attach us -> us | _ -> 0) in
  let chain = sum (function L_chain (_, us) -> us | _ -> 0) in
  let delta = sum (function L_delay_hop (_, _, us) | L_delay_egress (_, us) -> us | _ -> 0) in
  let hops = sum (function L_hop (_, _, us) -> us | _ -> 0) in
  let egress = sum (function L_egress (_, us) -> us | _ -> 0) in
  let proxy = sum (function L_proxy us -> us | _ -> 0) in
  (* shortest-path transit is the necessary floor: whatever the label's
     physical route (attach link + tree hops + egress) costs beyond it is
     overhead — off-shortest-path detours, retransmissions, spiked links *)
  let transit_excess = attach + hops + egress - opt in
  let blame =
    [
      (Sink_hold, sink);
      (Serializer, chain);
      (Delta, delta);
      (Proxy_order, proxy);
      (Transit_excess, transit_excess);
    ]
  in
  let culprits =
    merge_culprits
      (List.filter_map
         (function
           | L_sink us -> Some (Printf.sprintf "sink.dc%d" j.Journey.origin, us)
           | L_chain (s, us) -> Some (Printf.sprintf "ser%d" s, us)
           | L_delay_hop (a, b, us) -> Some (Printf.sprintf "delta.s%d->s%d" a b, us)
           | L_delay_egress (s, us) -> Some (Printf.sprintf "delta.s%d->dc%d" s j.Journey.dst, us)
           | L_proxy us -> Some (Printf.sprintf "proxy.dc%d" j.Journey.dst, us)
           | L_attach _ | L_hop _ | L_egress _ -> None)
         legs
      @
      if transit_excess = 0 then []
      else [ (Printf.sprintf "route.dc%d->dc%d" j.Journey.origin j.Journey.dst, transit_excess) ])
  in
  { j; optimal_us = opt; gap_us = gap; blame; culprits }

let analyze ~optimal (r : Journey.report) =
  let blamed = List.map (blame_journey ~optimal) r.Journey.journeys in
  let mismatches = ref [] in
  List.iter
    (fun b ->
      let total = List.fold_left (fun acc (_, us) -> acc + us) 0 b.blame in
      if total <> b.gap_us then
        mismatches :=
          Printf.sprintf "dc%d#%d -> dc%d: blame parts sum %dus, gap %dus" b.j.Journey.origin
            b.j.Journey.oseq b.j.Journey.dst total b.gap_us
          :: !mismatches)
    blamed;
  let gap_hist = Stats.Hdr.create () in
  List.iter (fun b -> Stats.Hdr.add gap_hist b.gap_us) blamed;
  let per_part =
    List.map
      (fun part ->
        let hist = Stats.Hdr.create () in
        let n = ref 0 and total = ref 0 in
        List.iter
          (fun b ->
            let us = List.assoc part b.blame in
            if us <> 0 then begin
              incr n;
              total := !total + us;
              Stats.Hdr.add hist us
            end)
          blamed;
        {
          part;
          journeys = !n;
          total_us = !total;
          p50_ms = (if Stats.Hdr.count hist = 0 then 0. else Stats.Hdr.percentile hist 50. /. 1000.);
          p99_ms = (if Stats.Hdr.count hist = 0 then 0. else Stats.Hdr.percentile hist 99. /. 1000.);
        })
      parts
  in
  (* the tail: the slowest tenth of journeys by gap (at least one), ties
     broken by identity so the set is deterministic *)
  let by_gap =
    List.sort
      (fun a b ->
        match compare b.gap_us a.gap_us with
        | 0 ->
          compare
            (a.j.Journey.origin, a.j.Journey.oseq, a.j.Journey.dst)
            (b.j.Journey.origin, b.j.Journey.oseq, b.j.Journey.dst)
        | c -> c)
      blamed
  in
  let n = List.length blamed in
  let n_tail = if n = 0 then 0 else Stdlib.max 1 (n / 10) in
  let tail = List.filteri (fun i _ -> i < n_tail) by_gap in
  let tail_threshold_us = match List.rev tail with [] -> 0 | b :: _ -> b.gap_us in
  let in_tail = Hashtbl.create 64 in
  List.iter
    (fun b -> Hashtbl.replace in_tail (b.j.Journey.origin, b.j.Journey.oseq, b.j.Journey.dst) ())
    tail;
  let order = ref [] in
  let ctbl = Hashtbl.create 32 in
  List.iter
    (fun b ->
      let tailed = Hashtbl.mem in_tail (b.j.Journey.origin, b.j.Journey.oseq, b.j.Journey.dst) in
      List.iter
        (fun (name, us) ->
          let js, tot, tl =
            match Hashtbl.find_opt ctbl name with
            | Some x -> x
            | None ->
              order := name :: !order;
              (0, 0, 0)
          in
          Hashtbl.replace ctbl name (js + 1, tot + us, if tailed then tl + us else tl))
        b.culprits)
    blamed;
  let culprits =
    List.rev_map
      (fun name ->
        let c_journeys, c_total_us, c_tail_us = Hashtbl.find ctbl name in
        { culprit = name; c_journeys; c_total_us; c_tail_us })
      !order
    |> List.sort (fun a b ->
           match compare b.c_tail_us a.c_tail_us with
           | 0 -> (
             match compare b.c_total_us a.c_total_us with
             | 0 -> String.compare a.culprit b.culprit
             | c -> c)
           | c -> c)
  in
  {
    blamed;
    per_part;
    culprits;
    gap_hist;
    tail_threshold_us;
    optimal_total_us = List.fold_left (fun acc b -> acc + b.optimal_us) 0 blamed;
    mismatches = r.Journey.mismatches @ List.rev !mismatches;
    fallback_applied = r.Journey.fallback_applied;
    incomplete = r.Journey.incomplete;
  }

let check r = match r.mismatches with [] -> Ok () | ms -> Error ms

let top_k r ~k =
  let by_gap =
    List.sort
      (fun a b ->
        match compare b.gap_us a.gap_us with
        | 0 ->
          compare
            (a.j.Journey.origin, a.j.Journey.oseq, a.j.Journey.dst)
            (b.j.Journey.origin, b.j.Journey.oseq, b.j.Journey.dst)
        | c -> c)
      r.blamed
  in
  List.filteri (fun i _ -> i < k) by_gap

(* ---- rendering ------------------------------------------------------------ *)

let ms us = float_of_int us /. 1000.

let table r =
  let gap_total = List.fold_left (fun acc b -> acc + b.gap_us) 0 r.blamed in
  let tbl =
    Stats.Table.create
      ~title:
        (Printf.sprintf "optimality-gap blame (%d journeys, gap total %.1f ms over optimal %.1f ms)"
           (List.length r.blamed) (ms gap_total) (ms r.optimal_total_us))
      ~columns:[ "part"; "journeys"; "total ms"; "share of gap"; "p50 ms"; "p99 ms"; "" ]
  in
  List.iter
    (fun s ->
      let share =
        if gap_total = 0 then 0. else 100. *. float_of_int s.total_us /. float_of_int gap_total
      in
      let bar = String.make (int_of_float (Float.max 0. share /. 2.5)) '#' in
      Stats.Table.add_row tbl
        [
          part_name s.part;
          string_of_int s.journeys;
          Printf.sprintf "%.1f" (ms s.total_us);
          Printf.sprintf "%.1f%%" share;
          (if s.journeys = 0 then "-" else Printf.sprintf "%.2f" s.p50_ms);
          (if s.journeys = 0 then "-" else Printf.sprintf "%.2f" s.p99_ms);
          bar;
        ])
    r.per_part;
  tbl

let culprit_table r =
  let tbl =
    Stats.Table.create
      ~title:
        (Printf.sprintf "culprit ranking (tail = gap >= %.1f ms, the slowest tenth)"
           (ms r.tail_threshold_us))
      ~columns:[ "culprit"; "journeys"; "total ms"; "tail ms"; "" ]
  in
  let tail_max =
    List.fold_left (fun acc c -> Stdlib.max acc c.c_tail_us) 0 r.culprits
  in
  List.iter
    (fun c ->
      let bar =
        if tail_max <= 0 then ""
        else String.make (40 * Stdlib.max 0 c.c_tail_us / tail_max) '#'
      in
      Stats.Table.add_row tbl
        [
          c.culprit;
          string_of_int c.c_journeys;
          Printf.sprintf "%.1f" (ms c.c_total_us);
          Printf.sprintf "%.1f" (ms c.c_tail_us);
          bar;
        ])
    r.culprits;
  tbl

let render_journey b =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "dc%d#%d -> dc%d  vis %.3fms = optimal %.3f + gap %.3f\n" b.j.Journey.origin
       b.j.Journey.oseq b.j.Journey.dst (ms b.j.Journey.visibility_us) (ms b.optimal_us)
       (ms b.gap_us));
  let legs =
    List.map
      (function
        | L_sink us -> Printf.sprintf "sink %.3f" (ms us)
        | L_attach us -> Printf.sprintf "attach %.3f" (ms us)
        | L_chain (s, us) -> Printf.sprintf "ser%d %.3f" s (ms us)
        | L_delay_hop (a, b, us) -> Printf.sprintf "delta s%d->s%d %.3f" a b (ms us)
        | L_hop (a, b, us) -> Printf.sprintf "hop s%d->s%d %.3f" a b (ms us)
        | L_delay_egress (s, us) -> Printf.sprintf "delta s%d->egress %.3f" s (ms us)
        | L_egress (s, us) -> Printf.sprintf "egress s%d %.3f" s (ms us)
        | L_proxy us -> Printf.sprintf "proxy %.3f" (ms us))
      (walk b.j)
  in
  Buffer.add_string buf ("    " ^ String.concat " | " legs ^ "\n");
  Buffer.contents buf

let gap_csv r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "origin,oseq,dst,path,visibility_us,optimal_us,gap_us,sink_hold_us,serializer_us,delta_us,proxy_order_us,transit_excess_us\n";
  List.iter
    (fun b ->
      let part p = List.assoc p b.blame in
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%d,%s,%d,%d,%d,%d,%d,%d,%d,%d\n" b.j.Journey.origin
           b.j.Journey.oseq b.j.Journey.dst
           (String.concat ">" (List.map (Printf.sprintf "s%d") b.j.Journey.path))
           b.j.Journey.visibility_us b.optimal_us b.gap_us (part Sink_hold) (part Serializer)
           (part Delta) (part Proxy_order) (part Transit_excess)))
    r.blamed;
  Buffer.contents buf

(* over the per-journey CSV: a single blame number moving flips the digest *)
let digest r = Sim.Fnv.(to_hex (string offset (gap_csv r)))

let render ?(top = 5) r =
  let buf = Buffer.create 4096 in
  let n = List.length r.blamed in
  Buffer.add_string buf
    (Printf.sprintf
       "blame: %d complete journeys (%d fallback, %d in flight); gap = visibility - shortest \
        bulk path; digest %s\n"
       n r.fallback_applied r.incomplete (digest r));
  (if Stats.Hdr.count r.gap_hist > 0 then
     Buffer.add_string buf
       (Printf.sprintf "gap ms: mean %.3f  p50 %.3f  p99 %.3f  p99.9 %.3f  max %.3f\n"
          (Stats.Hdr.mean r.gap_hist /. 1000.)
          (Stats.Hdr.percentile r.gap_hist 50. /. 1000.)
          (Stats.Hdr.percentile r.gap_hist 99. /. 1000.)
          (Stats.Hdr.percentile r.gap_hist 99.9 /. 1000.)
          (ms (Stats.Hdr.max_value r.gap_hist))));
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Stats.Table.render (table r));
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Stats.Table.render (culprit_table r));
  Buffer.add_char buf '\n';
  if top > 0 && n > 0 then begin
    Buffer.add_string buf (Printf.sprintf "top %d journeys by gap:\n" (Stdlib.min top n));
    List.iteri
      (fun i b -> Buffer.add_string buf (Printf.sprintf "  #%d %s" (i + 1) (render_journey b)))
      (top_k r ~k:top)
  end;
  (match r.mismatches with
  | [] -> ()
  | ms ->
    Buffer.add_string buf (Printf.sprintf "TILING MISMATCHES (%d):\n" (List.length ms));
    List.iter (fun m -> Buffer.add_string buf ("  " ^ m ^ "\n")) ms);
  Buffer.contents buf

(* registration names stay literal (or sprintf-literal) at the call site:
   saturn-lint's counter-name pass globs these against the smoke baseline *)
let fold_counters r registry =
  Stats.Registry.incr ~by:(List.length r.blamed)
    (Stats.Registry.counter registry "blame.journeys");
  Stats.Registry.incr
    ~by:(List.fold_left (fun acc b -> acc + b.gap_us) 0 r.blamed)
    (Stats.Registry.counter registry "blame.gap.us");
  Stats.Registry.incr ~by:r.optimal_total_us (Stats.Registry.counter registry "blame.optimal.us");
  List.iter
    (fun s ->
      Stats.Registry.incr ~by:s.total_us
        (Stats.Registry.counter registry (Printf.sprintf "blame.part.%s.us" (part_name s.part))))
    r.per_part
