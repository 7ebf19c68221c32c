type mode = Stream | Fallback

type span_kind =
  | Sk_sink_hold
  | Sk_attach
  | Sk_chain
  | Sk_delay_hop
  | Sk_hop
  | Sk_delay_egress
  | Sk_egress
  | Sk_proxy_order
  | Sk_bulk
  | Sk_stab

let span_kind_name = function
  | Sk_sink_hold -> "sink_hold"
  | Sk_attach -> "attach"
  | Sk_chain -> "chain"
  | Sk_delay_hop -> "delay_hop"
  | Sk_hop -> "hop"
  | Sk_delay_egress -> "delay_egress"
  | Sk_egress -> "egress"
  | Sk_proxy_order -> "proxy_order"
  | Sk_bulk -> "bulk"
  | Sk_stab -> "stab"

let span_kinds =
  [ Sk_sink_hold; Sk_attach; Sk_chain; Sk_delay_hop; Sk_hop; Sk_delay_egress; Sk_egress;
    Sk_proxy_order; Sk_bulk; Sk_stab ]

let n_span_kinds = 10

(* dense id per span kind, in [span_kinds] order *)
let span_kind_id = function
  | Sk_sink_hold -> 0
  | Sk_attach -> 1
  | Sk_chain -> 2
  | Sk_delay_hop -> 3
  | Sk_hop -> 4
  | Sk_delay_egress -> 5
  | Sk_egress -> 6
  | Sk_proxy_order -> 7
  | Sk_bulk -> 8
  | Sk_stab -> 9

type span = {
  sk : span_kind;
  origin : int;
  seq : int;
  aux : int;
  site : int;
  peer : int;
  epoch : int;
}

type event =
  | Engine_step of { seq : int }
  | Link_send of { size_bytes : int }
  | Link_deliver
  | Link_drop of { in_flight : bool }
  | Fifo_resend of { sender : int; seq : int }
  | Label_forward of { dc : int; gear : int; ts : int; oseq : int; inst : int; epoch : int }
  | Serializer_hop of { from_ser : int; to_ser : int }
  | Serializer_deliver of { dc : int }
  | Delay_wait of { serializer : int; us : int }
  | Chain_ack of { seq : int }
  | Ser_commit of { ser : int; origin : int; oseq : int; epoch : int }
  | Head_change of { ser : int }
  | Sink_emit of { dc : int; ts : int }
  | Proxy_apply of { dc : int; src_dc : int; gear : int; ts : int; fallback : bool }
  | Proxy_mode of { dc : int; mode : mode }
  | Stab_round of { dc : int; gst : int }
  | Vec_advance of { dc : int; src : int; ts : int }
  | Switch_begin of { epoch : int; graceful : bool }
  | Switch_done of { dc : int; epoch : int }
  | Span_begin of span
  | Span_end of span

(* Interned kind ids: per-event counting bumps a dense [int array] slot
   instead of hashing the kind string. Span begins and ends share one
   "span.<kind>" bucket, matching [kind]. *)
let n_point_kinds = 19
let n_kinds = n_point_kinds + n_span_kinds

let kind_id = function
  | Engine_step _ -> 0
  | Link_send _ -> 1
  | Link_deliver -> 2
  | Link_drop _ -> 3
  | Fifo_resend _ -> 4
  | Label_forward _ -> 5
  | Serializer_hop _ -> 6
  | Serializer_deliver _ -> 7
  | Delay_wait _ -> 8
  | Chain_ack _ -> 9
  | Ser_commit _ -> 10
  | Head_change _ -> 11
  | Sink_emit _ -> 12
  | Proxy_apply _ -> 13
  | Proxy_mode _ -> 14
  | Stab_round _ -> 15
  | Vec_advance _ -> 16
  | Switch_begin _ -> 17
  | Switch_done _ -> 18
  | Span_begin s | Span_end s -> n_point_kinds + span_kind_id s.sk

let kind_names =
  Array.append
    [| "engine_step"; "link_send"; "link_deliver"; "link_drop"; "fifo_resend"; "label_forward";
       "serializer_hop"; "serializer_deliver"; "delay_wait"; "chain_ack"; "ser_commit";
       "head_change"; "sink_emit"; "proxy_apply"; "proxy_mode"; "stab_round"; "vec_advance";
       "switch_begin"; "switch_done" |]
    (Array.of_list (List.map (fun sk -> "span." ^ span_kind_name sk) span_kinds))

let mode_string = function Stream -> "stream" | Fallback -> "fallback"

let span_json t ph { sk; origin; seq; aux; site; peer; epoch } =
  Printf.sprintf
    {|{"t":%d,"ev":"span_%s","kind":"%s","origin":%d,"seq":%d,"aux":%d,"site":%d,"peer":%d,"epoch":%d}|}
    t ph (span_kind_name sk) origin seq aux site peer epoch

let to_json at ev =
  let t = Time.to_us at in
  match ev with
  | Engine_step { seq } -> Printf.sprintf {|{"t":%d,"ev":"engine_step","seq":%d}|} t seq
  | Link_send { size_bytes } -> Printf.sprintf {|{"t":%d,"ev":"link_send","bytes":%d}|} t size_bytes
  | Link_deliver -> Printf.sprintf {|{"t":%d,"ev":"link_deliver"}|} t
  | Link_drop { in_flight } ->
    Printf.sprintf {|{"t":%d,"ev":"link_drop","why":"%s"}|} t (if in_flight then "cut" else "down")
  | Fifo_resend { sender; seq } ->
    Printf.sprintf {|{"t":%d,"ev":"fifo_resend","sender":%d,"seq":%d}|} t sender seq
  | Label_forward { dc; gear; ts; oseq; inst; epoch } ->
    Printf.sprintf
      {|{"t":%d,"ev":"label_forward","dc":%d,"gear":%d,"ts":%d,"oseq":%d,"inst":%d,"epoch":%d}|} t
      dc gear ts oseq inst epoch
  | Serializer_hop { from_ser; to_ser } ->
    Printf.sprintf {|{"t":%d,"ev":"serializer_hop","from":%d,"to":%d}|} t from_ser to_ser
  | Serializer_deliver { dc } -> Printf.sprintf {|{"t":%d,"ev":"serializer_deliver","dc":%d}|} t dc
  | Delay_wait { serializer; us } ->
    Printf.sprintf {|{"t":%d,"ev":"delay_wait","serializer":%d,"us":%d}|} t serializer us
  | Chain_ack { seq } -> Printf.sprintf {|{"t":%d,"ev":"chain_ack","seq":%d}|} t seq
  | Ser_commit { ser; origin; oseq; epoch } ->
    Printf.sprintf {|{"t":%d,"ev":"ser_commit","ser":%d,"origin":%d,"oseq":%d,"epoch":%d}|} t ser
      origin oseq epoch
  | Head_change { ser } -> Printf.sprintf {|{"t":%d,"ev":"head_change","ser":%d}|} t ser
  | Sink_emit { dc; ts } -> Printf.sprintf {|{"t":%d,"ev":"sink_emit","dc":%d,"ts":%d}|} t dc ts
  | Proxy_apply { dc; src_dc; gear; ts; fallback } ->
    Printf.sprintf {|{"t":%d,"ev":"proxy_apply","dc":%d,"src":%d,"gear":%d,"ts":%d,"via":"%s"}|} t
      dc src_dc gear ts
      (if fallback then "fallback" else "stream")
  | Proxy_mode { dc; mode } ->
    Printf.sprintf {|{"t":%d,"ev":"proxy_mode","dc":%d,"mode":"%s"}|} t dc (mode_string mode)
  | Stab_round { dc; gst } -> Printf.sprintf {|{"t":%d,"ev":"stab_round","dc":%d,"gst":%d}|} t dc gst
  | Vec_advance { dc; src; ts } ->
    Printf.sprintf {|{"t":%d,"ev":"vec_advance","dc":%d,"src":%d,"ts":%d}|} t dc src ts
  | Switch_begin { epoch; graceful } ->
    Printf.sprintf {|{"t":%d,"ev":"switch_begin","epoch":%d,"mode":"%s"}|} t epoch
      (if graceful then "graceful" else "forced")
  | Switch_done { dc; epoch } ->
    Printf.sprintf {|{"t":%d,"ev":"switch_done","dc":%d,"epoch":%d}|} t dc epoch
  | Span_begin s -> span_json t "begin" s
  | Span_end s -> span_json t "end" s

type t = {
  keep : bool;
  mutable items : (Time.t * event) array;
  mutable len : int;
  mutable hash : int64;
  counts : int array; (* indexed by [kind_id] *)
  (* span pairing state: lives in the probe (not in [events]) so matched
     totals are available even on count-only (~keep:false) probes, which is
     what bench's flame table runs under *)
  open_spans : (span, Time.t) Hashtbl.t;
  span_us : int array; (* indexed by [span_kind_id] *)
  span_n : int array;
  mutable span_orphans : int;
  mutable stream : out_channel option;
}

let create ?(keep = true) () =
  { keep; items = Array.make 1024 (Time.zero, Link_deliver); len = 0; hash = Fnv.offset;
    counts = Array.make n_kinds 0; open_spans = Hashtbl.create 64;
    span_us = Array.make n_span_kinds 0; span_n = Array.make n_span_kinds 0; span_orphans = 0;
    stream = None }

let count t = t.len

let stream_jsonl t oc = t.stream <- Some oc

let record t at ev =
  let line = to_json at ev in
  t.hash <- Fnv.string (Fnv.string t.hash line) "\n";
  (match t.stream with
  | Some oc ->
    output_string oc line;
    output_char oc '\n'
  | None -> ());
  let kid = kind_id ev in
  t.counts.(kid) <- t.counts.(kid) + 1;
  (match ev with
  | Span_begin s ->
    (* keep the first begin: duplicates (none are expected from the core
       instrumentation) must not reset an open interval *)
    if not (Hashtbl.mem t.open_spans s) then Hashtbl.replace t.open_spans s at
  | Span_end s -> (
    match Hashtbl.find_opt t.open_spans s with
    | Some t0 ->
      Hashtbl.remove t.open_spans s;
      let sid = span_kind_id s.sk in
      t.span_us.(sid) <- t.span_us.(sid) + (Time.to_us at - Time.to_us t0);
      t.span_n.(sid) <- t.span_n.(sid) + 1
    | None -> t.span_orphans <- t.span_orphans + 1)
  | _ -> ());
  if t.keep then begin
    if t.len = Array.length t.items then begin
      let bigger = Array.make (2 * t.len) (Time.zero, Link_deliver) in
      Array.blit t.items 0 bigger 0 t.len;
      t.items <- bigger
    end;
    t.items.(t.len) <- (at, ev)
  end;
  t.len <- t.len + 1

let events t = if not t.keep then [] else List.init t.len (fun i -> t.items.(i))

(* rebuild the historical (name, count) view: nonzero slots only, so
   kinds a run never emitted stay absent, name-sorted *)
let sorted_nonzero names arr =
  let acc = ref [] in
  for i = Array.length arr - 1 downto 0 do
    if arr.(i) <> 0 then acc := (names i, arr.(i)) :: !acc
  done;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let span_name_of_id i = span_kind_name (List.nth span_kinds i)
let counts_by_kind t = sorted_nonzero (fun i -> kind_names.(i)) t.counts
let span_totals_us t = sorted_nonzero span_name_of_id t.span_us
let span_counts t = sorted_nonzero span_name_of_id t.span_n
let span_orphans t = t.span_orphans
let open_span_count t = Hashtbl.length t.open_spans

let digest t = Fnv.to_hex t.hash

let iter_jsonl t f =
  if not t.keep then invalid_arg "Probe.write_jsonl: probe created with ~keep:false";
  for i = 0 to t.len - 1 do
    let at, ev = t.items.(i) in
    f (to_json at ev)
  done

let write_jsonl t oc =
  iter_jsonl t (fun line ->
      output_string oc line;
      output_char oc '\n')

(* ---- the global sink ---------------------------------------------------- *)

(* One process-wide sink, Logs-reporter style: instrumentation points all
   over the simulator and the systems built on it stay a single branch on
   the fast path, and nothing has to thread a probe handle through every
   constructor. The simulator is single-threaded; installs are scoped by
   the observability entry points (smoke runs, tests). *)
let current : t option ref = ref None

let install t = current := Some t
let uninstall () = current := None
let active () = !current <> None

let emit ~at ev = match !current with None -> () | Some t -> record t at ev

let with_probe t f =
  let prev = !current in
  current := Some t;
  Fun.protect ~finally:(fun () -> current := prev) f
