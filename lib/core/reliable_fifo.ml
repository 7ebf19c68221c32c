(* A receiver is bound to the one sender that connects to it, so its
   sequencing state is plain fields rather than tables keyed by sender. *)
type 'msg receiver = {
  r_deliver : 'msg receiver -> seq:int -> 'msg -> unit;
  mutable r_sender : int; (* id of the bound sender; -1 until connected *)
  mutable r_expected : int; (* next seq to deliver *)
  r_buffer : 'msg Sim.Int_tbl.t; (* out-of-order arrivals (only across cuts) *)
  (* deferred mode: number confirmed so far and delivered-unconfirmed *)
  mutable r_confirmed : int;
  r_unconfirmed : 'msg Sim.Int_tbl.t;
  mutable r_ack : int -> unit; (* cumulative ack back to the sender *)
  r_deferred : bool;
  mutable r_delivered : int;
}

type 'msg sender = {
  s_engine : Sim.Engine.t;
  s_id : int;
  resend_period : Sim.Time.t;
  mutable next_seq : int;
  (* the unacked window, seqs [first, next_seq), oldest first: seqs are
     dense, so it lives in rings indexed by [seq land (capacity - 1)] *)
  mutable first : int;
  mutable msgs : 'msg option array;
  mutable sizes : int array;
  mutable last_sent : Sim.Time.t array;
  mutable route : 'msg route option;
  mutable stopped : bool;
  mutable timer_running : bool;
}

and 'msg route = { data : Sim.Link.t; dest : 'msg receiver }

let make_receiver ~deferred ~deliver =
  { r_deliver = deliver; r_sender = -1; r_expected = 0; r_buffer = Sim.Int_tbl.create 8;
    r_confirmed = 0; r_unconfirmed = Sim.Int_tbl.create 8; r_ack = ignore; r_deferred = deferred;
    r_delivered = 0 }

let receiver _engine ~deliver =
  make_receiver ~deferred:false ~deliver:(fun _ ~seq:_ msg -> deliver msg)

let deliver_deferred consumer recv ~seq msg =
  let confirm () =
    if Sim.Int_tbl.mem recv.r_unconfirmed seq then begin
      Sim.Int_tbl.remove recv.r_unconfirmed seq;
      let confirmed = recv.r_confirmed in
      recv.r_confirmed <- confirmed + 1;
      recv.r_ack confirmed
    end
  in
  Sim.Int_tbl.replace recv.r_unconfirmed seq msg;
  consumer msg ~confirm

let receiver_deferred _engine ~deliver =
  make_receiver ~deferred:true ~deliver:(fun recv ~seq msg -> deliver_deferred deliver recv ~seq msg)

let redeliver_unconfirmed recv ~deliver =
  (* replay delivered-but-unconfirmed messages in sequence order: the
     consumer (a healed chain) may have lost them *)
  let sorted =
    List.sort
      (fun (q1, _) (q2, _) -> Int.compare q1 q2)
      (Sim.Int_tbl.fold (fun seq m acc -> (seq, m) :: acc) recv.r_unconfirmed [])
  in
  List.iter (fun (seq, msg) -> deliver_deferred deliver recv ~seq msg) sorted

let delivered r = r.r_delivered

let deliver_one recv seq msg =
  recv.r_expected <- seq + 1;
  recv.r_delivered <- recv.r_delivered + 1;
  recv.r_deliver recv ~seq msg

(* delivers whatever a gap was holding back *)
let rec drain recv =
  if Sim.Int_tbl.length recv.r_buffer > 0 then
    match Sim.Int_tbl.find recv.r_buffer recv.r_expected with
    | m ->
      Sim.Int_tbl.remove recv.r_buffer recv.r_expected;
      deliver_one recv recv.r_expected m;
      drain recv
    | exception Not_found -> ()

let receive recv ~seq msg =
  if seq = recv.r_expected then begin
    (* the common case: in order, delivered directly *)
    deliver_one recv seq msg;
    drain recv
  end
  else if seq > recv.r_expected then Sim.Int_tbl.replace recv.r_buffer seq msg;
  if recv.r_deferred then begin
    (* ack only the confirmed prefix *)
    if recv.r_confirmed > 0 then recv.r_ack (recv.r_confirmed - 1)
  end
  else
    (* cumulative ack: everything below expected has been delivered *)
    recv.r_ack (recv.r_expected - 1)

let sender s_engine ~resend_period =
  (* engine-scoped, not process-global: the id reaches the probe stream
     via [Fifo_resend], and a global counter would make a second
     same-seed run in the same process digest differently *)
  { s_engine; s_id = Sim.Engine.fresh_id s_engine; resend_period; next_seq = 0; first = 0;
    msgs = Array.make 16 None; sizes = Array.make 16 0; last_sent = Array.make 16 Sim.Time.zero;
    route = None; stopped = false; timer_running = false }

let unacked s = s.next_seq - s.first

let transmit s route seq =
  let i = seq land (Array.length s.msgs - 1) in
  s.last_sent.(i) <- Sim.Engine.now s.s_engine;
  match s.msgs.(i) with
  | Some msg -> Sim.Link.send route.data ~size_bytes:s.sizes.(i) (fun () -> receive route.dest ~seq msg)
  | None -> assert false (* every seq in the window holds its message *)

(* cumulative ack: drop the acked prefix of the window *)
let drop_acked s acked =
  while s.first <= acked do
    s.msgs.(s.first land (Array.length s.msgs - 1)) <- None;
    s.first <- s.first + 1
  done

(* doubles the rings when the window fills them *)
let grow s =
  let cap = Array.length s.msgs in
  if s.next_seq - s.first = cap then begin
    let msgs = Array.make (2 * cap) None
    and sizes = Array.make (2 * cap) 0
    and last_sent = Array.make (2 * cap) Sim.Time.zero in
    for seq = s.first to s.next_seq - 1 do
      let i = seq land (cap - 1) and j = seq land ((2 * cap) - 1) in
      msgs.(j) <- s.msgs.(i);
      sizes.(j) <- s.sizes.(i);
      last_sent.(j) <- s.last_sent.(i)
    done;
    s.msgs <- msgs;
    s.sizes <- sizes;
    s.last_sent <- last_sent
  end

let rec arm_timer s =
  if (not s.timer_running) && not s.stopped then begin
    s.timer_running <- true;
    Sim.Engine.schedule s.s_engine ~delay:s.resend_period (fun () ->
        s.timer_running <- false;
        if not s.stopped then begin
          let now = Sim.Engine.now s.s_engine in
          (match s.route with
          | None -> ()
          | Some route ->
            (* retransmit only entries that have been in flight for a full
               period — fresh entries are just waiting on the normal RTT *)
            for seq = s.first to s.next_seq - 1 do
              let last_sent = s.last_sent.(seq land (Array.length s.msgs - 1)) in
              if Sim.Time.compare (Sim.Time.sub now last_sent) s.resend_period >= 0 then begin
                if Sim.Probe.active () then
                  Sim.Probe.emit ~at:now (Sim.Probe.Fifo_resend { sender = s.s_id; seq });
                transmit s route seq
              end
            done);
          if unacked s > 0 then arm_timer s
        end)
  end

let send s ?(size_bytes = 0) msg =
  match s.route with
  | None -> invalid_arg "Reliable_fifo.send: not connected"
  | Some route ->
    grow s;
    let seq = s.next_seq in
    s.next_seq <- seq + 1;
    let i = seq land (Array.length s.msgs - 1) in
    s.msgs.(i) <- Some msg;
    s.sizes.(i) <- size_bytes;
    transmit s route seq;
    arm_timer s

let connect s ~data ~ack dest =
  if dest.r_sender >= 0 && dest.r_sender <> s.s_id then
    invalid_arg "Reliable_fifo.connect: receiver already bound to another sender";
  dest.r_sender <- s.s_id;
  dest.r_ack <- (fun acked -> Sim.Link.send ack (fun () -> drop_acked s acked));
  let route = { data; dest } in
  s.route <- Some route;
  for seq = s.first to s.next_seq - 1 do
    transmit s route seq
  done;
  if unacked s > 0 then arm_timer s

let stop s = s.stopped <- true
