type t = {
  n : int;
  adj : int list array;
  edges : (int * int) list;
  attach : int array;
  dcs_at : int list array;
  next : int array array; (* next.(a).(b) = neighbor of a toward b; -1 on diagonal *)
  toward : int array array; (* toward.(at).(dc) = neighbor of at toward dc; -1 if attached at at *)
}

let bfs_parents adj root =
  let n = Array.length adj in
  let parent = Array.make n (-1) in
  let visited = Array.make n false in
  let q = Queue.create () in
  visited.(root) <- true;
  Queue.push root q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun v ->
        if not visited.(v) then begin
          visited.(v) <- true;
          parent.(v) <- u;
          Queue.push v q
        end)
      adj.(u)
  done;
  (parent, visited)

let create ~n_serializers ~edges ~attach =
  let n = n_serializers in
  if n < 1 then invalid_arg "Tree.create: need at least one serializer";
  if List.length edges <> n - 1 then invalid_arg "Tree.create: a tree over n nodes has n-1 edges";
  let adj = Array.make n [] in
  List.iter
    (fun (a, b) ->
      if a < 0 || a >= n || b < 0 || b >= n || a = b then
        invalid_arg "Tree.create: invalid edge";
      adj.(a) <- b :: adj.(a);
      adj.(b) <- a :: adj.(b))
    edges;
  let _, visited = bfs_parents adj 0 in
  if not (Array.for_all Fun.id visited) then invalid_arg "Tree.create: disconnected";
  Array.iter
    (fun s -> if s < 0 || s >= n then invalid_arg "Tree.create: attachment out of range")
    attach;
  let n_dcs = Array.length attach in
  let dcs_at = Array.make n [] in
  for dc = n_dcs - 1 downto 0 do
    dcs_at.(attach.(dc)) <- dc :: dcs_at.(attach.(dc))
  done;
  (* next hops: BFS from every destination; next.(a).(dst) follows parents. *)
  let next = Array.make_matrix n n (-1) in
  for dst = 0 to n - 1 do
    let parent, _ = bfs_parents adj dst in
    for a = 0 to n - 1 do
      if a <> dst then next.(a).(dst) <- parent.(a)
    done
  done;
  let toward =
    Array.init n (fun at ->
        Array.map (fun s -> if s = at then -1 else next.(at).(s)) attach)
  in
  { n; adj; edges; attach; dcs_at; next; toward }

let star ~n_dcs = create ~n_serializers:1 ~edges:[] ~attach:(Array.make n_dcs 0)
let n_serializers t = t.n
let n_dcs t = Array.length t.attach
let edges t = t.edges
let neighbors t s = t.adj.(s)
let serializer_of t ~dc = t.attach.(dc)
let dcs_at t s = t.dcs_at.(s)

let next_hop t ~src ~dst =
  if src = dst then invalid_arg "Tree.next_hop: src = dst";
  t.next.(src).(dst)

let serializer_path t ~src_dc ~dst_dc =
  let src = t.attach.(src_dc) and dst = t.attach.(dst_dc) in
  let rec walk s acc = if s = dst then List.rev (s :: acc) else walk t.next.(s).(dst) (s :: acc) in
  walk src []

let hop_toward t ~at ~dc = t.toward.(at).(dc)

let pp ppf t =
  Format.fprintf ppf "tree(%d serializers; edges:" t.n;
  List.iter (fun (a, b) -> Format.fprintf ppf " %d-%d" a b) t.edges;
  Format.fprintf ppf "; attach:";
  Array.iteri (fun dc s -> Format.fprintf ppf " dc%d→s%d" dc s) t.attach;
  Format.fprintf ppf ")"
