type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable len : int;
}

let create ~cmp () = { cmp; data = [||]; len = 0 }
let size h = h.len
let is_empty h = h.len = 0

let grow h x =
  let cap = Array.length h.data in
  if h.len = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let ndata = Array.make ncap x in
    Array.blit h.data 0 ndata 0 h.len;
    h.data <- ndata
  end

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.cmp h.data.(i) h.data.(parent) < 0 then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.len && h.cmp h.data.(l) h.data.(!smallest) < 0 then smallest := l;
  if r < h.len && h.cmp h.data.(r) h.data.(!smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(!smallest);
    h.data.(!smallest) <- tmp;
    sift_down h !smallest
  end

let push h x =
  grow h x;
  h.data.(h.len) <- x;
  h.len <- h.len + 1;
  sift_up h (h.len - 1)

let peek h = if h.len = 0 then None else Some h.data.(0)

let pop h =
  if h.len = 0 then None
  else begin
    let top = h.data.(0) in
    h.len <- h.len - 1;
    if h.len > 0 then begin
      h.data.(0) <- h.data.(h.len);
      sift_down h 0
    end;
    Some top
  end

let pop_exn h =
  match pop h with
  | Some x -> x
  | None -> invalid_arg "Heap.pop_exn: empty heap"

let clear h = h.len <- 0

let to_list h =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (h.data.(i) :: acc) in
  loop (h.len - 1) []

module Keyed = struct
  (* Keys live in two parallel unboxed [int array]s instead of per-entry
     records, so a push/pop touches flat arrays and never allocates. The
     comparison is fixed lexicographic (k1, k2) — no closure call per
     sift step. The tree is 4-ary (children of [i] are [4i+1 .. 4i+4]):
     half the depth of a binary heap, and the four sibling keys share a
     cache line or two. Sifting moves a hole instead of swapping, so each
     level costs one write per array and the moving entry is stored once. *)
  type 'a t = {
    dummy : 'a;
    mutable k1 : int array;
    mutable k2 : int array;
    mutable data : 'a array;
    mutable len : int;
    mutable popped_k1 : int;
    mutable popped_k2 : int;
  }

  let create ?(capacity = 16) ~dummy () =
    let capacity = max capacity 1 in
    { dummy;
      k1 = Array.make capacity 0;
      k2 = Array.make capacity 0;
      data = Array.make capacity dummy;
      len = 0;
      popped_k1 = 0;
      popped_k2 = 0 }

  let size h = h.len
  let is_empty h = h.len = 0

  let grow h =
    let cap = Array.length h.data in
    if h.len = cap then begin
      let ncap = cap * 2 in
      let nk1 = Array.make ncap 0 and nk2 = Array.make ncap 0 in
      let ndata = Array.make ncap h.dummy in
      Array.blit h.k1 0 nk1 0 h.len;
      Array.blit h.k2 0 nk2 0 h.len;
      Array.blit h.data 0 ndata 0 h.len;
      h.k1 <- nk1;
      h.k2 <- nk2;
      h.data <- ndata
    end

  (* Moves the hole at [i] up past every ancestor ordering after (k1, k2)
     and returns where it stops. *)
  let rec sift_up (k1s : int array) (k2s : int array) data i (k1 : int) (k2 : int) =
    if i = 0 then 0
    else begin
      let p = (i - 1) lsr 2 in
      let pk1 = k1s.(p) in
      if k1 < pk1 || (k1 = pk1 && k2 < k2s.(p)) then begin
        k1s.(i) <- pk1;
        k2s.(i) <- k2s.(p);
        data.(i) <- data.(p);
        sift_up k1s k2s data p k1 k2
      end
      else i
    end

  (* Moves the hole at [i] down past every smallest child ordering before
     (k1, k2), among the first [n] entries, and returns where it stops. *)
  let rec sift_down (k1s : int array) (k2s : int array) data n i (k1 : int) (k2 : int) =
    let c = (4 * i) + 1 in
    if c >= n then i
    else begin
      let m = ref c and mk1 = ref k1s.(c) and mk2 = ref k2s.(c) in
      let last = if c + 3 < n then c + 3 else n - 1 in
      for j = c + 1 to last do
        let a = k1s.(j) in
        if a < !mk1 || (a = !mk1 && k2s.(j) < !mk2) then begin
          m := j;
          mk1 := a;
          mk2 := k2s.(j)
        end
      done;
      if !mk1 < k1 || (!mk1 = k1 && !mk2 < k2) then begin
        let m = !m in
        k1s.(i) <- !mk1;
        k2s.(i) <- !mk2;
        data.(i) <- data.(m);
        sift_down k1s k2s data n m k1 k2
      end
      else i
    end

  let push h ~k1 ~k2 x =
    grow h;
    let n = h.len in
    h.len <- n + 1;
    let i = sift_up h.k1 h.k2 h.data n k1 k2 in
    h.k1.(i) <- k1;
    h.k2.(i) <- k2;
    h.data.(i) <- x

  let top_exn h = if h.len = 0 then invalid_arg "Heap.Keyed.top_exn: empty heap" else h.data.(0)
  let min_k1 h = if h.len = 0 then invalid_arg "Heap.Keyed.min_k1: empty heap" else h.k1.(0)

  let pop_exn h =
    let n = h.len - 1 in
    if n < 0 then invalid_arg "Heap.Keyed.pop_exn: empty heap";
    let k1s = h.k1 and k2s = h.k2 and data = h.data in
    let top = data.(0) in
    h.popped_k1 <- k1s.(0);
    h.popped_k2 <- k2s.(0);
    h.len <- n;
    (* the last entry refills the root's hole *)
    let k1 = k1s.(n) and k2 = k2s.(n) and x = data.(n) in
    data.(n) <- h.dummy;
    if n > 0 then begin
      let i = sift_down k1s k2s data n 0 k1 k2 in
      k1s.(i) <- k1;
      k2s.(i) <- k2;
      data.(i) <- x
    end;
    top

  let popped_k1 h = h.popped_k1
  let popped_k2 h = h.popped_k2

  let clear h =
    Array.fill h.data 0 h.len h.dummy;
    h.len <- 0
end
