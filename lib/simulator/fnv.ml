let offset = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let string h s =
  let h = ref h in
  String.iter (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime) s;
  !h

let int h x =
  let h = ref h in
  for i = 0 to 7 do
    let b = (x lsr (i * 8)) land 0xff in
    h := Int64.mul (Int64.logxor !h (Int64.of_int b)) prime
  done;
  !h

let to_hex h = Printf.sprintf "%016Lx" h
