type 'meta t = { tbl : (Value.t * 'meta) Sim.Int_tbl.t; mutable applied : int }

let create () = { tbl = Sim.Int_tbl.create 1024; applied = 0 }

let put t ~key v m =
  Sim.Int_tbl.replace t.tbl key (v, m);
  t.applied <- t.applied + 1

let put_if_newer t ~cmp ~key v m =
  match Sim.Int_tbl.find t.tbl key with
  | exception Not_found ->
    put t ~key v m;
    true
  | _, cur ->
    if cmp m cur > 0 then begin
      put t ~key v m;
      true
    end
    else false

let get t ~key = Sim.Int_tbl.find_opt t.tbl key
let mem t ~key = Sim.Int_tbl.mem t.tbl key
let size t = Sim.Int_tbl.length t.tbl

let puts_applied t = t.applied
