module Expr = Ddt_solver.Expr

type node = {
  parent : node option;
  writes : (int, Expr.t) Hashtbl.t;
}

type t = {
  mutable node : node;
  base : Ddt_dvm.Mem.t;
  mutable cache : (int, Expr.t) Hashtbl.t;
  symdev : Ddt_hw.Symdev.t option;
  mutable sym_read_hook : string -> Expr.var -> unit;
}

let create ~base ~symdev =
  {
    node = { parent = None; writes = Hashtbl.create 64 };
    base;
    cache = Hashtbl.create 64;
    symdev;
    sym_read_hook = (fun _ _ -> ());
  }

let fork t =
  let old = t.node in
  t.node <- { parent = Some old; writes = Hashtbl.create 16 };
  {
    t with
    node = { parent = Some old; writes = Hashtbl.create 16 };
    cache = Hashtbl.copy t.cache;
  }

let set_sym_read_hook t f = t.sym_read_hook <- f

let is_mmio t addr =
  match t.symdev with
  | Some d -> Ddt_hw.Symdev.is_device_addr d addr
  | None -> false

let read_u8 t addr =
  let addr = addr land 0xFFFFFFFF in
  if is_mmio t addr then begin
    (* Fully symbolic hardware: every read is a fresh unconstrained value. *)
    let d = Option.get t.symdev in
    let e = Ddt_hw.Symdev.fresh_read d addr in
    (match e.Expr.node with
     | Expr.Var v -> t.sym_read_hook v.Expr.name v
     | _ -> ());
    e
  end
  else
    match Hashtbl.find_opt t.cache addr with
    | Some v -> v
    | None ->
        let rec walk = function
          | None -> Expr.byte (Ddt_dvm.Mem.read_u8 t.base addr)
          | Some n -> (
              match Hashtbl.find_opt n.writes addr with
              | Some v -> v
              | None -> walk n.parent)
        in
        let v = walk (Some t.node) in
        Hashtbl.replace t.cache addr v;
        v

let write_u8 t addr v =
  let addr = addr land 0xFFFFFFFF in
  if is_mmio t addr then
    (* Symbolic hardware discards register writes. *)
    ()
  else begin
    Hashtbl.replace t.node.writes addr v;
    Hashtbl.replace t.cache addr v
  end

let read_u32 t addr =
  let b0 = read_u8 t addr in
  let b1 = read_u8 t (addr + 1) in
  let b2 = read_u8 t (addr + 2) in
  let b3 = read_u8 t (addr + 3) in
  Expr.concat4 b3 b2 b1 b0

let write_u32 t addr v =
  for i = 0 to 3 do
    write_u8 t (addr + i) (Expr.extract v i)
  done

let read_u8_concrete_view t valuation addr = valuation (read_u8 t addr)

(* Addresses either side wrote since their common COW ancestor — the
   only bytes two sibling memories can disagree on, since everything
   below the shared node is frozen at fork time. [None] when the
   memories share no ancestor (different sessions; the caller must not
   merge them). Write tables never contain MMIO addresses, so the diff
   is purely RAM. *)
let cow_diff a b =
  let depth m =
    let rec go acc = function None -> acc | Some n -> go (acc + 1) n.parent in
    go 0 (Some m.node)
  in
  let rec up n k = if k <= 0 then n else up (Option.get n.parent) (k - 1) in
  let da = depth a and db = depth b in
  let na = up a.node (max 0 (da - db)) and nb = up b.node (max 0 (db - da)) in
  let rec ancestor na nb =
    if na == nb then Some na
    else
      match (na.parent, nb.parent) with
      | Some pa, Some pb -> ancestor pa pb
      | _ -> None
  in
  match ancestor na nb with
  | None -> None
  | Some anc ->
      let addrs = Hashtbl.create 32 in
      let collect top =
        let rec go n =
          if not (n == anc) then begin
            Hashtbl.iter (fun addr _ -> Hashtbl.replace addrs addr ()) n.writes;
            match n.parent with Some p -> go p | None -> ()
          end
        in
        go top
      in
      collect a.node;
      collect b.node;
      Some (List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) addrs []))

let chain_depth t =
  let rec go acc = function
    | None -> acc
    | Some n -> go (acc + 1) n.parent
  in
  go 0 (Some t.node)

let live_words t =
  let rec go acc = function
    | None -> acc
    | Some n -> go (acc + Hashtbl.length n.writes) n.parent
  in
  go 0 (Some t.node)

(* --- snapshot projection -------------------------------------------------- *)
(* The marshal-safe part of a memory: the COW node chain and the read
   cache — pure data. The shared base image, the symbolic device and the
   read hook are session infrastructure, reattached at restore; dropping
   them here is also what keeps sibling snapshots small (they share every
   node below their fork points, and Marshal preserves that sharing when
   siblings travel in one blob). *)

type image = {
  im_node : node;
  im_cache : (int, Expr.t) Hashtbl.t;
}

let to_image t = { im_node = t.node; im_cache = t.cache }

let of_image ~base ~symdev im =
  {
    node = im.im_node;
    base;
    cache = im.im_cache;
    symdev;
    sym_read_hook = (fun _ _ -> ());
  }
