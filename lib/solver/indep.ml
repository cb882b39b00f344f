(* Union-find over variable ids, with path compression. The structures are
   rebuilt per call: constraint sets are short (tens of entries) and the
   dominant cost is solving, not slicing. *)

module IH = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

type uf = int IH.t

let rec find (uf : uf) x =
  match IH.find_opt uf x with
  | None ->
      IH.replace uf x x;
      x
  | Some p when p = x -> x
  | Some p ->
      let r = find uf p in
      IH.replace uf x r;
      r

let union uf a b =
  let ra = find uf a and rb = find uf b in
  if ra <> rb then IH.replace uf ra rb

(* Build the equivalence classes for one constraint set. Returns the
   union-find plus each constraint paired with one of its variable ids
   ([None] for a ground constraint): all of a constraint's variables end
   up in one class, so any of them finds the class root. One walk over
   the whole set, memoized on physical nodes: a subterm shared within or
   across constraints is visited once, and what it contributes is the id
   its variables were unioned under. *)
let build cs =
  let uf = IH.create 32 in
  let memo = Expr.Memo.create () in
  let join r r' =
    match r, r' with
    | None, r | r, None -> r
    | Some a, Some b ->
        union uf a b;
        r
  in
  let rec rep (e : Expr.t) =
    match e.node with
    | Expr.Const _ -> None
    | Expr.Var v -> Some v.Expr.id
    | node -> (
        match Expr.Memo.find memo e with
        | Some r -> r
        | None ->
            let r =
              match node with
              | Expr.Const _ | Expr.Var _ -> None
              | Expr.Binop (_, a, b) | Expr.Cmp (_, a, b) -> join (rep a) (rep b)
              | Expr.Ite (c, a, b) -> join (join (rep c) (rep a)) (rep b)
              | Expr.Extract (x, _) | Expr.Zext x | Expr.Not x -> rep x
              | Expr.Concat4 (b3, b2, b1, b0) ->
                  join (join (join (rep b3) (rep b2)) (rep b1)) (rep b0)
            in
            Expr.Memo.add memo e r;
            r)
  in
  let creps = List.map (fun c -> (c, rep c)) cs in
  (uf, creps)

(* Key used for ground constraints (no variables). Variable ids are
   positive, so this never collides with a real root. *)
let ground_key = min_int

let partition cs =
  let uf, creps = build cs in
  let groups : Expr.t list ref IH.t = IH.create 8 in
  let order = ref [] in
  let add key c =
    match IH.find_opt groups key with
    | Some r -> r := c :: !r
    | None ->
        IH.replace groups key (ref [ c ]);
        order := key :: !order
  in
  List.iter
    (fun (c, r) ->
      match r with
      | None -> add ground_key c
      | Some id -> add (find uf id) c)
    creps;
  List.rev_map (fun key -> List.rev !(IH.find groups key)) !order

let relevant cs e =
  let uf, creps = build cs in
  let roots =
    List.fold_left
      (fun acc (v : Expr.var) ->
        let r = find uf v.Expr.id in
        if List.mem r acc then acc else r :: acc)
      [] (Expr.vars e)
  in
  List.filter_map
    (fun (c, r) ->
      match r with
      | None -> None
      | Some id -> if List.mem (find uf id) roots then Some c else None)
    creps
