(* Two union-finds over variable ids. [partition] and [relevant] build a
   mutable one with path compression per call, over the whole list: the
   solver partitions every query it is handed, and both serve as the
   reference the persistent {!index} is tested against. The engine keeps
   an {!index} per state instead, so slicing a query costs the groups it
   touches, not the path condition. *)

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

(* --- the persistent per-state index ------------------------------------- *)
(* A union-find over variable ids in an immutable map: union by size and
   no path compression, so [add] returns a new index and every older one
   (a forked sibling's, a merge token's base) stays valid and shares all
   untouched structure. A root carries its group's constraints tagged
   with their insertion number, newest first; group lists are merged by
   tag, so the lists that survive a union share their tails with the
   ones they came from. A ground constraint (no variables) gets a number
   but no group: [relevant] never returns one either. *)

module IM = Map.Make (Int)

type entry =
  | Link of int                            (* parent variable id *)
  | Root of int * (int * Expr.t) list      (* size, group newest first *)

type index = { uf : entry IM.t; next : int }

let empty = { uf = IM.empty; next = 0 }

(* A variable the index has never seen is a singleton root. *)
let rec root uf id =
  match IM.find_opt id uf with
  | Some (Link p) -> root uf p
  | Some (Root (size, cs)) -> (id, size, cs)
  | None -> (id, 1, [])

(* Merge two lists sorted by descending tag; the remainder of whichever
   list outlasts the other is shared, not copied. *)
let merge_tagged a b =
  let rec go acc a b =
    match a, b with
    | [], rest | rest, [] -> List.rev_append acc rest
    | ((ta, _) as x) :: a', ((tb, _) as y) :: b' ->
        if ta > tb then go (x :: acc) a' b else go (y :: acc) a b'
  in
  match a, b with [], l | l, [] -> l | _ -> go [] a b

let distinct_roots uf vars =
  List.fold_left
    (fun acc (v : Expr.var) ->
      let ((r, _, _) as x) = root uf v.Expr.id in
      if List.exists (fun (r', _, _) -> r' = r) acc then acc else x :: acc)
    [] vars

let add idx c =
  let tag = idx.next in
  match distinct_roots idx.uf (Expr.vars c) with
  | [] -> { idx with next = tag + 1 }
  | first :: rest ->
      (* The largest group's root becomes the root of the union. *)
      let r0, size0, cs0 =
        List.fold_left
          (fun ((_, sb, _) as b) ((_, s, _) as x) -> if s > sb then x else b)
          first rest
      in
      let uf, size, cs =
        List.fold_left
          (fun ((uf, size, cs) as acc) (r, s, cs') ->
            if r = r0 then acc
            else (IM.add r (Link r0) uf, size + s, merge_tagged cs cs'))
          (idx.uf, size0, cs0) (first :: rest)
      in
      { uf = IM.add r0 (Root (size, (tag, c) :: cs)) uf; next = tag + 1 }

let of_list cs = List.fold_right (fun c idx -> add idx c) cs empty

let slice idx e =
  match distinct_roots idx.uf (Expr.vars e) with
  | [] -> []
  | [ (_, _, cs) ] -> List.map snd cs
  | (_, _, cs) :: rest ->
      List.map snd
        (List.fold_left (fun acc (_, _, cs') -> merge_tagged acc cs') cs rest)
