open Expr

(* One top-level rewrite step applied to an already-recursively-simplified
   node. Returns [None] when no rule fires. *)
let step e =
  match e.node with
  (* ((x + c1) + c2)  -->  x + (c1 + c2); same with mixed add/sub. *)
  | Binop (Add, { node = Binop (Add, x, { node = Const (w, c1); _ }); _ },
           { node = Const (_, c2); _ }) ->
      Some (binop Add x (const w (c1 + c2)))
  | Binop (Add, { node = Binop (Sub, x, { node = Const (w, c1); _ }); _ },
           { node = Const (_, c2); _ }) ->
      Some (binop Add x (const w (c2 - c1)))
  | Binop (Sub, { node = Binop (Add, x, { node = Const (w, c1); _ }); _ },
           { node = Const (_, c2); _ }) ->
      Some (binop Add x (const w (c1 - c2)))
  | Binop (Sub, { node = Binop (Sub, x, { node = Const (w, c1); _ }); _ },
           { node = Const (_, c2); _ }) ->
      Some (binop Sub x (const w (c1 + c2)))
  (* Constant on the left of a commutative op: move right. *)
  | Binop (((Add | Mul | And | Or | Xor) as op), ({ node = Const _; _ } as c), x)
    when not (is_const x) ->
      Some (binop op x c)
  (* (x + c == d)  -->  (x == d - c), and friends; addition on W32 is a
     bijection so equality/disequality transfer exactly. *)
  | Cmp ((Eq | Ne) as op, { node = Binop (Add, x, { node = Const (w, c); _ }); _ },
         { node = Const (_, d); _ }) ->
      Some (cmp op x (const w (d - c)))
  | Cmp ((Eq | Ne) as op, { node = Binop (Sub, x, { node = Const (w, c); _ }); _ },
         { node = Const (_, d); _ }) ->
      Some (cmp op x (const w (d + c)))
  (* zext b != 0  -->  b ; zext b == 0  -->  !b   (b of width 1). *)
  | Cmp (Ne, { node = Zext b; _ }, { node = Const (_, 0); _ })
    when width_of b = W1 -> Some b
  | Cmp (Eq, { node = Zext b; _ }, { node = Const (_, 0); _ })
    when width_of b = W1 -> Some (not_ b)
  | Cmp (Eq, { node = Zext b; _ }, { node = Const (_, 1); _ })
    when width_of b = W1 -> Some b
  | Cmp (Ne, { node = Zext b; _ }, { node = Const (_, 1); _ })
    when width_of b = W1 -> Some (not_ b)
  (* Comparisons of a zero-extended byte against out-of-range constants. *)
  | Cmp (Eq, { node = Zext b; _ }, { node = Const (_, c); _ })
    when width_of b = W8 ->
      if c > 0xFF then Some fls else Some (cmp Eq b (byte c))
  | Cmp (Ne, { node = Zext b; _ }, { node = Const (_, c); _ })
    when width_of b = W8 ->
      if c > 0xFF then Some tru else Some (cmp Ne b (byte c))
  | Cmp (Ltu, { node = Zext b; _ }, { node = Const (_, c); _ })
    when width_of b = W8 && c > 0xFF -> Some tru
  | Cmp (Leu, { node = Zext b; _ }, { node = Const (_, c); _ })
    when width_of b = W8 && c >= 0xFF -> Some tru
  | Cmp (Ltu, { node = Const (_, c); _ }, { node = Zext b; _ })
    when width_of b = W8 && c >= 0xFF -> Some fls
  (* An unsigned value is never below zero and always >= 0. *)
  | Cmp (Ltu, _, { node = Const (_, 0); _ }) -> Some fls
  | Cmp (Leu, { node = Const (_, 0); _ }, _) -> Some tru
  (* if c then 1 else 0 (width 1 arms) is just c. *)
  | Ite (c, { node = Const (W1, 1); _ }, { node = Const (W1, 0); _ }) -> Some c
  | Ite (c, { node = Const (W1, 0); _ }, { node = Const (W1, 1); _ }) ->
      Some (not_ c)
  (* zext (if c then a else b) --> if c then zext a else zext b when the
     arms are constants: lets comparisons above it fold. *)
  | Cmp (op, { node = Ite (c, ({ node = Const _; _ } as a),
                            ({ node = Const _; _ } as b)); _ },
         ({ node = Const _; _ } as d)) ->
      Some (ite c (cmp op a d) (cmp op b d))
  | Cmp (op, ({ node = Const _; _ } as d),
         { node = Ite (c, ({ node = Const _; _ } as a),
                       ({ node = Const _; _ } as b)); _ }) ->
      Some (ite c (cmp op d a) (cmp op d b))
  (* Ite pushdown through operators when both arms are constants: the
     merged-state pattern ite(g, k1, k2) op k folds to ite(g, k1', k2'),
     keeping lifted values as cheap as the constants they replaced. *)
  | Binop (op, { node = Ite (c, ({ node = Const _; _ } as a),
                              ({ node = Const _; _ } as b)); _ },
           ({ node = Const _; _ } as d)) ->
      Some (ite c (binop op a d) (binop op b d))
  | Binop (op, ({ node = Const _; _ } as d),
           { node = Ite (c, ({ node = Const _; _ } as a),
                         ({ node = Const _; _ } as b)); _ }) ->
      Some (ite c (binop op d a) (binop op d b))
  | Extract ({ node = Ite (c, ({ node = Const _; _ } as a),
                           ({ node = Const _; _ } as b)); _ }, i) ->
      Some (ite c (extract a i) (extract b i))
  | Zext { node = Ite (c, ({ node = Const _; _ } as a),
                       ({ node = Const _; _ } as b)); _ } ->
      Some (ite c (zext a) (zext b))
  (* Nested ite on the same guard: the inner decision is already made. *)
  | Ite (c, { node = Ite (c', a, _); _ }, b) when equal c c' -> Some (ite c a b)
  | Ite (c, a, { node = Ite (c', _, b); _ }) when equal c c' -> Some (ite c a b)
  (* Negated guard: swap arms so structurally-equal lifts (one built from
     the taken arm, one from the fallthrough) normalize to one shape. *)
  | Ite ({ node = Not c; _ }, a, b) -> Some (ite c b a)
  | Binop (And, { node = Binop (And, x, { node = Const (w, c1); _ }); _ },
           { node = Const (_, c2); _ }) ->
      Some (binop And x (const w (c1 land c2)))
  | Binop (Or, { node = Binop (Or, x, { node = Const (w, c1); _ }); _ },
           { node = Const (_, c2); _ }) ->
      Some (binop Or x (const w (c1 lor c2)))
  | _ -> None

let rec fixpoint n e =
  if n = 0 then e
  else
    match step e with
    | None -> e
    | Some e' -> fixpoint (n - 1) e'

(* A rebuilt node equal to the one it came from is dropped for the
   original, so an already simplified expression comes back physically
   unchanged and goes on sharing with everything that holds it. *)
let keep e e' = if e' != e && equal e' e then e else e'

(* Bottom-up rebuild, memoized per call on physical nodes: a walk costs
   the number of distinct nodes, and a subterm shared in the input is
   shared in the output. *)
let simplify_in memo e =
  let rec go e =
    match e.node with
    | Const _ | Var _ -> e
    | node -> (
        match Memo.find memo e with
        | Some e' -> e'
        | None ->
            let e' =
              match node with
              | Const _ | Var _ -> e
              | Binop (op, a, b) -> binop op (go a) (go b)
              | Cmp (op, a, b) -> cmp op (go a) (go b)
              | Ite (c, a, b) -> ite (go c) (go a) (go b)
              | Extract (x, i) -> extract (go x) i
              | Concat4 (b3, b2, b1, b0) ->
                  concat4 (go b3) (go b2) (go b1) (go b0)
              | Zext x -> zext (go x)
              | Not x -> not_ (go x)
            in
            let e' = fixpoint 8 (keep e e') in
            Memo.add memo e e';
            e')
  in
  go e

let simplify e = simplify_in (Memo.create ()) e

let simplify_all es =
  let memo = Memo.create () in
  List.map (simplify_in memo) es

(* --- pruning under known path conditions -------------------------------- *)

(* Rewrite [e] assuming every constraint in [under] holds: boolean
   subterms that occur verbatim in the path condition become true (their
   verbatim negations false), which collapses [Ite]s whose guards a
   merged state has since re-decided. Substituting a truth value for a
   subterm equivalent to it under ALL models of the path condition is
   sound in any position, including under [Not]. Meant for the slow
   path: callers about to hand [e] to the solver anyway. *)
let prune ~under e =
  let known = Tbl.create (2 * List.length under) in
  List.iter
    (fun c ->
      Tbl.replace known c true;
      match c.node with
      | Not c' -> Tbl.replace known c' false
      | Cmp (Eq, a, b) -> Tbl.replace known (mk (Cmp (Ne, a, b))) false
      | Cmp (Ne, a, b) -> Tbl.replace known (mk (Cmp (Eq, a, b))) false
      | _ -> ())
    under;
  let memo = Memo.create () in
  let rec go e =
    match Tbl.find_opt known e with
    | Some true when width_of e = W1 -> tru
    | Some false when width_of e = W1 -> fls
    | _ -> (
        match e.node with
        | Const _ | Var _ -> e
        | node -> (
            match Memo.find memo e with
            | Some e' -> e'
            | None ->
                let e' =
                  match node with
                  | Const _ | Var _ -> e
                  | Ite (c, a, b) -> (
                      let c' = go c in
                      match to_const c' with
                      | Some 1 -> go a
                      | Some 0 -> go b
                      | _ -> ite c' (go a) (go b))
                  | Binop (op, a, b) -> binop op (go a) (go b)
                  | Cmp (op, a, b) -> cmp op (go a) (go b)
                  | Extract (x, i) -> extract (go x) i
                  | Concat4 (b3, b2, b1, b0) ->
                      concat4 (go b3) (go b2) (go b1) (go b0)
                  | Zext x -> zext (go x)
                  | Not x -> not_ (go x)
                in
                let e' = keep e e' in
                Memo.add memo e e';
                e'))
  in
  simplify (go e)
