(** Constraint-independence slicing (Klee's first query optimization).

    Two constraints are dependent when they share a symbolic variable,
    directly or transitively through other constraints. {!partition}
    splits a constraint set into the equivalence classes of that relation
    (computed by union-find over {!Expr.vars}); the classes touch
    pairwise-disjoint variable sets, so each can be solved separately and
    the per-class models unioned into a model of the whole conjunction.

    Path conditions produced by driver exploration are dominated by many
    small independent facts (a registry parameter bound here, a status
    register bit there), so slicing turns one big query into several tiny
    ones — and keeps the {!Qcache} keys stable when a new constraint only
    touches one group.

    {!partition} and {!relevant} work on a plain list and rebuild their
    union-find on every call. The symbolic engine keeps a persistent
    {!index} per state instead, grown one constraint at a time, so the
    slice a query needs costs its own groups rather than a walk over the
    whole path condition. *)

val partition : Expr.t list -> Expr.t list list
(** Variable-disjoint groups, ordered by first appearance; constraints
    keep their relative order inside each group. Constraints with no
    variables (not folded away upstream) are gathered into one group. *)

val relevant : Expr.t list -> Expr.t -> Expr.t list
(** [relevant constraints e] keeps only the constraints in groups sharing
    a variable (transitively) with [e] — the slice that can influence the
    value of [e]. Order is preserved. *)

(** {1 Persistent index}

    The groups of a path condition, kept incrementally. An index is
    immutable: {!add} returns a new one and leaves the old one valid, so
    forked states share it and a merge can restart from the index of a
    common prefix. *)

type index

val empty : index

val add : index -> Expr.t -> index
(** [add idx c] is the index of the path condition [c :: cs], where [idx]
    is the index of [cs]. Cost: the unions [c]'s variables cause, plus
    merging the group lists they join. *)

val of_list : Expr.t list -> index
(** The index of a path condition given newest first (the engine's
    order): [of_list (c :: cs) = add (of_list cs) c]. *)

val slice : index -> Expr.t -> Expr.t list
(** [slice (of_list cs) e] is exactly [relevant cs e]: the same physical
    constraints in the same (path-condition) order. Costs the groups that
    share a variable with [e], not the whole path condition. *)
