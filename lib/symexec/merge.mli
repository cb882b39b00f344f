(** Dynamic state merging at post-dominators (veritesting-style).

    The pool tracks *merge tokens*: a symbolic fork whose arms
    reconverge (per the static merge-point map) tags both children;
    tagged states park here when they reach the token's merge pc, and
    when the last live carrier parks or dies the token *folds* —
    compatible arrivals are fused into one state whose registers and
    copy-on-write memory are lifted to [ite(cond_b, v_b, v_a)] over the
    disjoined path-condition suffixes.

    Fusion refuses states whose kernel context, replay pins, pending
    actions or checker-visible streams differ, and a cost heuristic
    (store-divergence caps plus per-branch fused/refused history) falls
    back to plain forking when lifting would be more expensive than the
    fork subtree it replaces.

    All operations are safe to call from any worker; folds run under
    the pool's lock and hand their effects back as an {!outcome} so the
    caller retires absorbed states and requeues survivors outside it. *)

type t

(** What a fold decided; apply with the engine's own retire/requeue. *)
type outcome = {
  mo_requeue : Symstate.t list;   (** fold survivors, tag popped *)
  mo_absorbed : Symstate.t list;  (** fused away: retire unreported *)
}

type arrival =
  | A_continue  (** stale tag dropped — keep executing *)
  | A_parked of outcome
      (** the state now belongs to the pool; stop executing it *)

val empty_outcome : outcome

val create : unit -> t

val open_token :
  t ->
  branch_pc:int ->
  merge_pc:int ->
  base:Ddt_solver.Expr.t list ->
  base_idx:Ddt_solver.Indep.index ->
  Symstate.t ->
  Symstate.t ->
  bool
(** Open a token for a fresh two-way fork whose arms reconverge at
    [merge_pc]. [base] is the parent's constraint list captured before
    the fork consed either arm's constraint, and [base_idx] its
    {!Ddt_solver.Indep.index}: a fused survivor's path condition is one
    disjunction consed onto [base], and its index one
    {!Ddt_solver.Indep.add} onto [base_idx]. Tags both states and
    returns [true], or returns [false] without tagging when the
    per-branch history says merging here keeps getting refused (or the
    states' tag stacks are already at the nesting cap). *)

val note_fork : t -> Symstate.t -> Symstate.t -> unit
(** [note_fork t parent child]: the child inherited the parent's tags —
    each open token gains a carrier — and the parent's merge weight
    (forks by a state that absorbed siblings are forks avoided). *)

val on_arrival : t -> Symstate.t -> arrival
(** The state stands at its innermost token's merge pc; park it. The
    last carrier in triggers the fold. *)

val note_dead : t -> Symstate.t -> outcome
(** A carrier terminated without reaching its merge points: release
    every token it holds; the last release folds the parked siblings. *)

val drain_parked : t -> Symstate.t list
(** End-of-run safety valve: every still-parked state (sorted by state
    id), tags cleared and tokens dropped, for the engine's final drain
    to retire. *)

val stats : t -> int * int * int * int
(** (states merged, ites introduced, forks avoided, merges refused). *)

(** {1 Checkpointing}

    The pool as marshal-safe data. Parked states are projected through
    ['a] — pass [Symstate.to_image]/[Symstate.of_image] — and token
    base lists are carried verbatim, so a dump marshalled in the same
    blob as the frontier's state images preserves the physical
    base-is-a-suffix-of-the-carrier's-constraints identity that suffix
    extraction matches on. *)

type 'a token_dump = {
  td_id : int;
  td_branch_pc : int;
  td_merge_pc : int;
  td_base : Ddt_solver.Expr.t list;
  td_kcalls : int;
  td_outstanding : int;
  td_parked : 'a list;
}

type 'a dump = {
  md_tokens : 'a token_dump list;  (** sorted by [td_id] *)
  md_branch_stats : (int * (int * int * int)) list;
  md_weights : (int * int) list;
  md_next_token : int;
  md_ever_opened : bool;
  md_merged : int;
  md_ites : int;
  md_forks_avoided : int;
  md_refused : int;
}

val dump : t -> f:(Symstate.t -> 'a) -> 'a dump

val restore : t -> f:('a -> Symstate.t) -> 'a dump -> unit
(** Replace a fresh pool's contents with the dump's. *)
