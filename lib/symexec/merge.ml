(* Dynamic state merging at post-dominators (veritesting-style).

   When a symbolic branch forks and the static merge-point map knows
   where the two arms reconverge, the engine opens a *merge token*: both
   children are tagged with (token, merge pc) and keep executing. A
   tagged state that reaches the merge pc *parks* in the pool instead of
   executing on; when every live carrier of the token has parked or
   died, the pool folds the arrivals — compatible states are fused into
   one, registers and COW memory lifted to [ite(cond_b, v_b, v_a)] over
   the disjoined path-condition suffixes, and the survivors go back to
   the frontier.

   Soundness does not lean on the post-dominator map: two states are
   only fused when they sit at the same pc with identical kernel
   context, replay pins, pending actions and checker-visible streams
   (all checked here), and their guards are disjoint by construction —
   every pair of fork-tree paths diverging from the token's base carries
   complementary branch constraints in both suffixes. The map only
   decides *where* tokens are worth opening.

   Tokens nest: forking under an open token commits both children to it
   (the tag list is a stack, innermost first), and a fold that absorbs a
   state releases that state's outer tokens too, which can cascade
   further folds — all run to fixpoint under the single pool lock, with
   the results handed back as an [outcome] record so the caller can
   retire absorbed states and requeue survivors *outside* the lock.

   Cost heuristic: a fold refuses a pair whose symbolic stores diverge
   too widely (COW diff over 256 addresses, more than 64 lifted values,
   oversized guards), and per-branch token/fused/refused counters bias
   future decisions — a branch whose merges keep getting refused stops
   opening tokens until fusions catch back up, falling back to plain
   forking. *)

module St = Symstate
module Expr = Ddt_solver.Expr
module Event = Ddt_trace.Event

type token = {
  tk_id : int;
  tk_branch_pc : int;             (* branch instruction, for heuristics *)
  tk_merge_pc : int;
  tk_base : Expr.t list;          (* constraint-list cell captured before
                                     the fork: the physical sync point
                                     suffix extraction walks to *)
  tk_base_idx : Ddt_solver.Indep.index;
                                  (* [tk_base]'s independence index, so a
                                     fused survivor's is one [add] away *)
  tk_kcalls : int;                (* kernel-call count at open; an arm
                                     that called the kernel is refused *)
  mutable tk_outstanding : int;   (* live carriers not yet parked *)
  mutable tk_parked : St.t list;
}

type bstat = {
  mutable bs_tokens : int;
  mutable bs_fused : int;
  mutable bs_refused : int;
}

type t = {
  lock : Mutex.t;
  tokens : (int, token) Hashtbl.t;
  branch_stats : (int, bstat) Hashtbl.t;
  weights : (int, int) Hashtbl.t;
      (* survivor state id -> states ever absorbed into it (transitive);
         each later fork of that survivor is that many forks avoided *)
  mutable next_token : int;
  mutable ever_opened : bool;
  mutable n_merged : int;
  mutable n_ites : int;
  mutable n_forks_avoided : int;
  mutable n_refused : int;
}

type outcome = {
  mo_requeue : St.t list;        (* fold survivors, tag popped *)
  mo_absorbed : St.t list;       (* fused away: retire unreported *)
}

type arrival =
  | A_continue
  | A_parked of outcome

let empty_outcome = { mo_requeue = []; mo_absorbed = [] }

let create () =
  {
    lock = Mutex.create ();
    tokens = Hashtbl.create 64;
    branch_stats = Hashtbl.create 64;
    weights = Hashtbl.create 64;
    next_token = 0;
    ever_opened = false;
    n_merged = 0;
    n_ites = 0;
    n_forks_avoided = 0;
    n_refused = 0;
  }

let bstat t pc =
  match Hashtbl.find_opt t.branch_stats pc with
  | Some b -> b
  | None ->
      let b = { bs_tokens = 0; bs_fused = 0; bs_refused = 0 } in
      Hashtbl.replace t.branch_stats pc b;
      b

(* Widest nesting we will commit a state to: a loop that opens a token
   per iteration resolves each at the join, so real stacks stay shallow;
   deeper ones mean the merge points are not being reached. *)
let max_nesting = 16

(* --- cost / compatibility limits ------------------------------------------ *)

let max_mem_diff = 256   (* differing COW addresses before we refuse *)
let max_ites = 64        (* lifted values per fused pair *)
let max_guard_size = 160 (* combined tree size of the two guards *)

(* The constraint suffix a state accumulated since the token opened:
   newest-first walk of the list down to the physically captured base
   cell. [None] if the base was rebuilt out from under us. *)
let suffix_to base cs =
  let rec go acc l =
    if l == base then Some acc
    else match l with [] -> None | c :: rest -> go (c :: acc) rest
  in
  (* accumulate oldest-first so the conjunction reads in path order *)
  go [] cs

let conj = function
  | [] -> Expr.tru
  | c :: rest -> List.fold_left Expr.and1 c rest

(* Fuse [b] into [a] (the survivor), or refuse. Only mutates [a] after
   every check has passed. *)
let try_fuse t tok (a : St.t) (b : St.t) =
  let module K = Ddt_kernel.Kstate in
  let compatible =
    a.St.entry_name = b.St.entry_name
    && a.St.int_enabled = b.St.int_enabled
    && a.St.pending == b.St.pending
    && a.St.choices == b.St.choices
    && a.St.injected_sites == b.St.injected_sites
    && a.St.sym_inputs == b.St.sym_inputs
    && a.St.pinned == b.St.pinned
    && a.St.replay_inputs == b.St.replay_inputs
    && a.St.replay_choices == b.St.replay_choices
    && K.kcall_count a.St.ks = tok.tk_kcalls
    && K.kcall_count b.St.ks = tok.tk_kcalls
    && Expr.equal a.St.regs.(Ddt_dvm.Isa.sp) b.St.regs.(Ddt_dvm.Isa.sp)
  in
  if not compatible then false
  else
    match
      ( suffix_to tok.tk_base a.St.constraints,
        suffix_to tok.tk_base b.St.constraints,
        Symmem.cow_diff a.St.mem b.St.mem )
    with
    | None, _, _ | _, None, _ | _, _, None -> false
    | Some sa, Some sb, Some addrs when List.length addrs <= max_mem_diff ->
        let ga = conj sa and gb = conj sb in
        (* Each capped count is exact up to the cap and cap + 1 past it,
           so the sum decides exactly as the full tree sizes would. *)
        if
          Expr.size_capped max_guard_size ga
          + Expr.size_capped max_guard_size gb
          > max_guard_size
        then false
        else begin
          let reg_diffs = ref [] in
          Array.iteri
            (fun r va ->
              if not (Expr.equal va b.St.regs.(r)) then
                reg_diffs := r :: !reg_diffs)
            a.St.regs;
          let mem_diffs =
            List.filter_map
              (fun addr ->
                let va = Symmem.read_u8 a.St.mem addr
                and vb = Symmem.read_u8 b.St.mem addr in
                if Expr.equal va vb then None else Some (addr, va, vb))
              addrs
          in
          if List.length !reg_diffs + List.length mem_diffs > max_ites then
            false
          else begin
            (* all checks passed: lift and absorb *)
            let guard = Expr.or1 ga gb in
            St.set_constraints a (guard :: tok.tk_base)
              (Ddt_solver.Indep.add tok.tk_base_idx guard);
            List.iter
              (fun r ->
                a.St.regs.(r) <- Expr.ite gb b.St.regs.(r) a.St.regs.(r);
                t.n_ites <- t.n_ites + 1)
              !reg_diffs;
            List.iter
              (fun (addr, va, vb) ->
                Symmem.write_u8 a.St.mem addr (Expr.ite gb vb va);
                t.n_ites <- t.n_ites + 1)
              mem_diffs;
            a.St.steps <- max a.St.steps b.St.steps;
            a.St.depth <- max a.St.depth b.St.depth;
            a.St.injections <- max a.St.injections b.St.injections;
            St.record a
              (Event.E_merge
                 { pc = tok.tk_merge_pc; absorbed = b.St.id; cond = gb });
            t.n_merged <- t.n_merged + 1;
            true
          end
        end
    | _ -> false

(* Fold every token in [work] (outstanding reached 0), cascading into
   outer tokens released by absorbed states. Runs under [t.lock]. *)
let fold_worklist t work =
  let queue = Queue.create () in
  List.iter (fun tok -> Queue.add tok queue) work;
  let requeue = ref [] and absorbed = ref [] in
  while not (Queue.is_empty queue) do
    let tok = Queue.pop queue in
    Hashtbl.remove t.tokens tok.tk_id;
    let arrivals =
      List.sort (fun x y -> compare x.St.id y.St.id) tok.tk_parked
    in
    tok.tk_parked <- [];
    (* pop this token's tag from every arrival *)
    List.iter
      (fun st ->
        match st.St.tags with
        | tag :: rest when tag.St.mt_token = tok.tk_id -> st.St.tags <- rest
        | _ -> ())
      arrivals;
    let bs = bstat t tok.tk_branch_pc in
    let survivors = ref [] in
    List.iter
      (fun st ->
        let rec attach = function
          | [] ->
              if !survivors <> [] then begin
                t.n_refused <- t.n_refused + 1;
                bs.bs_refused <- bs.bs_refused + 1
              end;
              survivors := !survivors @ [ st ]
          | s :: rest ->
              if try_fuse t tok s st then begin
                bs.bs_fused <- bs.bs_fused + 1;
                (* credit the survivor with everything [st] carried *)
                let w_st =
                  match Hashtbl.find_opt t.weights st.St.id with
                  | Some w -> w
                  | None -> 0
                in
                let w_s =
                  match Hashtbl.find_opt t.weights s.St.id with
                  | Some w -> w
                  | None -> 0
                in
                Hashtbl.replace t.weights s.St.id (w_s + w_st + 1);
                Hashtbl.remove t.weights st.St.id;
                (* the absorbed state's outer tokens lose a carrier *)
                List.iter
                  (fun (tag : St.merge_tag) ->
                    match Hashtbl.find_opt t.tokens tag.St.mt_token with
                    | Some outer ->
                        outer.tk_outstanding <- outer.tk_outstanding - 1;
                        if outer.tk_outstanding = 0 then
                          Queue.add outer queue
                    | None -> ())
                  st.St.tags;
                st.St.tags <- [];
                absorbed := st :: !absorbed
              end
              else attach rest
        in
        attach !survivors)
      arrivals;
    requeue := !survivors @ !requeue
  done;
  { mo_requeue = !requeue; mo_absorbed = !absorbed }

(* --- engine-facing operations --------------------------------------------- *)

(* Open a token for a fresh two-way fork at [branch_pc] whose arms
   reconverge at [merge_pc]. [base] is the parent's constraint list as
   captured *before* the fork added either arm's constraint, [base_idx]
   its index. Returns false (and tags nothing) when the per-branch
   history says merging here keeps getting refused. *)
let open_token t ~branch_pc ~merge_pc ~base ~base_idx (a : St.t)
    (b : St.t) =
  Mutex.lock t.lock;
  let bs = bstat t branch_pc in
  let ok =
    bs.bs_refused <= (2 * bs.bs_fused) + 8
    && List.length a.St.tags < max_nesting
  in
  if ok then begin
    t.ever_opened <- true;
    let id = t.next_token in
    t.next_token <- id + 1;
    let tok =
      { tk_id = id; tk_branch_pc = branch_pc; tk_merge_pc = merge_pc;
        tk_base = base; tk_base_idx = base_idx;
        tk_kcalls = Ddt_kernel.Kstate.kcall_count a.St.ks;
        tk_outstanding = 2; tk_parked = [] }
    in
    Hashtbl.replace t.tokens id tok;
    bs.bs_tokens <- bs.bs_tokens + 1;
    let tag = { St.mt_token = id; mt_pc = merge_pc } in
    a.St.tags <- tag :: a.St.tags;
    b.St.tags <- tag :: b.St.tags
  end;
  Mutex.unlock t.lock;
  ok

(* Every engine fork: a child inherits its parent's tags (one more live
   carrier per open token) and its merge weight (forks it performs were
   avoided once per state ever absorbed into this lineage). Call with
   the parent's tag list already shared into the child. *)
let note_fork t (parent : St.t) (child : St.t) =
  if t.ever_opened then begin
    Mutex.lock t.lock;
    List.iter
      (fun (tag : St.merge_tag) ->
        match Hashtbl.find_opt t.tokens tag.St.mt_token with
        | Some tok -> tok.tk_outstanding <- tok.tk_outstanding + 1
        | None -> ())
      parent.St.tags;
    (match Hashtbl.find_opt t.weights parent.St.id with
     | Some w when w > 0 ->
         t.n_forks_avoided <- t.n_forks_avoided + w;
         Hashtbl.replace t.weights child.St.id w
     | _ -> ());
    Mutex.unlock t.lock;
  end

(* The state stands at its innermost token's merge pc. Park it; if it
   was the last carrier out, fold now and hand back the results. The
   caller owns requeue/retire of the outcome (outside our lock). *)
let on_arrival t (st : St.t) =
  Mutex.lock t.lock;
  let r =
    match st.St.tags with
    | [] -> A_continue
    | tag :: rest -> (
        match Hashtbl.find_opt t.tokens tag.St.mt_token with
        | None ->
            (* stale tag (token already folded away): drop and go on *)
            st.St.tags <- rest;
            A_continue
        | Some tok ->
            tok.tk_parked <- st :: tok.tk_parked;
            tok.tk_outstanding <- tok.tk_outstanding - 1;
            if tok.tk_outstanding = 0 then
              A_parked (fold_worklist t [ tok ])
            else A_parked empty_outcome)
  in
  Mutex.unlock t.lock;
  r

(* A carrier died (crashed, returned, was discarded) without reaching
   its merge points: release every token it carried; the last release
   folds whatever siblings already parked. *)
let note_dead t (st : St.t) =
  if not t.ever_opened then empty_outcome
  else begin
    Mutex.lock t.lock;
    Hashtbl.remove t.weights st.St.id;
    let r =
      if st.St.tags = [] then empty_outcome
      else begin
        let tags = st.St.tags in
        st.St.tags <- [];
        let work = ref [] in
        List.iter
          (fun (tag : St.merge_tag) ->
            match Hashtbl.find_opt t.tokens tag.St.mt_token with
            | Some tok ->
                tok.tk_outstanding <- tok.tk_outstanding - 1;
                if tok.tk_outstanding = 0 then work := tok :: !work
            | None -> ())
          tags;
        if !work = [] then empty_outcome else fold_worklist t !work
      end
    in
    Mutex.unlock t.lock;
    r
  end

(* End-of-run safety valve: hand back every parked state (tags cleared,
   tokens dropped) so the session's final drain can retire them. With
   the outcome discipline above this is normally empty. *)
let drain_parked t =
  Mutex.lock t.lock;
  let parked =
    Hashtbl.fold (fun _ tok acc -> tok.tk_parked @ acc) t.tokens []
    (* sorted: hash-order here would leak into the final retirement
       order, which must not depend on table internals (a resumed run
       rebuilds the table and would iterate differently) *)
    |> List.sort (fun a b -> compare a.St.id b.St.id)
  in
  List.iter (fun st -> st.St.tags <- []) parked;
  Hashtbl.reset t.tokens;
  Mutex.unlock t.lock;
  parked

let stats t =
  Mutex.lock t.lock;
  let r = (t.n_merged, t.n_ites, t.n_forks_avoided, t.n_refused) in
  Mutex.unlock t.lock;
  r

(* --- checkpoint dump/restore ---------------------------------------------- *)
(* The pool minus its mutex, with parked states projected through ['a]
   (the caller passes [St.to_image]/[St.of_image]) so the dump can
   travel in the same Marshal blob as the frontier states — which is
   also what preserves the physical [tk_base]-is-a-suffix-of-the-
   carriers'-constraints identity that [suffix_to] depends on. *)

type 'a token_dump = {
  td_id : int;
  td_branch_pc : int;
  td_merge_pc : int;
  td_base : Expr.t list;
  td_kcalls : int;
  td_outstanding : int;
  td_parked : 'a list;
}

type 'a dump = {
  md_tokens : 'a token_dump list;         (* sorted by td_id *)
  md_branch_stats : (int * (int * int * int)) list;
  md_weights : (int * int) list;
  md_next_token : int;
  md_ever_opened : bool;
  md_merged : int;
  md_ites : int;
  md_forks_avoided : int;
  md_refused : int;
}

let dump t ~f =
  Mutex.lock t.lock;
  let tokens =
    Hashtbl.fold
      (fun _ tok acc ->
        {
          td_id = tok.tk_id;
          td_branch_pc = tok.tk_branch_pc;
          td_merge_pc = tok.tk_merge_pc;
          td_base = tok.tk_base;
          td_kcalls = tok.tk_kcalls;
          td_outstanding = tok.tk_outstanding;
          td_parked = List.map f tok.tk_parked;
        }
        :: acc)
      t.tokens []
    |> List.sort (fun a b -> compare a.td_id b.td_id)
  in
  let branch_stats =
    Hashtbl.fold
      (fun pc b acc -> (pc, (b.bs_tokens, b.bs_fused, b.bs_refused)) :: acc)
      t.branch_stats []
    |> List.sort compare
  in
  let weights =
    Hashtbl.fold (fun id w acc -> (id, w) :: acc) t.weights []
    |> List.sort compare
  in
  let d =
    {
      md_tokens = tokens;
      md_branch_stats = branch_stats;
      md_weights = weights;
      md_next_token = t.next_token;
      md_ever_opened = t.ever_opened;
      md_merged = t.n_merged;
      md_ites = t.n_ites;
      md_forks_avoided = t.n_forks_avoided;
      md_refused = t.n_refused;
    }
  in
  Mutex.unlock t.lock;
  d

let restore t ~f d =
  Mutex.lock t.lock;
  Hashtbl.reset t.tokens;
  Hashtbl.reset t.branch_stats;
  Hashtbl.reset t.weights;
  List.iter
    (fun td ->
      Hashtbl.replace t.tokens td.td_id
        {
          tk_id = td.td_id;
          tk_branch_pc = td.td_branch_pc;
          tk_merge_pc = td.td_merge_pc;
          tk_base = td.td_base;
          tk_base_idx = Ddt_solver.Indep.of_list td.td_base;
          tk_kcalls = td.td_kcalls;
          tk_outstanding = td.td_outstanding;
          tk_parked = List.map f td.td_parked;
        })
    d.md_tokens;
  List.iter
    (fun (pc, (tk, fu, re)) ->
      Hashtbl.replace t.branch_stats pc
        { bs_tokens = tk; bs_fused = fu; bs_refused = re })
    d.md_branch_stats;
  List.iter (fun (id, w) -> Hashtbl.replace t.weights id w) d.md_weights;
  t.next_token <- d.md_next_token;
  t.ever_opened <- d.md_ever_opened;
  t.n_merged <- d.md_merged;
  t.n_ites <- d.md_ites;
  t.n_forks_avoided <- d.md_forks_avoided;
  t.n_refused <- d.md_refused;
  Mutex.unlock t.lock

