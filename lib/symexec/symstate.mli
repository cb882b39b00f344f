(** A symbolic execution state: conceptually a complete system snapshot
    (§4.1.2) — CPU registers holding expressions, copy-on-write symbolic
    memory, the path condition, a forked copy of the kernel state, the
    stack of pending interrupt continuations, and the execution trace. *)

module Expr = Ddt_solver.Expr
module Indep = Ddt_solver.Indep

type crash = {
  c_code : string;
  c_msg : string;
  c_pc : int;
}

type status =
  | Returned of int            (** invocation finished; concretized r0 *)
  | Crashed of crash
  | Discarded of string
  | Exhausted                  (** step budget or fuel ran out *)

(** Saved CPU context for nested (interrupt) driver invocations. *)
type saved_ctx = {
  s_regs : Expr.t array;
  s_pc : int;
  s_int : bool;
}

type post_action =
  | Pa_after_isr of saved_ctx * int    (** saved context, saved IRQL *)
  | Pa_after_dpc of saved_ctx * int
  | Pa_after_timer of saved_ctx * int

(** An open merge token this state is committed to: when the state
    reaches [mt_pc] (its branch's reconvergence point), it reports to
    the merge pool ({!Merge}) instead of executing on. Forking under an
    open token commits both children, so a state carries a stack of
    tags — innermost (most recently opened) token first. *)
type merge_tag = {
  mt_token : int;
  mt_pc : int;
}

type t = {
  id : int;
  parent_id : int;
  regs : Expr.t array;
  mutable pc : int;
  mutable int_enabled : bool;
  mem : Symmem.t;
  mutable constraints : Expr.t list;
  (** the path condition, newest first; written only by
      {!add_constraint} and {!set_constraints} *)
  mutable index : Indep.index;
  (** the independence groups of [constraints], kept in step with it;
      immutable, so {!fork} shares it and later adds never disturb a
      sibling's *)
  ks : Ddt_kernel.Kstate.t;
  mutable pending : post_action list;
  mutable trace : Ddt_trace.Event.t list;       (** newest first *)
  mutable choices : (string * string) list;     (** annotation decisions *)
  mutable sym_inputs : (Expr.var * string) list;
  mutable injections : int;
  mutable injected_sites : int list;
  mutable steps : int;
  mutable last_block : int;
  (** absolute address of the last basic-block leader this state executed
      (0 before the first); copied to children on fork. The scheduler's
      priority functions read it lock-free — a plain int field the owning
      worker writes. *)
  mutable status : status option;
  mutable entry_name : string;
  mutable depth : int;                          (** fork depth *)
  mutable replay_inputs : (string * int) list;
  (** replay mode: pending (name, value) pins, oldest first *)
  mutable replay_choices : (string * string) list;
  (** replay mode: pending (api, alternative) decisions, oldest first *)
  mutable pinned : Expr.t list;
  (** replay-mode pin constraints (a subset of [constraints], physically)
      — the merge pool refuses to fuse states whose pins differ *)
  mutable tags : merge_tag list;
  (** open merge tokens, innermost first; shared structurally with
      children on fork (the engine tells the pool about the new carrier
      via {!Merge.note_fork}) *)
}

val create : id:int -> mem:Symmem.t -> ks:Ddt_kernel.Kstate.t -> t
val fork : t -> id:int -> t

(** {1 Snapshots} *)

type image
(** The marshal-safe projection of a state: every field as plain data,
    with [mem] projected via {!Symmem.image}. The sibling-shared
    list tails that the merge pool matches by physical identity are
    carried as-is, so images marshalled together keep that sharing. *)

val to_image : t -> image
(** Non-destructive; the image aliases the live state's data. *)

val of_image :
  base:Ddt_dvm.Mem.t ->
  symdev:Ddt_hw.Symdev.t option ->
  image ->
  t
(** Rebuild a state over the session's base image and device, with a
    no-op sym-read hook (the engine reinstalls its own). The index is
    not part of the image; it is rebuilt from the constraints. *)
val record : t -> Ddt_trace.Event.t -> unit
val add_constraint : t -> Expr.t -> unit
(** Cons a constraint onto the path condition and its index. *)

val set_constraints : t -> Expr.t list -> Indep.index -> unit
(** Replace the path condition wholesale (a merge's fused survivor). The
    index must be the one of that list, e.g. {!Indep.add} of the index
    of a prefix it shares. *)
val reg_get : t -> int -> Expr.t
val reg_set : t -> int -> Expr.t -> unit
val terminated : t -> bool
val pp_status : Format.formatter -> status -> unit
