module Expr = Ddt_solver.Expr
module Indep = Ddt_solver.Indep

type crash = {
  c_code : string;
  c_msg : string;
  c_pc : int;
}

type status =
  | Returned of int
  | Crashed of crash
  | Discarded of string
  | Exhausted

type saved_ctx = {
  s_regs : Expr.t array;
  s_pc : int;
  s_int : bool;
}

type post_action =
  | Pa_after_isr of saved_ctx * int
  | Pa_after_dpc of saved_ctx * int
  | Pa_after_timer of saved_ctx * int

(* An open merge token this state is committed to: when the state
   reaches [mt_pc] (the branch's immediate post-dominator), it reports
   to the merge pool instead of executing on. Forking under an open
   token commits both children, so the list is a stack — innermost
   (most recently opened) token first. *)
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
  mutable index : Indep.index;
  ks : Ddt_kernel.Kstate.t;
  mutable pending : post_action list;
  mutable trace : Ddt_trace.Event.t list;
  mutable choices : (string * string) list;
  mutable sym_inputs : (Expr.var * string) list;
  mutable injections : int;
  mutable injected_sites : int list;
  mutable steps : int;
  mutable last_block : int;
  mutable status : status option;
  mutable entry_name : string;
  mutable depth : int;
  mutable replay_inputs : (string * int) list;
  mutable replay_choices : (string * string) list;
  mutable pinned : Expr.t list;
  mutable tags : merge_tag list;
}

let create ~id ~mem ~ks =
  {
    id;
    parent_id = 0;
    regs = Array.make Ddt_dvm.Isa.num_regs (Expr.word 0);
    pc = 0;
    int_enabled = true;
    mem;
    constraints = [];
    index = Indep.empty;
    ks;
    pending = [];
    trace = [];
    choices = [];
    sym_inputs = [];
    injections = 0;
    injected_sites = [];
    steps = 0;
    last_block = 0;
    status = None;
    entry_name = "";
    depth = 0;
    replay_inputs = [];
    replay_choices = [];
    pinned = [];
    tags = [];
  }

let fork t ~id =
  {
    t with
    id;
    parent_id = t.id;
    regs = Array.copy t.regs;
    mem = Symmem.fork t.mem;
    ks = Ddt_kernel.Kstate.copy t.ks;
    depth = t.depth + 1;
    status = None;
  }

(* --- snapshot projection -------------------------------------------------- *)
(* Everything but [mem] is plain data; it is projected through
   Symmem.image (drops the shared base/device/hook). Crucially the list
   fields (constraints, pending, choices, sym_inputs, pinned, replay_*,
   injected_sites, tags) are carried as-is: forked siblings share their tails physically, the
   merge pool matches states by that sharing ([==]), and Marshal
   preserves it for every image travelling in one blob. *)

type image = {
  im_id : int;
  im_parent_id : int;
  im_regs : Expr.t array;
  im_pc : int;
  im_int_enabled : bool;
  im_mem : Symmem.image;
  im_constraints : Expr.t list;
  im_ks : Ddt_kernel.Kstate.t;
  im_pending : post_action list;
  im_trace : Ddt_trace.Event.t list;
  im_choices : (string * string) list;
  im_sym_inputs : (Expr.var * string) list;
  im_injections : int;
  im_injected_sites : int list;
  im_steps : int;
  im_last_block : int;
  im_status : status option;
  im_entry_name : string;
  im_depth : int;
  im_replay_inputs : (string * int) list;
  im_replay_choices : (string * string) list;
  im_pinned : Expr.t list;
  im_tags : merge_tag list;
}

let to_image t =
  {
    im_id = t.id;
    im_parent_id = t.parent_id;
    im_regs = t.regs;
    im_pc = t.pc;
    im_int_enabled = t.int_enabled;
    im_mem = Symmem.to_image t.mem;
    im_constraints = t.constraints;
    im_ks = t.ks;
    im_pending = t.pending;
    im_trace = t.trace;
    im_choices = t.choices;
    im_sym_inputs = t.sym_inputs;
    im_injections = t.injections;
    im_injected_sites = t.injected_sites;
    im_steps = t.steps;
    im_last_block = t.last_block;
    im_status = t.status;
    im_entry_name = t.entry_name;
    im_depth = t.depth;
    im_replay_inputs = t.replay_inputs;
    im_replay_choices = t.replay_choices;
    im_pinned = t.pinned;
    im_tags = t.tags;
  }

let of_image ~base ~symdev im =
  {
    id = im.im_id;
    parent_id = im.im_parent_id;
    regs = im.im_regs;
    pc = im.im_pc;
    int_enabled = im.im_int_enabled;
    mem = Symmem.of_image ~base ~symdev im.im_mem;
    constraints = im.im_constraints;
    index = Indep.of_list im.im_constraints;
    ks = im.im_ks;
    pending = im.im_pending;
    trace = im.im_trace;
    choices = im.im_choices;
    sym_inputs = im.im_sym_inputs;
    injections = im.im_injections;
    injected_sites = im.im_injected_sites;
    steps = im.im_steps;
    last_block = im.im_last_block;
    status = im.im_status;
    entry_name = im.im_entry_name;
    depth = im.im_depth;
    replay_inputs = im.im_replay_inputs;
    replay_choices = im.im_replay_choices;
    pinned = im.im_pinned;
    tags = im.im_tags;
  }

let record t ev = t.trace <- ev :: t.trace
let add_constraint t c =
  t.constraints <- c :: t.constraints;
  t.index <- Indep.add t.index c

let set_constraints t constraints index =
  t.constraints <- constraints;
  t.index <- index

let reg_get t r = t.regs.(r)
let reg_set t r e = t.regs.(r) <- e
let terminated t = t.status <> None

let pp_status fmt = function
  | Returned r -> Format.fprintf fmt "returned 0x%x" r
  | Crashed c -> Format.fprintf fmt "crashed %s at 0x%x: %s" c.c_code c.c_pc c.c_msg
  | Discarded why -> Format.fprintf fmt "discarded (%s)" why
  | Exhausted -> Format.fprintf fmt "exhausted"
