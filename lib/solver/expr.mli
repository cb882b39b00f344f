(** Symbolic bitvector expressions.

    Expressions are the currency of the whole symbolic engine: machine words
    ({!W32}), memory bytes ({!W8}) and path-condition booleans ({!W1}).
    Constants are stored as non-negative OCaml ints masked to their width.
    Smart constructors perform constant folding and cheap algebraic
    rewriting, so an expression built only from constants is itself a
    constant. *)

type width = W1 | W8 | W32

type var = private { id : int; name : string; var_width : width }

type binop =
  | Add | Sub | Mul | Divu | Remu
  | And | Or | Xor
  | Shl | Lshr | Ashr

type cmpop = Eq | Ne | Ltu | Leu | Lts | Les

(** An expression is a node plus the structural hash of its whole subtree,
    computed once when the node is built. The record is private: nodes are
    only made by {!mk} and the smart constructors, so the stored hash is
    always the hash of the node. There is no intern table — equal
    expressions need not be physically shared — but subterms built once
    and reused (the [ite] DAGs state merging lifts) are, and {!equal}
    stops at physically shared subterms. The hash is a plain int of the
    node's contents, so expressions stay valid across [Marshal] and
    between processes. *)
type t = private { node : node; hash : int }

and node =
  | Const of width * int
  | Var of var
  | Binop of binop * t * t
  | Cmp of cmpop * t * t          (** result has width {!W1} *)
  | Ite of t * t * t              (** condition has width {!W1} *)
  | Extract of t * int            (** byte [i] (0 = LSB) of a {!W32} value *)
  | Concat4 of t * t * t * t      (** [Concat4 (b3, b2, b1, b0)]: b0 is LSB *)
  | Zext of t                     (** zero-extend {!W1}/{!W8} to {!W32} *)
  | Not of t                      (** boolean negation, width {!W1} *)

val bits_of_width : width -> int
val mask_of_width : width -> int
val width_of : t -> width

(** {1 Variables} *)

val fresh_var : ?name:string -> width -> var

val reset_var_counter : unit -> unit
(** For test isolation only. *)

val var_counter_value : unit -> int
(** Current allocator position, captured into checkpoints. *)

val set_var_counter : int -> unit
(** Restore the allocator position from a checkpoint so resumed states'
    variables never collide with freshly minted ones. *)

val canon_var : int -> width -> var
(** A canonical variable for cache normalization up to renaming: the name
    is erased and the id is the caller's dense index (first-occurrence
    order). Only for building cache keys — never for engine state. *)

(** {1 Smart constructors} *)

val mk : node -> t
(** The node exactly as given, with its hash: no folding or rewriting.
    For passes that must preserve structure (cache-key renaming). *)

val const : width -> int -> t
val word : int -> t                 (** [const W32] *)
val byte : int -> t                 (** [const W8] *)
val tru : t
val fls : t
val var : var -> t
val binop : binop -> t -> t -> t
val cmp : cmpop -> t -> t -> t
val ite : t -> t -> t -> t
val extract : t -> int -> t
val concat4 : t -> t -> t -> t -> t
val zext : t -> t
val not_ : t -> t
val and1 : t -> t -> t              (** boolean conjunction on {!W1} *)
val or1 : t -> t -> t               (** boolean disjunction on {!W1} *)

(** {1 Queries} *)

val is_const : t -> bool
val to_const : t -> int option
val node : t -> node
val hash : t -> int                 (** the stored hash, O(1) *)

val vars : t -> var list            (** distinct variables, in id order *)

val vars_all : t list -> var list
(** Distinct variables of all the expressions, in id order: one walk that
    visits each physically shared subterm once. *)

val size_capped : int -> t -> int
(** [size_capped cap e] is the tree size of [e] (shared subterms counted
    at every use) if it is at most [cap], else [cap + 1]. Costs O(cap). *)

(** {1 Concrete evaluation} *)

val eval : (var -> int) -> t -> int
(** [eval env e] computes the concrete value of [e], masked to its width.
    The environment must be total on the variables of [e]. *)

(** {1 Concrete arithmetic helpers (32-bit semantics)} *)

val eval_binop : binop -> width -> int -> int -> int
val eval_cmp : cmpop -> width -> int -> int -> int
val to_signed : width -> int -> int

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val pp_var : Format.formatter -> var -> unit

(** {1 Equality, order and tables} *)

val equal : t -> t -> bool
(** Structural equality. [a == b] answers at once and unequal hashes
    answer [false] at once; otherwise the nodes are compared shallowly and
    their children with [equal], so shared subterms are never walked.
    [equal a b] implies [hash a = hash b]. *)

val compare : t -> t -> int
(** A total order on structure (constructor, then fields left to right),
    consistent with {!equal}. *)

(** Tables keyed by structural equality. *)
module Tbl : Hashtbl.S with type key = t

(** A per-walk memo keyed by physical identity, for walks over shared
    DAGs. The first few hundred lookups of a walk only count (they answer
    [None] and {!Memo.add} ignores them), because re-walking a small tree
    is cheaper than keeping a table; past that every node added is
    remembered. A walk that memoizes each node it computes thus costs a
    bounded prefix plus its number of distinct nodes. *)
module Memo : sig
  type expr := t
  type 'a t

  val create : unit -> 'a t
  val find : 'a t -> expr -> 'a option
  val add : 'a t -> expr -> 'a -> unit
end
