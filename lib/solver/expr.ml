type width = W1 | W8 | W32

type var = { id : int; name : string; var_width : width }

type binop =
  | Add | Sub | Mul | Divu | Remu
  | And | Or | Xor
  | Shl | Lshr | Ashr

type cmpop = Eq | Ne | Ltu | Leu | Lts | Les

(* Every node carries a structural hash of its whole subtree, computed once
   by [mk] from the children's stored hashes. The hash is a plain int of
   the node's contents (never of an address), so it survives [Marshal]
   and agrees across processes; there is no intern table, and two equal
   expressions may or may not be physically shared. *)
type t = { node : node; hash : int }

and node =
  | Const of width * int
  | Var of var
  | Binop of binop * t * t
  | Cmp of cmpop * t * t
  | Ite of t * t * t
  | Extract of t * int
  | Concat4 of t * t * t * t
  | Zext of t
  | Not of t

let bits_of_width = function W1 -> 1 | W8 -> 8 | W32 -> 32
let mask_of_width = function W1 -> 1 | W8 -> 0xFF | W32 -> 0xFFFFFFFF

let node e = e.node
let hash e = e.hash

let rec width_of e =
  match e.node with
  | Const (w, _) -> w
  | Var v -> v.var_width
  | Binop (_, a, _) -> width_of a
  | Cmp _ -> W1
  | Ite (_, a, _) -> width_of a
  | Extract _ -> W8
  | Concat4 _ -> W32
  | Zext _ -> W32
  | Not _ -> W1

(* --- hashing, equality, order --------------------------------------------- *)

(* Declaration-order indices: the order polymorphic compare gives these
   immediates, so {!compare} below reproduces its order exactly. *)
let width_tag = function W1 -> 0 | W8 -> 1 | W32 -> 2

let binop_tag = function
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Divu -> 3 | Remu -> 4 | And -> 5
  | Or -> 6 | Xor -> 7 | Shl -> 8 | Lshr -> 9 | Ashr -> 10

let cmpop_tag = function
  | Eq -> 0 | Ne -> 1 | Ltu -> 2 | Leu -> 3 | Lts -> 4 | Les -> 5

let node_tag = function
  | Const _ -> 0 | Var _ -> 1 | Binop _ -> 2 | Cmp _ -> 3 | Ite _ -> 4
  | Extract _ -> 5 | Concat4 _ -> 6 | Zext _ -> 7 | Not _ -> 8

let mix h x =
  let h = (h lxor x) * 0x100000001b3 in
  h lxor (h lsr 31)

(* The variable name is left out: equal nodes still hash equal, and ids
   are unique per quantity anyway. *)
let hash_node = function
  | Const (w, v) -> mix (mix 1 (width_tag w)) v
  | Var v -> mix (mix 2 v.id) (width_tag v.var_width)
  | Binop (op, a, b) -> mix (mix (mix 3 (binop_tag op)) a.hash) b.hash
  | Cmp (op, a, b) -> mix (mix (mix 4 (cmpop_tag op)) a.hash) b.hash
  | Ite (c, a, b) -> mix (mix (mix 5 c.hash) a.hash) b.hash
  | Extract (x, i) -> mix (mix 6 x.hash) i
  | Concat4 (b3, b2, b1, b0) ->
      mix (mix (mix (mix 7 b3.hash) b2.hash) b1.hash) b0.hash
  | Zext x -> mix 8 x.hash
  | Not x -> mix 9 x.hash

let mk node = { node; hash = hash_node node land max_int }

module Ptbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = ( == )
  let hash e = e.hash
end)

exception Deep

(* [walk proven n a b] is [n] less the node pairs it compared if [a] and
   [b] are structurally equal, and negative if not. Past [n] pairs it
   raises [Deep]; with a [proven] table it remembers each pair it has
   shown equal and never revisits one. *)
let rec walk proven n a b =
  if a == b then n
  else if a.hash <> b.hash then -1
  else if n = 0 then raise_notrace Deep
  else
    match proven with
    | Some t when List.exists (fun b' -> b' == b) (Ptbl.find_all t a) -> n
    | _ ->
        let n = n - 1 in
        let n =
          match a.node, b.node with
          | Const (w1, c1), Const (w2, c2) -> if w1 = w2 && c1 = c2 then n else -1
          | Var v1, Var v2 ->
              if v1.id = v2.id && v1.var_width = v2.var_width
                 && String.equal v1.name v2.name
              then n
              else -1
          | Binop (o1, x1, y1), Binop (o2, x2, y2) ->
              if o1 = o2 then walk2 proven n x1 x2 y1 y2 else -1
          | Cmp (o1, x1, y1), Cmp (o2, x2, y2) ->
              if o1 = o2 then walk2 proven n x1 x2 y1 y2 else -1
          | Ite (c1, x1, y1), Ite (c2, x2, y2) ->
              let n = walk proven n c1 c2 in
              if n < 0 then n else walk2 proven n x1 x2 y1 y2
          | Extract (x1, i1), Extract (x2, i2) ->
              if i1 = i2 then walk proven n x1 x2 else -1
          | Concat4 (a3, a2, a1, a0), Concat4 (b3, b2, b1, b0) ->
              let n = walk2 proven n a3 b3 a2 b2 in
              if n < 0 then n else walk2 proven n a1 b1 a0 b0
          | Zext x1, Zext x2 | Not x1, Not x2 -> walk proven n x1 x2
          | _ -> -1
        in
        (match proven with Some t when n >= 0 -> Ptbl.add t a b | _ -> ());
        n

and walk2 proven n x1 x2 y1 y2 =
  let n = walk proven n x1 x2 in
  if n < 0 then n else walk proven n y1 y2

(* Structural equality. Physically equal subterms answer at once, and
   unequal ones almost always part at the first hash comparison. Two
   equal DAGs that were built separately share nothing with each other,
   so a plain walk would cost their tree size; past a budget the
   walk restarts remembering the pairs it has proven equal, which bounds
   it by the number of distinct node pairs. Only proofs need
   remembering: equality is a conjunction, so the first unequal pair
   ends the whole walk. *)
let equal a b =
  a == b
  || a.hash = b.hash
     &&
     match walk None 4096 a b with
     | n -> n >= 0
     | exception Deep -> walk (Some (Ptbl.create 64)) max_int a b >= 0

let compare_var a b =
  match Int.compare a.id b.id with
  | 0 -> (
      match String.compare a.name b.name with
      | 0 -> Int.compare (width_tag a.var_width) (width_tag b.var_width)
      | c -> c)
  | c -> c

(* A total order on structure: constructor, then fields left to right —
   the order polymorphic compare gives the node tree, which canonical
   cache keys are sorted by. Equal subterms answer through [equal], so
   the walk never descends into an equal pair. *)
let rec compare a b =
  if a == b || (a.hash = b.hash && equal a b) then 0
  else
    match a.node, b.node with
    | Const (w1, c1), Const (w2, c2) -> (
        match Int.compare (width_tag w1) (width_tag w2) with
        | 0 -> Int.compare c1 c2
        | c -> c)
    | Var v1, Var v2 -> compare_var v1 v2
    | Binop (o1, x1, y1), Binop (o2, x2, y2) -> (
        match Int.compare (binop_tag o1) (binop_tag o2) with
        | 0 -> compare2 x1 y1 x2 y2
        | c -> c)
    | Cmp (o1, x1, y1), Cmp (o2, x2, y2) -> (
        match Int.compare (cmpop_tag o1) (cmpop_tag o2) with
        | 0 -> compare2 x1 y1 x2 y2
        | c -> c)
    | Ite (c1, x1, y1), Ite (c2, x2, y2) -> (
        match compare c1 c2 with 0 -> compare2 x1 y1 x2 y2 | c -> c)
    | Extract (x1, i1), Extract (x2, i2) -> (
        match compare x1 x2 with 0 -> Int.compare i1 i2 | c -> c)
    | Concat4 (a3, a2, a1, a0), Concat4 (b3, b2, b1, b0) -> (
        match compare2 a3 a2 b3 b2 with 0 -> compare2 a1 a0 b1 b0 | c -> c)
    | Zext x1, Zext x2 | Not x1, Not x2 -> compare x1 x2
    | n1, n2 -> Int.compare (node_tag n1) (node_tag n2)

and compare2 x1 y1 x2 y2 =
  match compare x1 x2 with 0 -> compare y1 y2 | c -> c

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* A per-walk memo keyed by physical node. Keeping a table costs more
   than re-walking the small trees most walks see, so the first
   [threshold] lookups only count; past that the table is created and
   every node found afterwards is remembered. A walk over a shared DAG
   then costs at most [threshold] plus its number of distinct nodes. A
   missed structural duplicate is merely visited twice. *)
module Memo = struct
  type nonrec 'a t = { mutable visits : int; mutable tbl : 'a Ptbl.t option }

  let threshold = 512
  let create () = { visits = 0; tbl = None }

  let find m e =
    match m.tbl with
    | Some t -> Ptbl.find_opt t e
    | None ->
        m.visits <- m.visits + 1;
        if m.visits > threshold then m.tbl <- Some (Ptbl.create 256);
        None

  let add m e v = match m.tbl with Some t -> Ptbl.replace t e v | None -> ()
end

(* --- variables ------------------------------------------------------------ *)

(* Atomic so independent sessions can run in parallel domains (the
   paper's §6.1 parallel-symbolic-execution direction). *)
let var_counter = Atomic.make 0

let fresh_var ?(name = "v") w =
  { id = Atomic.fetch_and_add var_counter 1 + 1; name; var_width = w }

let reset_var_counter () = Atomic.set var_counter 0

(* Checkpoint/restore of the allocator position: a resumed run must mint
   fresh variables from exactly where the killed run stopped, or restored
   states' inputs would collide with newly created ones. *)
let var_counter_value () = Atomic.get var_counter
let set_var_counter n = Atomic.set var_counter (max 0 n)

(* Canonical variables for cache normalization: ids live in a small dense
   namespace separate from [fresh_var]'s counter, names are erased (the
   name participates in structural equality, so two renamings agree only
   if both normalize it). Expressions built from these must never leak
   into engine state — they exist to key and store cache entries. *)
let canon_var id w = { id; name = ""; var_width = w }

(* --- smart constructors --------------------------------------------------- *)

(* Leaves are the most numerous nodes a state holds. Booleans and bytes
   come from fixed tables; words from a small direct-mapped cache of the
   last word built in each slot, so a value built over and over (an
   address, a register's concrete contents) is one node. This is not an
   intern table: nothing relies on two equal words being one node, and
   domains racing on a slot only cost each other a miss — every slot
   always holds some complete word node. *)
let tru = mk (Const (W1, 1))
let fls = mk (Const (W1, 0))
let bytes = Array.init 256 (fun v -> mk (Const (W8, v)))
let words = Array.init 4096 (fun v -> mk (Const (W32, v)))

let const w v =
  let v = v land mask_of_width w in
  match w with
  | W1 -> if v = 0 then fls else tru
  | W8 -> bytes.(v)
  | W32 -> (
      let slot = v land (Array.length words - 1) in
      let c = words.(slot) in
      match c.node with
      | Const (_, v') when v' = v -> c
      | _ ->
          let c = mk (Const (W32, v)) in
          words.(slot) <- c;
          c)

let word v = const W32 v
let byte v = const W8 v
let var v = mk (Var v)

let to_signed w v =
  let bits = bits_of_width w in
  let sign_bit = 1 lsl (bits - 1) in
  if v land sign_bit <> 0 then v - (1 lsl bits) else v

let eval_binop op w a b =
  let mask = mask_of_width w in
  let bits = bits_of_width w in
  let r =
    match op with
    | Add -> a + b
    | Sub -> a - b
    | Mul -> a * b
    | Divu -> if b = 0 then mask else a / b
    | Remu -> if b = 0 then a else a mod b
    | And -> a land b
    | Or -> a lor b
    | Xor -> a lxor b
    | Shl -> a lsl (b land (bits - 1))
    | Lshr -> a lsr (b land (bits - 1))
    | Ashr -> to_signed w a asr (b land (bits - 1))
  in
  r land mask

let eval_cmp op w a b =
  let sa = to_signed w a and sb = to_signed w b in
  let holds =
    match op with
    | Eq -> a = b
    | Ne -> a <> b
    | Ltu -> a < b
    | Leu -> a <= b
    | Lts -> sa < sb
    | Les -> sa <= sb
  in
  if holds then 1 else 0

let is_const e = match e.node with Const _ -> true | _ -> false
let to_const e = match e.node with Const (_, v) -> Some v | _ -> None

let binop op a b =
  let w = width_of a in
  match a.node, b.node, op with
  | Const (_, x), Const (_, y), _ -> const w (eval_binop op w x y)
  | _, Const (_, 0), (Add | Sub | Or | Xor | Shl | Lshr | Ashr) -> a
  | Const (_, 0), _, (Add | Or | Xor) -> b
  | _, Const (_, 0), (Mul | And) -> const w 0
  (* not [Divu]: 0 /u 0 is all ones *)
  | Const (_, 0), _, (Mul | And | Remu | Shl | Lshr | Ashr) -> const w 0
  | _, Const (_, 1), (Mul | Divu) -> a
  | Const (_, 1), _, Mul -> b
  | _, Const (_, m), And when m = mask_of_width w -> a
  | Const (_, m), _, And when m = mask_of_width w -> b
  | _, Const (_, m), Or when m = mask_of_width w -> const w m
  | _, _, (And | Or) when equal a b -> a
  | _, _, (Xor | Sub) when equal a b -> const w 0
  | _, _, Remu when equal a b -> const w 0
  | _ -> mk (Binop (op, a, b))

let cmp op a b =
  let w = width_of a in
  match a.node, b.node with
  | Const (_, x), Const (_, y) -> const W1 (eval_cmp op w x y)
  | _ when equal a b -> (
      match op with
      | Eq | Leu | Les -> tru
      | Ne | Ltu | Lts -> fls)
  | _ -> mk (Cmp (op, a, b))

let not_ e =
  match e.node with
  | Const (W1, v) -> const W1 (1 - v)
  | Not x -> x
  | Cmp (Eq, a, b) -> cmp Ne a b
  | Cmp (Ne, a, b) -> cmp Eq a b
  | Cmp (Ltu, a, b) -> cmp Leu b a
  | Cmp (Leu, a, b) -> cmp Ltu b a
  | Cmp (Lts, a, b) -> cmp Les b a
  | Cmp (Les, a, b) -> cmp Lts b a
  | _ -> mk (Not e)

let ite c a b =
  match c.node with
  | Const (W1, 1) -> a
  | Const (W1, 0) -> b
  | _ -> if equal a b then a else mk (Ite (c, a, b))

let zext e =
  match e.node with
  | Const ((W1 | W8), v) -> const W32 v
  | _ when width_of e = W32 -> e
  | _ -> mk (Zext e)

let extract e i =
  assert (i >= 0 && i < 4);
  match e.node with
  | Const (_, v) -> byte ((v lsr (8 * i)) land 0xFF)
  | Concat4 (b3, b2, b1, b0) -> (
      match i with 0 -> b0 | 1 -> b1 | 2 -> b2 | _ -> b3)
  | Zext inner when width_of inner = W8 ->
      if i = 0 then inner else byte 0
  | Zext inner when width_of inner = W1 ->
      if i = 0 then mk (Ite (inner, byte 1, byte 0)) else byte 0
  | _ -> mk (Extract (e, i))

let concat4 b3 b2 b1 b0 =
  match b3.node, b2.node, b1.node, b0.node with
  | Const (_, v3), Const (_, v2), Const (_, v1), Const (_, v0) ->
      word ((v3 lsl 24) lor (v2 lsl 16) lor (v1 lsl 8) lor v0)
  | Extract (e3, 3), Extract (e2, 2), Extract (e1, 1), Extract (e0, 0)
    when equal e3 e2 && equal e2 e1 && equal e1 e0 ->
      e0
  | _ -> mk (Concat4 (b3, b2, b1, b0))

let and1 a b =
  match a.node, b.node with
  | Const (W1, 0), _ | _, Const (W1, 0) -> fls
  | Const (W1, 1), _ -> b
  | _, Const (W1, 1) -> a
  | _ when equal a b -> a
  | _ -> mk (Binop (And, a, b))

let or1 a b =
  match a.node, b.node with
  | Const (W1, 1), _ | _, Const (W1, 1) -> tru
  | Const (W1, 0), _ -> b
  | _, Const (W1, 0) -> a
  | _ when equal a b -> a
  | _ -> mk (Binop (Or, a, b))

(* --- queries -------------------------------------------------------------- *)

let rec eval env e =
  match e.node with
  | Const (_, v) -> v
  | Var v -> env v land mask_of_width v.var_width
  | Binop (op, a, b) -> eval_binop op (width_of a) (eval env a) (eval env b)
  | Cmp (op, a, b) -> eval_cmp op (width_of a) (eval env a) (eval env b)
  | Ite (c, a, b) -> if eval env c = 1 then eval env a else eval env b
  | Extract (x, i) -> (eval env x lsr (8 * i)) land 0xFF
  | Concat4 (b3, b2, b1, b0) ->
      (eval env b3 lsl 24) lor (eval env b2 lsl 16)
      lor (eval env b1 lsl 8) lor eval env b0
  | Zext x -> eval env x
  | Not x -> 1 - eval env x

(* One walk over all of [es], visiting each physical interior node once. *)
let vars_all es =
  let seen = Memo.create () in
  let ids = Hashtbl.create 16 in
  let acc = ref [] in
  let rec go e =
    match e.node with
    | Const _ -> ()
    | Var v ->
        if not (Hashtbl.mem ids v.id) then begin
          Hashtbl.add ids v.id ();
          acc := v :: !acc
        end
    | _ when Option.is_some (Memo.find seen e) -> ()
    | Binop (_, a, b) | Cmp (_, a, b) -> Memo.add seen e (); go a; go b
    | Ite (c, a, b) -> Memo.add seen e (); go c; go a; go b
    | Extract (x, _) | Zext x | Not x -> Memo.add seen e (); go x
    | Concat4 (b3, b2, b1, b0) ->
        Memo.add seen e (); go b3; go b2; go b1; go b0
  in
  List.iter go es;
  List.sort (fun a b -> Int.compare a.id b.id) !acc

let vars e = vars_all [ e ]

(* Tree size, counted only as far as [cap]: at most [cap + 1] nodes are
   visited, so a shared DAG whose tree is exponentially large costs
   O(cap). *)
let size_capped cap e =
  let n = ref 0 in
  let rec go e =
    if !n <= cap then begin
      incr n;
      match e.node with
      | Const _ | Var _ -> ()
      | Binop (_, a, b) | Cmp (_, a, b) -> go a; go b
      | Ite (c, a, b) -> go c; go a; go b
      | Extract (x, _) | Zext x | Not x -> go x
      | Concat4 (b3, b2, b1, b0) -> go b3; go b2; go b1; go b0
    end
  in
  go e;
  min !n (cap + 1)

let string_of_binop = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Divu -> "/u" | Remu -> "%u"
  | And -> "&" | Or -> "|" | Xor -> "^"
  | Shl -> "<<" | Lshr -> ">>u" | Ashr -> ">>s"

let string_of_cmpop = function
  | Eq -> "==" | Ne -> "!=" | Ltu -> "<u" | Leu -> "<=u"
  | Lts -> "<s" | Les -> "<=s"

let pp_var fmt v = Format.fprintf fmt "%s#%d" v.name v.id

let rec pp fmt e =
  match e.node with
  | Const (W1, v) -> Format.fprintf fmt "%db1" v
  | Const (W8, v) -> Format.fprintf fmt "0x%02x" v
  | Const (W32, v) -> Format.fprintf fmt "0x%x" v
  | Var v -> pp_var fmt v
  | Binop (op, a, b) ->
      Format.fprintf fmt "(%a %s %a)" pp a (string_of_binop op) pp b
  | Cmp (op, a, b) ->
      Format.fprintf fmt "(%a %s %a)" pp a (string_of_cmpop op) pp b
  | Ite (c, a, b) -> Format.fprintf fmt "(if %a then %a else %a)" pp c pp a pp b
  | Extract (x, i) -> Format.fprintf fmt "%a[%d]" pp x i
  | Concat4 (b3, b2, b1, b0) ->
      Format.fprintf fmt "{%a,%a,%a,%a}" pp b3 pp b2 pp b1 pp b0
  | Zext x -> Format.fprintf fmt "zext(%a)" pp x
  | Not x -> Format.fprintf fmt "!%a" pp x

let to_string e = Format.asprintf "%a" pp e
