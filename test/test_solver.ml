(* Tests for ddt_solver: expressions, simplification, intervals, SAT and
   the end-to-end constraint solver. *)

open Ddt_solver

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Expr ------------------------------------------------------------ *)

let test_const_fold () =
  let open Expr in
  check_int "add" 7 (match node (binop Add (word 3) (word 4)) with
    | Const (_, v) -> v | _ -> -1);
  check_int "sub wrap" 0xFFFFFFFF
    (match node (binop Sub (word 0) (word 1)) with Const (_, v) -> v | _ -> -1);
  check_int "mul mask" ((0xFFFF * 0x10001) land 0xFFFFFFFF)
    (match node (binop Mul (word 0xFFFF) (word 0x10001)) with
     | Const (_, v) -> v | _ -> -1);
  check_int "divu by zero = all ones" 0xFFFFFFFF
    (match node (binop Divu (word 42) (word 0)) with Const (_, v) -> v | _ -> -1);
  check_int "remu by zero = dividend" 42
    (match node (binop Remu (word 42) (word 0)) with Const (_, v) -> v | _ -> -1)

let test_identities () =
  let open Expr in
  let v = var (fresh_var W32) in
  check_bool "x+0" true (equal (binop Add v (word 0)) v);
  check_bool "x*1" true (equal (binop Mul v (word 1)) v);
  check_bool "x&0" true (equal (binop And v (word 0)) (word 0));
  check_bool "x^x" true (equal (binop Xor v v) (word 0));
  check_bool "x==x" true (equal (cmp Eq v v) tru);
  check_bool "x<x" true (equal (cmp Ltu v v) fls);
  check_bool "not not" true (equal (not_ (not_ (cmp Eq v (word 5))))
                               (cmp Eq v (word 5)))

let test_not_pushes_into_cmp () =
  let open Expr in
  let v = var (fresh_var W32) in
  check_bool "!(a<b) = b<=a" true
    (equal (not_ (cmp Ltu v (word 9))) (cmp Leu (word 9) v));
  check_bool "!(a==b) = a!=b" true
    (equal (not_ (cmp Eq v (word 9))) (cmp Ne v (word 9)))

let test_extract_concat_roundtrip () =
  let open Expr in
  let v = var (fresh_var W32) in
  let rebuilt =
    concat4 (extract v 3) (extract v 2) (extract v 1) (extract v 0)
  in
  check_bool "concat of extracts folds" true (equal rebuilt v);
  check_int "extract of const" 0xAB
    (match node (extract (word 0xAB1234CD) 3) with Const (_, x) -> x | _ -> -1)

let test_eval_signed () =
  let open Expr in
  check_int "lts negative" 1
    (eval_cmp Lts W32 0xFFFFFFFF 0 (* -1 < 0 signed *));
  check_int "ltu same values" 0 (eval_cmp Ltu W32 0xFFFFFFFF 0);
  check_int "ashr sign fill" 0xFFFFFFFF (eval_binop Ashr W32 0x80000000 31);
  check_int "lshr no fill" 1 (eval_binop Lshr W32 0x80000000 31)

(* Random expression generator for semantic-preservation properties. *)
let gen_expr =
  let open QCheck.Gen in
  let open Expr in
  (* A small pool of variables shared across the expression. *)
  let mk_vars () =
    [| fresh_var ~name:"a" W32; fresh_var ~name:"b" W32;
       fresh_var ~name:"c" W8 |]
  in
  let vars = mk_vars () in
  let leaf =
    oneof
      [ map (fun v -> word v) (int_bound 0xFFFF);
        map (fun v -> word (v land 0xFFFFFFFF)) int;
        return (var vars.(0));
        return (var vars.(1));
        map (fun v -> byte v) (int_bound 255) ]
  in
  let binops = [| Add; Sub; Mul; Divu; Remu; And; Or; Xor; Shl; Lshr; Ashr |] in
  let cmpops = [| Eq; Ne; Ltu; Leu; Lts; Les |] in
  let rec go depth =
    if depth = 0 then leaf
    else
      frequency
        [ (2, leaf);
          (4,
           (fun op a b ->
              let a = if width_of a = W8 then zext a else a in
              let b = if width_of b = W8 then zext b else b in
              binop op a b)
           <$> map (fun i -> binops.(i)) (int_bound 10)
           <*> go (depth - 1) <*> go (depth - 1));
          (2,
           (fun op a b ->
              let a = if width_of a = W8 then zext a else a in
              let b = if width_of b = W8 then zext b else b in
              zext (cmp op a b))
           <$> map (fun i -> cmpops.(i)) (int_bound 5)
           <*> go (depth - 1) <*> go (depth - 1));
          (1,
           (fun c a b ->
              let a = if width_of a = W8 then zext a else a in
              let b = if width_of b = W8 then zext b else b in
              ite (cmp Ne (if width_of c = W8 then zext c else c) (word 0)) a b)
           <$> go (depth - 1) <*> go (depth - 1) <*> go (depth - 1));
          (1, map (fun e ->
                 let e = if width_of e = W8 then zext e else e in
                 zext (extract e 1)) (go (depth - 1))) ]
  in
  go 3

let arb_expr = QCheck.make ~print:Expr.to_string gen_expr

let random_env seed =
  let st = Random.State.make [| seed |] in
  let tbl = Hashtbl.create 8 in
  fun (v : Expr.var) ->
    match Hashtbl.find_opt tbl v.Expr.id with
    | Some x -> x
    | None ->
        let x = Random.State.int st 0x3FFFFFFF in
        Hashtbl.replace tbl v.Expr.id x;
        x

let prop_simplify_preserves_semantics =
  QCheck.Test.make ~count:500 ~name:"simplify preserves eval" arb_expr
    (fun e ->
      let e' = Simplify.simplify e in
      List.for_all
        (fun seed ->
          let env = random_env seed in
          Expr.eval env e = Expr.eval env e')
        [ 1; 2; 3; 42; 1234 ])

let prop_smart_constructors_preserve =
  QCheck.Test.make ~count:500 ~name:"eval within width mask" arb_expr
    (fun e ->
      let env = random_env 7 in
      let v = Expr.eval env e in
      v >= 0 && v <= Expr.mask_of_width (Expr.width_of e))

let prop_simplify_idempotent =
  QCheck.Test.make ~count:300 ~name:"simplify is idempotent" arb_expr
    (fun e ->
      let once = Simplify.simplify e in
      Expr.equal (Simplify.simplify once) once)

(* --- Interval --------------------------------------------------------- *)

let test_interval_infeasible () =
  let open Expr in
  let v = var (fresh_var W32) in
  (* v < 5 and v > 10 is infeasible. *)
  let cs = [ cmp Ltu v (word 5); cmp Ltu (word 10) v ] in
  check_bool "contradiction detected" true (Interval.infer cs = None)

let test_interval_narrowing () =
  let open Expr in
  let x = fresh_var W32 in
  let cs = [ cmp Ltu (var x) (word 100); cmp Ltu (word 50) (var x) ] in
  match Interval.infer cs with
  | None -> Alcotest.fail "should be feasible"
  | Some env ->
      let r = Interval.lookup env x in
      check_int "lo" 51 r.Interval.lo;
      check_int "hi" 99 r.Interval.hi

let test_interval_range_of () =
  let open Expr in
  let x = fresh_var W8 in
  let r =
    Interval.range_of
      (fun _ -> Interval.full W8)
      (binop Add (zext (var x)) (word 10))
  in
  check_int "lo" 10 r.Interval.lo;
  check_int "hi" 265 r.Interval.hi

(* Soundness: for any expression and any environment consistent with the
   per-variable ranges, the evaluated value lies within [range_of]. *)
let prop_interval_sound =
  QCheck.Test.make ~count:300 ~name:"interval range_of is sound" arb_expr
    (fun e ->
      let vars = Expr.vars e in
      (* Random per-variable singleton ranges double as the environment. *)
      let st = Random.State.make [| Hashtbl.hash (Expr.to_string e) |] in
      let assignment = Hashtbl.create 8 in
      List.iter
        (fun (v : Expr.var) ->
          let r =
            (Random.State.int st 0x10000 lsl 16) lor Random.State.int st 0x10000
          in
          Hashtbl.replace assignment v.Expr.id
            (r land Expr.mask_of_width v.Expr.var_width))
        vars;
      let env (v : Expr.var) =
        try Hashtbl.find assignment v.Expr.id with Not_found -> 0
      in
      let lookup (v : Expr.var) = Interval.singleton (env v) in
      let r = Interval.range_of lookup e in
      let value = Expr.eval env e in
      r.Interval.lo <= value && value <= r.Interval.hi)

(* --- DPLL ------------------------------------------------------------- *)

let test_dpll_simple_sat () =
  let c = Cnf.create () in
  let a = Cnf.fresh c and b = Cnf.fresh c in
  Cnf.add_clause c [ a; b ];
  Cnf.add_clause c [ -a; b ];
  (match Dpll.solve c with
   | Some (Dpll.Sat m) -> check_bool "b true" true m.(b)
   | _ -> Alcotest.fail "expected sat")

let test_dpll_unsat () =
  let c = Cnf.create () in
  let a = Cnf.fresh c in
  Cnf.add_clause c [ a ];
  Cnf.add_clause c [ -a ];
  check_bool "unsat" true (Dpll.solve c = Some Dpll.Unsat)

let test_dpll_pigeonhole () =
  (* 3 pigeons, 2 holes: classic small UNSAT instance. *)
  let c = Cnf.create () in
  let p = Array.init 3 (fun _ -> Array.init 2 (fun _ -> Cnf.fresh c)) in
  for i = 0 to 2 do
    Cnf.add_clause c [ p.(i).(0); p.(i).(1) ]
  done;
  for h = 0 to 1 do
    for i = 0 to 2 do
      for j = i + 1 to 2 do
        Cnf.add_clause c [ -p.(i).(h); -p.(j).(h) ]
      done
    done
  done;
  check_bool "pigeonhole unsat" true (Dpll.solve c = Some Dpll.Unsat)

(* Compare DPLL against brute force on random small CNFs. *)
let prop_dpll_matches_bruteforce =
  let gen =
    QCheck.Gen.(
      let clause nv =
        list_size (int_range 1 3)
          (map2 (fun v s -> if s then v + 2 else -(v + 2)) (int_bound (nv - 1)) bool)
      in
      let* nv = int_range 2 6 in
      let* ncl = int_range 1 12 in
      let* cls = list_repeat ncl (clause nv) in
      return (nv, cls))
  in
  let print (nv, cls) =
    Printf.sprintf "nv=%d cls=%s" nv
      (String.concat ";"
         (List.map (fun c -> String.concat "," (List.map string_of_int c)) cls))
  in
  QCheck.Test.make ~count:300 ~name:"dpll = bruteforce" (QCheck.make ~print gen)
    (fun (nv, cls) ->
      let c = Cnf.create () in
      for _ = 1 to nv do ignore (Cnf.fresh c) done;
      List.iter (Cnf.add_clause c) cls;
      let dpll_sat =
        match Dpll.solve c with
        | Some (Dpll.Sat _) -> true
        | Some Dpll.Unsat -> false
        | None -> QCheck.assume_fail ()
      in
      (* Brute force over variables 2..nv+1 (1 is the TRUE constant). *)
      let brute = ref false in
      for mask = 0 to (1 lsl nv) - 1 do
        let value l =
          let v = abs l in
          let b = if v = 1 then true else (mask lsr (v - 2)) land 1 = 1 in
          if l > 0 then b else not b
        in
        if List.for_all (fun cl -> List.exists value cl) cls then brute := true
      done;
      dpll_sat = !brute)

(* --- Bitblast + Solver ------------------------------------------------ *)

let solve_exprs cs = Solver.check cs

let test_solver_simple () =
  let open Expr in
  let x = fresh_var W32 in
  match solve_exprs [ cmp Eq (binop Add (var x) (word 5)) (word 12) ] with
  | Solver.Sat m -> check_int "x = 7" 7 (m x)
  | _ -> Alcotest.fail "expected sat"

let test_solver_unsat_via_bits () =
  let open Expr in
  let x = fresh_var W32 in
  (* x & 1 == 0 and x & 1 == 1 simultaneously. *)
  let cs =
    [ cmp Eq (binop And (var x) (word 1)) (word 0);
      cmp Eq (binop And (var x) (word 1)) (word 1) ]
  in
  check_bool "unsat" true (solve_exprs cs = Solver.Unsat)

let test_solver_mul_div () =
  let open Expr in
  let x = fresh_var W32 in
  (* x * 3 == 21 *)
  (match solve_exprs [ cmp Eq (binop Mul (var x) (word 3)) (word 21);
                       cmp Ltu (var x) (word 100) ] with
   | Solver.Sat m -> check_int "x = 7" 7 (m x)
   | _ -> Alcotest.fail "mul sat");
  let y = fresh_var W32 in
  (* y / 4 == 5 and y % 4 == 2  ->  y = 22 *)
  (match solve_exprs
           [ cmp Eq (binop Divu (var y) (word 4)) (word 5);
             cmp Eq (binop Remu (var y) (word 4)) (word 2) ] with
   | Solver.Sat m -> check_int "y = 22" 22 (m y)
   | _ -> Alcotest.fail "div sat")

let test_solver_shift () =
  let open Expr in
  let x = fresh_var W32 in
  match solve_exprs [ cmp Eq (binop Shl (word 1) (var x)) (word 64);
                      cmp Ltu (var x) (word 32) ] with
  | Solver.Sat m -> check_int "x = 6" 6 (m x)
  | _ -> Alcotest.fail "shift sat"

let test_solver_bytes () =
  let open Expr in
  let x = fresh_var W8 in
  match solve_exprs [ cmp Eq (zext (var x)) (word 0xAB) ] with
  | Solver.Sat m -> check_int "x = 0xAB" 0xAB (m x)
  | _ -> Alcotest.fail "byte sat"

let test_concretize () =
  let open Expr in
  let x = fresh_var W32 in
  let cs = [ cmp Ltu (var x) (word 10); cmp Ltu (word 5) (var x) ] in
  (match Solver.concretize cs (binop Mul (var x) (word 2)) with
   | Some v -> check_bool "in range" true (v >= 12 && v <= 18 && v mod 2 = 0)
   | None -> Alcotest.fail "feasible");
  check_bool "unsat concretize" true
    (Solver.concretize [ fls ] (var x) = None)

(* Property: on random single-variable constraint pairs the solver's
   verdict matches brute-force evaluation over a sampled domain. *)
let prop_solver_sound_on_simple =
  let open Expr in
  let gen =
    QCheck.Gen.(
      let* op1 = int_bound 5 in
      let* op2 = int_bound 5 in
      let* c1 = int_bound 300 in
      let* c2 = int_bound 300 in
      return (op1, op2, c1, c2))
  in
  QCheck.Test.make ~count:200 ~name:"solver sound vs bruteforce (byte domain)"
    (QCheck.make gen)
    (fun (op1, op2, c1, c2) ->
      let ops = [| Eq; Ne; Ltu; Leu; Lts; Les |] in
      let x = fresh_var W8 in
      let cs =
        [ cmp ops.(op1) (zext (var x)) (word c1);
          cmp ops.(op2) (zext (var x)) (word c2) ]
      in
      let brute =
        let found = ref false in
        for v = 0 to 255 do
          let env (u : Expr.var) = if u.Expr.id = x.Expr.id then v else 0 in
          if List.for_all (fun c -> eval env c = 1) cs then found := true
        done;
        !found
      in
      match Solver.check cs with
      | Solver.Sat _ -> brute
      | Solver.Unsat -> not brute
      | Solver.Unknown -> true)

(* Property: Divu/Remu agree with brute force over byte domains, through
   the full solver pipeline (intervals cannot decide these; they exercise
   the divider circuit). *)
let prop_divmod_matches_bruteforce =
  let open Expr in
  let gen =
    QCheck.Gen.(
      let* d = int_range 1 9 in
      let* q = int_bound 30 in
      let* r = int_bound 8 in
      let* use_div = QCheck.Gen.bool in
      return (d, q, r, use_div))
  in
  QCheck.Test.make ~count:60 ~name:"div/rem equations vs bruteforce"
    (QCheck.make gen)
    (fun (d, q, r, use_div) ->
      let x = fresh_var W8 in
      let cs =
        if use_div then
          [ cmp Eq (binop Divu (zext (var x)) (word d)) (word q) ]
        else [ cmp Eq (binop Remu (zext (var x)) (word d)) (word r) ]
      in
      let brute =
        let found = ref false in
        for v = 0 to 255 do
          if (if use_div then v / d = q else v mod d = r) then found := true
        done;
        !found
      in
      match Solver.check cs with
      | Solver.Sat m ->
          let v = m x in
          brute && (if use_div then v / d = q else v mod d = r)
      | Solver.Unsat -> not brute
      | Solver.Unknown -> true)

(* Property: symbolic shift amounts behave like the masked-amount
   semantics. *)
let prop_symbolic_shift =
  let open Expr in
  QCheck.Test.make ~count:60 ~name:"symbolic shift amount"
    (QCheck.make QCheck.Gen.(int_bound 31))
    (fun k ->
      let s = fresh_var W32 in
      (* (1 << s) == (1 << k) must force s ≡ k (mod 32) given s < 32. *)
      let cs =
        [ cmp Eq (binop Shl (word 1) (var s)) (word (1 lsl k));
          cmp Ltu (var s) (word 32) ]
      in
      match Solver.check cs with
      | Solver.Sat m -> m s = k
      | Solver.Unsat -> false
      | Solver.Unknown -> true)

(* Property: two-variable arithmetic relations round-trip through the SAT
   layer with verified models. *)
let prop_two_var_relation =
  let open Expr in
  QCheck.Test.make ~count:60 ~name:"two-variable sum relation"
    (QCheck.make QCheck.Gen.(int_bound 400))
    (fun target ->
      let a = fresh_var W8 and b = fresh_var W8 in
      let cs =
        [ cmp Eq
            (binop Add (zext (var a)) (zext (var b)))
            (word target) ]
      in
      let brute = target <= 510 in
      match Solver.check cs with
      | Solver.Sat m -> brute && m a + m b = target
      | Solver.Unsat -> not brute
      | Solver.Unknown -> true)

(* --- Indep: constraint-independence slicing --------------------------- *)

let with_accel a f =
  Solver.set_accel a;
  Fun.protect ~finally:(fun () -> Solver.set_accel Solver.default_accel) f

let test_indep_partition () =
  let open Expr in
  let x = var (fresh_var W32)
  and y = var (fresh_var W32)
  and z = var (fresh_var W32) in
  let c1 = cmp Ltu x (word 5) in
  let c2 = cmp Ltu y (word 7) in
  let c3 = cmp Ltu (word 1) x in
  (* c4 links y and z, so it must land in c2's group. *)
  let c4 = cmp Eq (binop Add y z) (word 9) in
  let groups = Indep.partition [ c1; c2; c3; c4 ] in
  check_int "two groups" 2 (List.length groups);
  let has g c = List.exists (Expr.equal c) g in
  let gx = List.find (fun g -> has g c1) groups in
  let gy = List.find (fun g -> has g c2) groups in
  check_bool "c3 with c1" true (has gx c3);
  check_bool "c4 with c2" true (has gy c4);
  check_int "no constraint lost" 4 (List.length gx + List.length gy)

let test_indep_relevant () =
  let open Expr in
  let x = var (fresh_var W32) and y = var (fresh_var W32) in
  let c1 = cmp Ltu x (word 5) in
  let c2 = cmp Ltu y (word 7) in
  let c3 = cmp Ltu (word 1) x in
  let slice = Indep.relevant [ c1; c2; c3 ] (binop Add x (word 1)) in
  check_int "two relevant" 2 (List.length slice);
  check_bool "keeps c1" true (List.exists (Expr.equal c1) slice);
  check_bool "keeps c3" true (List.exists (Expr.equal c3) slice);
  check_bool "drops c2" false (List.exists (Expr.equal c2) slice)

(* Disjoint groups solved separately must give the same verdict (and a
   genuine combined model) as solving the whole conjunction at once. *)
let test_indep_equisat () =
  let open Expr in
  let x = fresh_var W32 and y = fresh_var W32 in
  let sat_set =
    [ cmp Eq (binop Add (var x) (word 5)) (word 12);
      cmp Eq (binop Mul (var y) (word 3)) (word 21);
      cmp Ltu (var y) (word 100) ]
  in
  let unsat_set =
    [ cmp Eq (binop And (var x) (word 1)) (word 0);
      cmp Ltu (var y) (word 7);
      cmp Eq (binop And (var x) (word 1)) (word 1) ]
  in
  let sliced_only =
    { Solver.default_accel with Solver.use_cache = false }
  in
  with_accel sliced_only (fun () ->
      (match Solver.check sat_set with
       | Solver.Sat m ->
           check_int "x from group 1" 7 (m x);
           check_int "y from group 2" 7 (m y)
       | _ -> Alcotest.fail "sliced sat");
      check_bool "sliced unsat" true (Solver.check unsat_set = Solver.Unsat));
  with_accel Solver.no_accel (fun () ->
      check_bool "unsliced sat" true
        (match Solver.check sat_set with Solver.Sat _ -> true | _ -> false);
      check_bool "unsliced unsat" true
        (Solver.check unsat_set = Solver.Unsat))

(* --- Indep: the persistent per-state index ------------------------------ *)

(* A constraint over at most two of a few shared variables, built fresh
   from a generated spec. An index past the pool stands for a constant,
   so some constraints are ground. *)
let indep_constraint pool (op, a, b, k) =
  let open Expr in
  let ops = [| Eq; Ne; Ltu; Leu; Lts; Les |] in
  let term i =
    if i < Array.length pool then zext (var pool.(i)) else word (i land 7)
  in
  cmp ops.(op mod 6) (binop Add (term a) (term b)) (word k)

let gen_indep_clause =
  QCheck.Gen.(
    quad (int_bound 5) (int_bound 6) (int_bound 6) (int_bound 300))

(* Property: the index grown the way the engine grows it — adds, forks
   that share it, merge-style re-adds onto an earlier prefix's index, and
   [of_list] rebuilds — slices exactly as the reference [relevant] does
   on the plain list: the same physical constraints, in order. *)
let prop_index_matches_reference =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 40)
        (triple (int_bound 5) (int_bound 7)
           (pair gen_indep_clause gen_indep_clause)))
  in
  QCheck.Test.make ~count:300 ~name:"index slice = relevant"
    (QCheck.make gen)
    (fun ops ->
      let open Expr in
      let pool = Array.init 5 (fun _ -> fresh_var W8) in
      (* A state: its index, its path condition (newest first) and every
         earlier (index, path condition) of its lineage — the prefixes a
         merge token can restart from. *)
      let states = ref [| (Indep.empty, [], []) |] in
      let queries =
        List.init 5 (fun i -> var pool.(i))
        @ [ binop Add (zext (var pool.(0))) (zext (var pool.(3)));
            binop Mul (zext (var pool.(1))) (zext (var pool.(4)));
            word 3 ]
      in
      let agrees (idx, cs, _) =
        List.for_all
          (fun e ->
            List.equal ( == ) (Indep.slice idx e) (Indep.relevant cs e))
          queries
      in
      List.for_all
        (fun (kind, pick, (c1, c2)) ->
          let n = Array.length !states in
          let i = pick mod n in
          let ((idx, cs, hist) as st) = !states.(i) in
          let push c = (Indep.add idx c, c :: cs, (idx, cs) :: hist) in
          (match kind with
           | 0 | 1 -> !states.(i) <- push (indep_constraint pool c1)
           | 2 -> states := Array.append !states [| st |]
           | 3 ->
               (* the same constraint cell added twice *)
               (match cs with
                | c :: _ -> !states.(i) <- push c
                | [] -> !states.(i) <- push (indep_constraint pool c1))
           | 4 ->
               (* a fused survivor: one disjunction onto a prefix *)
               let bidx, bcs =
                 match hist with
                 | [] -> (idx, cs)
                 | _ -> List.nth hist (pick mod List.length hist)
               in
               let g =
                 or1 (indep_constraint pool c1) (indep_constraint pool c2)
               in
               !states.(i) <-
                 (Indep.add bidx g, g :: bcs, (bidx, bcs) :: hist)
           | _ -> !states.(i) <- (Indep.of_list cs, cs, hist));
          Array.for_all agrees !states)
        ops)

(* Property: a path condition grown only by constraints the slice found
   feasible (and by concretize pins taken from a slice model), as the
   engine grows it, answers every query on its slice the way it answers
   it in full: the same feasibility verdict, and a slice-concretized
   value consistent with the whole path condition. *)
let prop_slice_sound =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 12) (pair (int_bound 3) gen_indep_clause))
  in
  QCheck.Test.make ~count:150 ~name:"slice queries = full queries"
    (QCheck.make
       ~print:QCheck.Print.(list (pair int (quad int int int int)))
       gen)
    (fun ops ->
      let open Expr in
      let pool = Array.init 4 (fun _ -> fresh_var W8) in
      let idx = ref Indep.empty and pc = ref [] in
      let add c =
        idx := Indep.add !idx c;
        pc := c :: !pc
      in
      List.for_all
        (fun (kind, clause) ->
          let concretized =
            if kind <> 0 then true
            else
              let _, a, b, _ = clause in
              let e =
                binop Add
                  (zext (var pool.(a mod 4)))
                  (binop Mul (zext (var pool.(b mod 4))) (word 3))
              in
              match Solver.concretize (Indep.slice !idx e) e with
              | None -> false
              | Some v ->
                  let pin = cmp Eq e (word v) in
                  add pin;
                  (match Solver.check !pc with
                   | Solver.Sat _ -> true
                   | Solver.Unsat | Solver.Unknown -> false)
          in
          let x = indep_constraint pool clause in
          let sliced = Solver.is_feasible (x :: Indep.slice !idx x) in
          let full = Solver.is_feasible (x :: !pc) in
          if sliced then add x;
          concretized && sliced = full)
        ops)

(* --- Qcache: canonicalizing counterexample cache ----------------------- *)

let test_qcache_exact () =
  let open Expr in
  let q = Qcache.create () in
  let x = fresh_var W32 in
  let c1 = cmp Ltu (var x) (word 5) in
  let c2 = cmp Ltu (word 1) (var x) in
  check_bool "miss first" true (Qcache.lookup q [ c1; c2 ] = Qcache.Miss);
  Qcache.store_sat q [ c1; c2 ] (fun _ -> 3);
  (* Exact hits are canonical: order must not matter. *)
  (match Qcache.lookup q [ c2; c1 ] with
   | Qcache.Exact_sat m -> check_int "model survives" 3 (m x)
   | _ -> Alcotest.fail "expected exact hit");
  Qcache.store_unsat q [ c1 ];
  check_bool "exact unsat" true (Qcache.lookup q [ c1 ] = Qcache.Exact_unsat)

let test_qcache_subset_unsat () =
  let open Expr in
  let q = Qcache.create () in
  let x = fresh_var W32 and y = fresh_var W32 in
  let c1 = cmp Ltu (var x) (word 5) in
  let c2 = cmp Ltu (word 10) (var x) in
  let extra = cmp Eq (var y) (word 0) in
  Qcache.store_unsat q [ c1; c2 ];
  (* The cached Unsat core {c1,c2} is a subset of the query. *)
  check_bool "superset proven unsat" true
    (Qcache.lookup q [ extra; c2; c1 ] = Qcache.Subset_unsat);
  (* A query containing only part of the core proves nothing. *)
  check_bool "partial overlap misses" true
    (Qcache.lookup q [ extra; c1 ] = Qcache.Miss)

let test_qcache_model_reuse () =
  let open Expr in
  let q = Qcache.create () in
  let x = fresh_var W32 in
  let c1 = cmp Ltu (word 5) (var x) in
  Qcache.store_sat q [ c1 ] (fun _ -> 6);
  (* x=6 also satisfies the tighter superset query: reused after a cheap
     evaluation, no solve needed. *)
  (match Qcache.lookup q [ c1; cmp Ltu (var x) (word 10) ] with
   | Qcache.Reuse_sat m -> check_int "model reused" 6 (m x)
   | _ -> Alcotest.fail "expected model reuse");
  (* x=6 violates x < 3: no reuse. *)
  check_bool "unsatisfying model rejected" true
    (Qcache.lookup q [ c1; cmp Ltu (var x) (word 3) ] = Qcache.Miss)

let test_qcache_renaming () =
  let open Expr in
  let q = Qcache.create () in
  let x = fresh_var W32 in
  Qcache.store_sat q [ cmp Ltu (var x) (word 5) ] (fun _ -> 3);
  (* A structurally identical query over a different variable is an exact
     hit — keys are normalized up to renaming — with the stored model
     translated onto this query's variable. *)
  let z = fresh_var W32 in
  (match Qcache.lookup_info q [ cmp Ltu (var z) (word 5) ] with
   | Qcache.Exact_sat m, info ->
       check_int "translated model" 3 (m z);
       check_bool "flagged as renamed" true info.Qcache.i_renamed
   | _ -> Alcotest.fail "expected renamed exact hit");
  (* The original query itself is an exact hit but not a renamed one. *)
  (match Qcache.lookup_info q [ cmp Ltu (var x) (word 5) ] with
   | Qcache.Exact_sat _, info ->
       check_bool "same-key hit not flagged" false info.Qcache.i_renamed
   | _ -> Alcotest.fail "expected exact hit");
  (* The same shape at a different width is a different renamed key. *)
  let b = fresh_var W8 in
  check_bool "width is part of the key" true
    (match Qcache.lookup q [ cmp Ltu (var b) (byte 5) ] with
     | Qcache.Exact_sat _ -> false
     | _ -> true)

let test_qcache_reuse_masks_width () =
  let open Expr in
  let q = Qcache.create () in
  let x = fresh_var W32 in
  Qcache.store_sat q [ cmp Ltu (word 5) (var x) ] (fun _ -> 511);
  (* The stored 32-bit model value can reach an 8-bit twin through model
     reuse (the renamed keys differ in width, so it is not an exact hit,
     but evaluation masks at the Var node and verifies). The model handed
     back must be masked to the query variable's width. *)
  let b = fresh_var W8 in
  (match Qcache.lookup q [ cmp Ltu (byte 5) (var b) ] with
   | Qcache.Reuse_sat m -> check_int "masked to W8" 255 (m b)
   | Qcache.Exact_sat _ -> Alcotest.fail "widths must not collapse"
   | _ -> Alcotest.fail "expected model reuse")

let test_qcache_sharded_concurrent () =
  let open Expr in
  let sc = Qcache.Sharded.create ~shards:4 ~capacity:1024 () in
  let rounds = 200 in
  let work () =
    for i = 0 to rounds - 1 do
      (* Every domain mints its own variables, but the shapes repeat, so
         renaming collapses them onto shared entries: the first domain to
         store owns the entry and everyone else hits it. *)
      let x = fresh_var W32 in
      let c = [ cmp Ltu (var x) (word (i mod 10)) ] in
      (match fst (Qcache.Sharded.lookup sc c) with
       | Qcache.Miss -> Qcache.Sharded.store_sat sc c (fun _ -> 0)
       | _ -> ());
      let y = fresh_var W32 in
      let u =
        [ cmp Ltu (var y) (word (i mod 7));
          cmp Ltu (word (7 + (i mod 7))) (var y) ]
      in
      match fst (Qcache.Sharded.lookup sc u) with
      | Qcache.Miss -> Qcache.Sharded.store_unsat sc u
      | _ -> ()
    done
  in
  let domains = List.init 3 (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join domains;
  let c = Qcache.Sharded.counts sc in
  check_int "every lookup is a hit or a miss"
    c.Qcache.Sharded.sc_lookups
    (c.Qcache.Sharded.sc_hits + c.Qcache.Sharded.sc_misses);
  check_int "4 domains x 2 lookups per round"
    (4 * 2 * rounds) c.Qcache.Sharded.sc_lookups;
  check_bool "shared entries produce hits" true
    (c.Qcache.Sharded.sc_hits > 0);
  check_bool "renamed twins collapse" true
    (c.Qcache.Sharded.sc_renamed_hits > 0);
  check_bool "cross-domain hits observed" true
    (c.Qcache.Sharded.sc_cross_hits > 0);
  (* A shape any domain answered is an answer for all (exact entry or a
     reusable model — either way, not a miss). *)
  let z = fresh_var W32 in
  check_bool "post-join hit" true
    (fst (Qcache.Sharded.lookup sc [ cmp Ltu (var z) (word 3) ])
     <> Qcache.Miss)

let test_qcache_eviction () =
  let open Expr in
  let q = Qcache.create ~capacity:4 ~model_reuse:0 () in
  let cs =
    List.init 6 (fun i ->
        [ cmp Eq (var (fresh_var W32)) (word i) ])
  in
  List.iter (Qcache.store_unsat q) cs;
  check_bool "bounded" true (Qcache.size q <= 4);
  check_bool "evictions counted" true (Qcache.evictions q > 0);
  (* The oldest entry is gone — from the exact table and the unsat
     index (no phantom subset proofs). *)
  check_bool "oldest evicted" true (Qcache.lookup q (List.hd cs) = Qcache.Miss);
  (* The newest entry survived. *)
  check_bool "newest kept" true
    (Qcache.lookup q (List.nth cs 5) = Qcache.Exact_unsat)

(* Property: the accelerated solver (slicing + cache, queries issued
   twice to force hits) and the from-scratch baseline agree on Sat/Unsat
   for random multi-variable constraint sets. *)
let prop_accel_agrees_with_baseline =
  let open Expr in
  let gen =
    QCheck.Gen.(
      let clause = triple (int_bound 5) (int_bound 2) (int_bound 300) in
      list_size (int_range 1 6) clause)
  in
  QCheck.Test.make ~count:150 ~name:"accelerated solver = baseline"
    (QCheck.make gen)
    (fun spec ->
      let ops = [| Eq; Ne; Ltu; Leu; Lts; Les |] in
      let vars = [| fresh_var W8; fresh_var W8; fresh_var W8 |] in
      let cs =
        List.map
          (fun (op, v, k) ->
            cmp ops.(op) (zext (var vars.(v))) (word k))
          spec
      in
      let verdict r =
        match r with
        | Solver.Sat _ -> `Sat
        | Solver.Unsat -> `Unsat
        | Solver.Unknown -> `Unknown
      in
      let base =
        with_accel Solver.no_accel (fun () -> verdict (Solver.check cs))
      in
      let accel =
        with_accel Solver.default_accel (fun () ->
            (* First call populates the cache (misses), the second and the
               growing prefixes exercise exact hits, subset-unsat proofs
               and model reuse. *)
            ignore (Solver.check cs);
            List.iteri
              (fun i _ ->
                let prefix = List.filteri (fun j _ -> j <= i) cs in
                ignore (Solver.check prefix))
              cs;
            verdict (Solver.check cs))
      in
      base = `Unknown || accel = `Unknown || base = accel)

(* Property: Sat models coming out of the accelerated pipeline (cache
   hits included) always satisfy the full constraint set. *)
let prop_accel_models_verified =
  let open Expr in
  let gen =
    QCheck.Gen.(
      let clause = triple (int_bound 5) (int_bound 2) (int_bound 300) in
      list_size (int_range 1 5) clause)
  in
  QCheck.Test.make ~count:150 ~name:"accelerated models satisfy constraints"
    (QCheck.make gen)
    (fun spec ->
      let ops = [| Eq; Ne; Ltu; Leu; Lts; Les |] in
      let vars = [| fresh_var W8; fresh_var W8; fresh_var W8 |] in
      let cs =
        List.map
          (fun (op, v, k) ->
            cmp ops.(op) (zext (var vars.(v))) (word k))
          spec
      in
      with_accel Solver.default_accel (fun () ->
          ignore (Solver.check cs);
          match Solver.check cs with
          | Solver.Sat m -> List.for_all (fun c -> eval m c = 1) cs
          | Solver.Unsat | Solver.Unknown -> true))

(* --- shared DAGs ------------------------------------------------------ *)

(* A depth-[n] ite chain in which each level uses the previous one twice:
   [e_(i+1) = ite (y == i) (e_i + 1) e_i]. Its tree has about 2^n nodes,
   its DAG 4n. Built twice from the same variables, the two copies are
   equal but share no interior node with each other. *)
let ite_chain x y n =
  let open Expr in
  let rec go i e =
    if i = n then e
    else go (i + 1) (ite (cmp Eq y (word i)) (binop Add e (word 1)) e)
  in
  go 0 x

let test_shared_dag () =
  let open Expr in
  let vx = fresh_var ~name:"x" W32 and vy = fresh_var ~name:"y" W32 in
  let x = var vx and y = var vy in
  let d = ite_chain x y 64 and d' = ite_chain x y 64 in
  check_bool "copies are distinct" true (d != d');
  check_bool "equal to itself" true (equal d d);
  check_bool "equal to its unshared twin" true (equal d d');
  check_bool "hash agrees" true (hash d = hash d');
  check_int "compare agrees" 0 (compare d d');
  check_bool "differs from a shorter chain" false (equal d (ite_chain x y 63));
  check_bool "vars" true
    (List.map (fun v -> v.id) (vars d) = List.map (fun v -> v.id) [ vx; vy ]);
  check_int "capped size" 161 (size_capped 160 d);
  check_bool "simplify hands back the same DAG" true (Simplify.simplify d == d);
  check_bool "simplify_all keeps both" true
    (List.for_all2 equal (Simplify.simplify_all [ d; d' ]) [ d; d' ]);
  (* The top guard known true collapses the top ite to its taken arm. *)
  let top = cmp Eq y (word 63) in
  check_bool "prune under the top guard" true
    (equal
       (Simplify.prune ~under:[ top ] d)
       (binop Add (ite_chain x y 63) (word 1)));
  let c = cmp Ltu d (word 5) and other = cmp Eq (var (fresh_var W8)) (byte 1) in
  check_int "partition" 2 (List.length (Indep.partition [ c; other ]));
  check_int "relevant" 1 (List.length (Indep.relevant [ c; other ] x));
  (* Lookups canonicalize and rename the key; a stored entry is then hit
     from the separately built twin. *)
  let q = Qcache.create () in
  check_bool "cold miss" true (Qcache.lookup q [ c; other ] = Qcache.Miss);
  Qcache.store_unsat q [ c; other ];
  check_bool "hit from the twin" true
    (Qcache.lookup q [ other; cmp Ltu d' (word 5) ] = Qcache.Exact_unsat)

let test_size_capped () =
  let open Expr in
  let v = var (fresh_var W32) in
  let e = binop Add (binop Mul v (word 3)) v in
  check_int "exact below the cap" 5 (size_capped 10 e);
  check_int "exact at the cap" 5 (size_capped 5 e);
  check_int "cap + 1 above it" 4 (size_capped 3 e)

(* The layout expressions had before they carried a hash, as a reference:
   polymorphic equality, order and hash on it are what [Expr.equal],
   [Expr.compare] and [Qcache.shard_hash] must reproduce. *)
type plain =
  | P_const of Expr.width * int
  | P_var of Expr.var
  | P_binop of Expr.binop * plain * plain
  | P_cmp of Expr.cmpop * plain * plain
  | P_ite of plain * plain * plain
  | P_extract of plain * int
  | P_concat4 of plain * plain * plain * plain
  | P_zext of plain
  | P_not of plain

(* Every node built fresh, so nothing but the leaves' variables is
   shared. *)
let rec unshared = function
  | P_const (w, v) -> Expr.mk (Expr.Const (w, v))
  | P_var v -> Expr.mk (Expr.Var v)
  | P_binop (op, a, b) -> Expr.mk (Expr.Binop (op, unshared a, unshared b))
  | P_cmp (op, a, b) -> Expr.mk (Expr.Cmp (op, unshared a, unshared b))
  | P_ite (c, a, b) -> Expr.mk (Expr.Ite (unshared c, unshared a, unshared b))
  | P_extract (x, i) -> Expr.mk (Expr.Extract (unshared x, i))
  | P_concat4 (b3, b2, b1, b0) ->
      Expr.mk
        (Expr.Concat4 (unshared b3, unshared b2, unshared b1, unshared b0))
  | P_zext x -> Expr.mk (Expr.Zext (unshared x))
  | P_not x -> Expr.mk (Expr.Not (unshared x))

(* Structurally equal subterms built once and reused. *)
let shared p =
  let memo = Hashtbl.create 16 in
  let rec go p =
    match Hashtbl.find_opt memo p with
    | Some e -> e
    | None ->
        let node : Expr.node =
          match p with
          | P_const (w, v) -> Expr.Const (w, v)
          | P_var v -> Expr.Var v
          | P_binop (op, a, b) -> Expr.Binop (op, go a, go b)
          | P_cmp (op, a, b) -> Expr.Cmp (op, go a, go b)
          | P_ite (c, a, b) -> Expr.Ite (go c, go a, go b)
          | P_extract (x, i) -> Expr.Extract (go x, i)
          | P_concat4 (b3, b2, b1, b0) ->
              Expr.Concat4 (go b3, go b2, go b1, go b0)
          | P_zext x -> Expr.Zext (go x)
          | P_not x -> Expr.Not (go x)
        in
        let e = Expr.mk node in
        Hashtbl.replace memo p e;
        e
  in
  go p

(* Small alphabets, so independently drawn terms often coincide; widths
   are not kept consistent — only structure matters here. *)
let gen_plain =
  let open QCheck.Gen in
  let vars =
    [| Expr.fresh_var ~name:"p" Expr.W32; Expr.fresh_var ~name:"q" Expr.W8 |]
  in
  let leaf =
    oneof
      [ map2 (fun w v -> P_const (w, v))
          (oneofl [ Expr.W1; Expr.W8; Expr.W32 ]) (int_bound 3);
        map (fun i -> P_var vars.(i)) (int_bound 1) ]
  in
  let rec go depth =
    if depth = 0 then leaf
    else
      let sub = go (depth - 1) in
      frequency
        [ (2, leaf);
          (2, map3 (fun op a b -> P_binop (op, a, b))
                (oneofl Expr.[ Add; Sub; And; Xor ]) sub sub);
          (2, map3 (fun op a b -> P_cmp (op, a, b))
                (oneofl Expr.[ Eq; Ltu; Les ]) sub sub);
          (1, map3 (fun c a b -> P_ite (c, a, b)) sub sub sub);
          (1, map2 (fun x i -> P_extract (x, i)) sub (int_bound 3));
          (1, map (fun ((b3, b2), (b1, b0)) -> P_concat4 (b3, b2, b1, b0))
                (pair (pair sub sub) (pair sub sub)));
          (1, map (fun x -> P_zext x) sub);
          (1, map (fun x -> P_not x) sub) ]
  in
  sized_size (int_bound 4) go

let gen_plain_pair =
  let open QCheck.Gen in
  gen_plain >>= fun a ->
  frequency [ (1, return a); (2, gen_plain) ] >|= fun b -> (a, b)

let sign x = if x < 0 then -1 else if x > 0 then 1 else 0

let prop_equal_matches_reference =
  QCheck.Test.make ~count:1000
    ~name:"equal/compare match the reference, shared or not"
    (QCheck.make gen_plain_pair) (fun (a, b) ->
      let ea = unshared a and eb = shared b in
      Expr.equal ea eb = (a = b)
      && Expr.equal (shared a) (unshared b) = (a = b)
      && sign (Expr.compare ea eb) = sign (Stdlib.compare a b)
      && ((not (a = b)) || Expr.hash ea = Expr.hash eb))

let prop_hash_survives_sharing_and_marshal =
  QCheck.Test.make ~count:500
    ~name:"hash is the same shared, unshared and after Marshal"
    (QCheck.make gen_plain) (fun p ->
      let e = shared p and e' = unshared p in
      let back : Expr.t = Marshal.from_string (Marshal.to_string e []) 0 in
      Expr.hash e = Expr.hash e'
      && Expr.equal e e'
      && Expr.equal back e
      && Expr.hash back = Expr.hash e
      && Expr.hash (Expr.mk (Expr.node back)) = Expr.hash back)

let prop_shard_hash_is_generic_hash =
  QCheck.Test.make ~count:1000 ~name:"shard_hash is the generic hash"
    (QCheck.make gen_plain) (fun p ->
      Qcache.shard_hash (unshared p) = Hashtbl.hash p
      && Qcache.shard_hash (shared p) = Hashtbl.hash p)

(* Trees past the 512 lookups after which [shard_hash]'s walk starts
   memoizing, which the property's trees never reach. *)
let test_shard_hash_large () =
  let v = Expr.fresh_var ~name:"x" Expr.W32 in
  let rec balanced d i =
    if d = 0 then P_const (Expr.W32, i land 3)
    else
      P_binop
        ( (if d mod 2 = 0 then Expr.Add else Expr.Xor),
          balanced (d - 1) (2 * i),
          balanced (d - 1) ((2 * i) + 1) )
  in
  let rec chain n =
    if n = 0 then P_var v
    else if n land 1 = 0 then P_not (chain (n - 1))
    else P_zext (chain (n - 1))
  in
  List.iter
    (fun (name, p) ->
      check_int (name ^ ", unshared") (Hashtbl.hash p)
        (Qcache.shard_hash (unshared p));
      check_int (name ^ ", shared") (Hashtbl.hash p)
        (Qcache.shard_hash (shared p)))
    [ ("balanced, 2047 nodes", balanced 10 0);
      ("chain, 601 nodes", chain 600) ]

(* The store names an entry by its key's structure, not by which of its
   subterms happen to be shared (which Marshal bytes depend on). *)
let test_pstore_path_ignores_sharing () =
  let open Expr in
  let v = var (canon_var 1 W32) in
  let sum = binop Add v (word 7) in
  let with_sharing = [ cmp Ltu (binop Mul sum sum) (word 9) ] in
  let without =
    [ cmp Ltu (binop Mul (binop Add v (word 7)) (binop Add v (word 7)))
        (word 9) ]
  in
  check_bool "Marshal bytes differ" true
    (Marshal.to_string with_sharing [] <> Marshal.to_string without []);
  let dir = Filename.temp_file "pstore" "" in
  Sys.remove dir;
  match Pstore.open_store ~dir ~key:"k" with
  | Error e -> Alcotest.fail e
  | Ok store ->
      let entry key =
        { Qcache.pe_key = key; pe_orig = key; pe_verdict = Qcache.V_unsat }
      in
      Alcotest.(check string) "same path"
        (Pstore.entry_path store (entry with_sharing))
        (Pstore.entry_path store (entry without));
      check_bool "different keys, different paths" true
        (Pstore.entry_path store (entry with_sharing)
         <> Pstore.entry_path store (entry [ cmp Ltu sum (word 9) ]))

let qtest t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "ddt_solver"
    [ ("expr",
       [ Alcotest.test_case "constant folding" `Quick test_const_fold;
         Alcotest.test_case "algebraic identities" `Quick test_identities;
         Alcotest.test_case "not pushes into cmp" `Quick test_not_pushes_into_cmp;
         Alcotest.test_case "extract/concat roundtrip" `Quick
           test_extract_concat_roundtrip;
         Alcotest.test_case "signed semantics" `Quick test_eval_signed;
         qtest prop_simplify_preserves_semantics;
         qtest prop_smart_constructors_preserve;
         qtest prop_simplify_idempotent;
         Alcotest.test_case "shared DAG" `Quick test_shared_dag;
         Alcotest.test_case "capped size" `Quick test_size_capped;
         qtest prop_equal_matches_reference;
         qtest prop_hash_survives_sharing_and_marshal;
         qtest prop_shard_hash_is_generic_hash;
         Alcotest.test_case "shard_hash of large trees" `Quick
           test_shard_hash_large;
         Alcotest.test_case "store path ignores sharing" `Quick
           test_pstore_path_ignores_sharing ]);
      ("interval",
       [ Alcotest.test_case "infeasible" `Quick test_interval_infeasible;
         Alcotest.test_case "narrowing" `Quick test_interval_narrowing;
         Alcotest.test_case "range_of" `Quick test_interval_range_of;
         qtest prop_interval_sound ]);
      ("dpll",
       [ Alcotest.test_case "simple sat" `Quick test_dpll_simple_sat;
         Alcotest.test_case "unsat" `Quick test_dpll_unsat;
         Alcotest.test_case "pigeonhole" `Quick test_dpll_pigeonhole;
         qtest prop_dpll_matches_bruteforce ]);
      ("indep",
       [ Alcotest.test_case "partition" `Quick test_indep_partition;
         Alcotest.test_case "relevant slice" `Quick test_indep_relevant;
         Alcotest.test_case "sliced equisatisfiable" `Quick test_indep_equisat;
         qtest prop_index_matches_reference;
         qtest prop_slice_sound ]);
      ("qcache",
       [ Alcotest.test_case "exact hit" `Quick test_qcache_exact;
         Alcotest.test_case "subset unsat" `Quick test_qcache_subset_unsat;
         Alcotest.test_case "model reuse" `Quick test_qcache_model_reuse;
         Alcotest.test_case "renaming normalization" `Quick
           test_qcache_renaming;
         Alcotest.test_case "reuse masks width" `Quick
           test_qcache_reuse_masks_width;
         Alcotest.test_case "sharded concurrent" `Quick
           test_qcache_sharded_concurrent;
         Alcotest.test_case "lru eviction" `Quick test_qcache_eviction;
         qtest prop_accel_agrees_with_baseline;
         qtest prop_accel_models_verified ]);
      ("solver",
       [ Alcotest.test_case "linear equation" `Quick test_solver_simple;
         Alcotest.test_case "parity contradiction" `Quick
           test_solver_unsat_via_bits;
         Alcotest.test_case "mul and div" `Quick test_solver_mul_div;
         Alcotest.test_case "shift" `Quick test_solver_shift;
         Alcotest.test_case "byte variables" `Quick test_solver_bytes;
         Alcotest.test_case "concretize" `Quick test_concretize;
         qtest prop_solver_sound_on_simple;
         qtest prop_divmod_matches_bruteforce;
         qtest prop_symbolic_shift;
         qtest prop_two_var_relation ]) ]
