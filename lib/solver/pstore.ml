(* On-disk content-addressed store for query-cache entries and Unsat
   cores, so runs warm-start each other: the second run of a driver
   finds the first run's verdicts on disk and turns its bit-blasts into
   cache hits.

   Layout: one {!Blob} file per entry under
   [<dir>/<key>.v<version>/<hex-digest>.qe], where the digest is over
   the entry's renamed canonical key — the same query stored by any run
   lands on the same filename, so concurrent or repeated runs dedup by
   construction and a half-written entry is impossible (tmp + rename).
   The version and the caller's key (driver name) live in the directory
   name: bumping either simply orphans the old directory, which is the
   whole invalidation story.

   Concurrent access: writers never collide (unique tmp names + atomic
   rename; same digest means same content, so last-writer-wins is
   convergent), and a reader racing a writer sees either no file or a
   complete file. A file that vanishes between [readdir] and [open]
   (rename raced by another process's in-progress write on some
   filesystems, or manual cleanup) is skipped and counted, never an
   error.

   Failure policy, in one line: the store can only ever change cost,
   never a verdict. A corrupt or truncated entry is skipped (counted in
   [skipped]); a failed write — disk full included — disables further
   writes for this store and the run continues unpersisted. *)

(* Bump when entry semantics change (solver rewrites, canonicalization,
   verdict encoding, the entry address): old entries become unreachable,
   not wrong. *)
let store_version = 2

type t = {
  dir : string;                 (* the fully-scoped entry directory *)
  mutable writable : bool;      (* cleared after the first failed write *)
  mutable loaded : int;
  mutable written : int;
  mutable skipped : int;        (* unreadable/corrupt/refused entries *)
}

let scrub_key key =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '_')
    key

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_store ~dir ~key =
  let scoped =
    Filename.concat dir (Printf.sprintf "%s.v%d" (scrub_key key) store_version)
  in
  match mkdir_p scoped with
  | () -> Ok { dir = scoped; writable = true; loaded = 0; written = 0;
               skipped = 0 }
  | exception e -> Error (Printexc.to_string e)

let dir t = t.dir
let loaded t = t.loaded
let written t = t.written
let skipped t = t.skipped
let writable t = t.writable

(* Bytes that depend only on the key's structure, never on which of its
   subterms happen to be physically shared (as [Marshal] bytes do).
   Structurally distinct nodes are numbered in first-visit post-order,
   and each is written once, with its children replaced by their
   numbers; the roots' numbers follow. Linear in the distinct nodes. *)
let key_bytes (key : Expr.t list) =
  let buf = Buffer.create 256 in
  let ids = Expr.Tbl.create 64 in
  let rec emit (e : Expr.t) =
    match Expr.Tbl.find_opt ids e with
    | Some i -> i
    | None ->
        let ix c = Expr.word (emit c) in
        let shallow =
          match e.node with
          | Expr.Const _ | Expr.Var _ -> e
          | Expr.Binop (op, a, b) ->
              let a = ix a in
              Expr.mk (Expr.Binop (op, a, ix b))
          | Expr.Cmp (op, a, b) ->
              let a = ix a in
              Expr.mk (Expr.Cmp (op, a, ix b))
          | Expr.Ite (c, a, b) ->
              let c = ix c in
              let a = ix a in
              Expr.mk (Expr.Ite (c, a, ix b))
          | Expr.Extract (x, i) -> Expr.mk (Expr.Extract (ix x, i))
          | Expr.Concat4 (b3, b2, b1, b0) ->
              let b3 = ix b3 in
              let b2 = ix b2 in
              let b1 = ix b1 in
              Expr.mk (Expr.Concat4 (b3, b2, b1, ix b0))
          | Expr.Zext x -> Expr.mk (Expr.Zext (ix x))
          | Expr.Not x -> Expr.mk (Expr.Not (ix x))
        in
        Buffer.add_string buf (Marshal.to_string shallow [ Marshal.No_sharing ]);
        let i = Expr.Tbl.length ids in
        Expr.Tbl.add ids e i;
        i
  in
  List.iter (fun e -> Printf.bprintf buf "%d;" (emit e)) key;
  Buffer.contents buf

let entry_path t (pe : Qcache.pentry) =
  (* Address by the renamed key alone: for a deterministic engine the
     verdict is a function of the key, so the first writer wins and
     every later run skips the write. *)
  let digest = Digest.to_hex (Digest.string (key_bytes pe.pe_key)) in
  Filename.concat t.dir (digest ^ ".qe")

(* Load every readable entry into the shared cache (warm start).
   Filenames are sorted so the insertion order (hence each shard's LRU
   ticks) is the same on every host. *)
let load t cache =
  let files =
    match Sys.readdir t.dir with
    | files ->
        Array.sort compare files;
        Array.to_list files
    | exception _ -> []
  in
  List.iter
    (fun f ->
      if Filename.check_suffix f ".qe" then
        match Blob.read_file (Filename.concat t.dir f) with
        | Error _ -> t.skipped <- t.skipped + 1
        | Ok (pe : Qcache.pentry) ->
            if Qcache.Sharded.import_pentry cache pe then
              t.loaded <- t.loaded + 1
            else t.skipped <- t.skipped + 1)
    files;
  t.loaded

(* Persist every entry born in this process. Stops writing (and marks
   the store read-only) after the first failure so a full disk costs one
   syscall error, not one per entry. Returns entries newly written. *)
let save t cache =
  let before = t.written in
  let entries = Qcache.Sharded.export_entries cache in
  List.iter
    (fun pe ->
      if t.writable then begin
        let path = entry_path t pe in
        if not (Sys.file_exists path) then
          match Blob.write_file path pe with
          | Ok () -> t.written <- t.written + 1
          | Error _ -> t.writable <- false
      end)
    entries;
  t.written - before
