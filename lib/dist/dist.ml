(* Multi-process exploration: a coordinator that partitions the fork
   tree by shipping serialized snapshots to worker processes, steals
   work back from busy workers when others drain, and merges per-worker
   results into one report equal (as a sorted bug set) to the
   single-process run's.

   Workers are [Unix.fork] children of the coordinator — the same
   binary, inheriting the configuration by closure, so no setup frame
   crosses the wire and any caller (CLI, bench, tests) can host a
   fleet. Forking without exec is safe here because distributed runs
   force [jobs = 1]: no live domains exist at fork time.

   Soundness across processes rests on two pieces: disjoint variable-id
   lanes ([Expr.set_var_lane] — coordinator lane 0, worker [i] lane
   [i+1]), so every process mints globally unique ids and shipped
   constraints keep their meaning; and subset-index-free imports from
   the shared persistent store ([foreign_store]), so cross-lane cache
   entries can only hit by exact renamed match.

   A worker that dies — crash, OOM kill, [kill -9] — is detected by
   EOF on its pipe; the states it had been shipped and had not yet
   reported are re-shipped from the coordinator's ledger to the
   survivors (or explored locally if none remain). A lost worker costs
   wall time, never a verdict. *)

module Expr = Ddt_solver.Expr
module Solver = Ddt_solver.Solver
module St = Ddt_symexec.Symstate
module Exec = Ddt_symexec.Exec
module Config = Ddt_core.Config
module Session = Ddt_core.Session
module Dist = Session.Dist

type counters = {
  c_workers : int;        (* worker processes requested *)
  c_shipped : int;        (* states shipped coordinator -> workers *)
  c_steals : int;         (* non-empty steal transfers brokered *)
  c_stolen_states : int;  (* states moved by those steals *)
  c_reships : int;        (* states re-shipped after a worker death *)
  c_deaths : int;         (* worker processes lost mid-run *)
  c_store_hits : int;     (* query-cache hits on persistent-store entries *)
  c_wall : float;
}

(* {2 Worker process} *)

let worker_main ~wid ~lanes (conn : Proto.conn) (cfg : Config.t) =
  Expr.set_var_lane ~lane:(wid + 1) ~lanes;
  let d = Dist.prepare ~foreign_store:true cfg in
  let ticks = ref 0 in
  (* Runs at every pick boundary: service steal requests promptly, and
     every so often flush our query-cache entries to the shared store,
     import the other workers' flushes, and heartbeat. *)
  let tick () =
    incr ticks;
    if !ticks land 255 = 0 then begin
      (match Proto.try_recv conn with
       | Ok (Some (Proto.C_steal max_states)) ->
           let give = min max_states (Dist.queue_length d / 2) in
           let imgs = if give > 0 then Dist.export_steal d ~max:give else [] in
           ignore (Proto.send conn (Proto.W_stolen imgs))
       | Ok (Some (Proto.C_explore imgs)) -> Dist.import d imgs
       | Ok (Some Proto.C_shutdown) | Ok None | Error _ -> ());
      if !ticks land 16383 = 0 then begin
        ignore (Dist.flush_store d);
        ignore (Dist.refresh_store d);
        ignore (Proto.send conn (Proto.W_status (Dist.queue_length d)))
      end
    end
  in
  match Proto.send conn Proto.W_ready with
  | Error _ -> ()
  | Ok () ->
      let rec loop () =
        match Proto.recv conn with
        | Ok (Proto.C_explore imgs) ->
            Dist.import d imgs;
            ignore (Dist.refresh_store d);
            Dist.explore d ~tick;
            ignore (Dist.flush_store d);
            let b = Dist.take_batch d in
            (match Proto.send conn (Proto.W_idle b) with
             | Ok () -> loop ()
             | Error _ -> ())
        | Ok (Proto.C_steal _) ->
            (* idle: nothing to donate *)
            (match Proto.send conn (Proto.W_stolen []) with
             | Ok () -> loop ()
             | Error _ -> ())
        | Ok Proto.C_shutdown ->
            ignore (Dist.flush_store d);
            ignore (Proto.send conn Proto.W_bye)
        | Error _ -> ()
      in
      loop ()

(* {2 Coordinator} *)

type worker = {
  w_wid : int;
  w_pid : int;
  w_conn : Proto.conn;
  mutable w_alive : bool;
  mutable w_ready : bool;
  mutable w_ledger : St.image list;
  (* states shipped to this worker and not yet covered by a [W_idle] —
     exactly what must be re-shipped if it dies *)
  mutable w_steal_pending : bool;
}

let spawn_worker ~wid ~lanes (cfg : Config.t) =
  let c_r, c_w = Unix.pipe () in (* coordinator -> worker *)
  let w_r, w_w = Unix.pipe () in (* worker -> coordinator *)
  (* Flush before forking: buffered output would otherwise be emitted
     once per process. *)
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close c_w;
      Unix.close w_r;
      let conn = Proto.make ~fd_in:c_r ~fd_out:w_w in
      (try worker_main ~wid ~lanes conn cfg with _ -> ());
      (* Never [exit]: at_exit handlers belong to the coordinator. *)
      Unix._exit 0
  | pid ->
      Unix.close c_r;
      Unix.close w_w;
      {
        w_wid = wid;
        w_pid = pid;
        w_conn = Proto.make ~fd_in:w_r ~fd_out:c_w;
        w_alive = true;
        w_ready = false;
        w_ledger = [];
        w_steal_pending = false;
      }

let split_at n l =
  let rec go n acc = function
    | rest when n <= 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> go (n - 1) (x :: acc) rest
  in
  go n [] l

let run ?(workers = 2) ?kill_worker (cfg : Config.t) =
  let t0 = Unix.gettimeofday () in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workers = max 0 workers in
  let lanes = workers + 1 in
  Expr.set_var_lane ~lane:0 ~lanes;
  (* Distributed runs force a single in-process domain (fork safety),
     never checkpoint (durability is the ledger), and scope the shared
     store away from single-process stores — its entries carry
     other-lane variable ids. *)
  let cfg =
    {
      cfg with
      Config.exec_config = { cfg.Config.exec_config with Exec.jobs = 1 };
      checkpoint_every = 0;
      store_dir =
        Option.map (fun r -> Filename.concat r "dist") cfg.Config.store_dir;
    }
  in
  let ws = List.init workers (fun wid -> spawn_worker ~wid ~lanes cfg) in
  let finally () =
    (* Leave no orphans, and leave the lane state so the rest of this
       process keeps minting globally fresh ids: skip the counter past
       every id any lane could have drawn, then return to the dense
       single-process lane. *)
    List.iter
      (fun w ->
        if w.w_alive then begin
          (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ());
          Proto.close w.w_conn;
          w.w_alive <- false
        end)
      ws;
    Expr.set_var_counter ((Expr.var_counter_value () + 1) * lanes);
    Expr.set_var_lane ~lane:0 ~lanes:1
  in
  try
    let d = Dist.prepare ~foreign_store:true cfg in
    let shipped = ref 0
    and steals = ref 0
    and stolen_states = ref 0
    and reships = ref 0
    and deaths = ref 0 in
    let pending = ref [] in
    let kill_armed = ref kill_worker in
    let mark_dead w =
      if w.w_alive then begin
        w.w_alive <- false;
        incr deaths;
        Proto.close w.w_conn;
        (try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ());
        if w.w_ledger <> [] then begin
          reships := !reships + List.length w.w_ledger;
          pending := w.w_ledger @ !pending;
          w.w_ledger <- []
        end;
        w.w_steal_pending <- false
      end
    in
    let ship w imgs =
      if imgs <> [] then
        match Proto.send w.w_conn (Proto.C_explore imgs) with
        | Ok () ->
            w.w_ledger <- imgs @ w.w_ledger;
            shipped := !shipped + List.length imgs;
            (match !kill_armed with
             | Some k when k = w.w_wid ->
                 (* Deterministic failure injection for the recovery
                    tests: the victim dies with a non-empty ledger,
                    before it can report anything. *)
                 kill_armed := None;
                 (try Unix.kill w.w_pid Sys.sigkill with
                  | Unix.Unix_error _ -> ())
             | _ -> ())
        | Error _ ->
            pending := imgs @ !pending;
            mark_dead w
    in
    let is_idle w = w.w_alive && w.w_ready && w.w_ledger = [] in
    let handle w = function
      | Proto.W_ready -> w.w_ready <- true
      | Proto.W_status _ -> ()
      | Proto.W_bye -> ()
      | Proto.W_stolen imgs ->
          w.w_steal_pending <- false;
          if imgs <> [] then begin
            incr steals;
            stolen_states := !stolen_states + List.length imgs;
            pending := !pending @ imgs
          end
      | Proto.W_idle b ->
          Dist.merge_batch d ~wid:w.w_wid b;
          w.w_ledger <- []
    in
    let drain w =
      let rec go () =
        if w.w_alive then
          match Proto.try_recv w.w_conn with
          | Ok None -> ()
          | Ok (Some msg) ->
              handle w msg;
              go ()
          | Error _ -> mark_dead w
      in
      go ()
    in
    let dispatch () =
      let idle = List.filter is_idle ws in
      if idle <> [] then
        if !pending <> [] then begin
          (* Partition the backlog across the idle workers, one frame
             each — a frame's states marshal together, preserving the
             sharing between siblings. *)
          let per =
            let n = List.length !pending and k = List.length idle in
            max 1 ((n + k - 1) / k)
          in
          List.iter
            (fun w ->
              if !pending <> [] then begin
                let imgs, rest = split_at per !pending in
                pending := rest;
                ship w imgs
              end)
            idle
        end
        else begin
          (* Nothing queued here but workers are idle: ask one busy
             worker to donate half its frontier. Self-pacing — the next
             request goes out only after this one is answered. *)
          match
            List.find_opt
              (fun w -> w.w_alive && w.w_ledger <> [] && not w.w_steal_pending)
              ws
          with
          | None -> ()
          | Some busy ->
              busy.w_steal_pending <- true;
              (match
                 Proto.send busy.w_conn
                   (Proto.C_steal (8 * List.length idle))
               with
               | Ok () -> ()
               | Error _ -> mark_dead busy)
        end
    in
    (* Explore the current [pending] backlog to exhaustion: ship, steal
       to rebalance, merge results, survive deaths. *)
    let collect () =
      let phase_done () =
        !pending = []
        && List.for_all (fun w -> (not w.w_alive) || w.w_ledger = []) ws
        && List.for_all (fun w -> not w.w_steal_pending) ws
      in
      let rec loop () =
        if not (phase_done ()) then begin
          let alive = List.filter (fun w -> w.w_alive) ws in
          if alive = [] then begin
            (* Every worker is gone: finish this phase locally. *)
            let imgs = !pending in
            pending := [];
            Dist.explore_local d imgs
          end
          else begin
            dispatch ();
            (* A failed send in [dispatch] marks its worker dead and
               closes its pipes, so select only over the survivors. *)
            let alive = List.filter (fun w -> w.w_alive) ws in
            let fds = List.map (fun w -> Proto.fd_in w.w_conn) alive in
            (match Unix.select fds [] [] 0.25 with
             | readable, _, _ ->
                 List.iter
                   (fun w ->
                     if w.w_alive && List.mem (Proto.fd_in w.w_conn) readable
                     then drain w)
                   alive
             | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
            loop ()
          end
        end
      in
      loop ()
    in
    Dist.seed_load_phase d;
    pending := Dist.export_frontier d;
    collect ();
    Dist.end_phase d;
    List.iteri
      (fun i item ->
        let queued = Dist.seed_workload_phase d (i + 1) item in
        if queued > 0 then begin
          pending := Dist.export_frontier d;
          collect ();
          Dist.end_phase d
        end)
      (Dist.config d).Config.workload;
    (* Orderly shutdown: let workers flush their last store entries. *)
    List.iter
      (fun w ->
        if w.w_alive then
          match Proto.send w.w_conn Proto.C_shutdown with
          | Ok () -> (
              match Proto.recv w.w_conn with
              | Ok Proto.W_bye | Ok _ -> ()
              | Error _ -> ())
          | Error _ -> ())
      ws;
    List.iter
      (fun w ->
        if w.w_alive then begin
          (try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ());
          Proto.close w.w_conn;
          w.w_alive <- false
        end)
      ws;
    let result =
      Dist.dist_finalize d ~workers:(max 1 workers) ~reships:!reships
    in
    (* Brokered steal transfers belong in the same stats slot as
       in-process frontier steals. *)
    let stats =
      {
        result.Session.r_stats with
        Exec.st_steals = result.Session.r_stats.Exec.st_steals + !steals;
      }
    in
    let result = { result with Session.r_stats = stats } in
    let counters =
      {
        c_workers = workers;
        c_shipped = !shipped;
        c_steals = !steals;
        c_stolen_states = !stolen_states;
        c_reships = !reships;
        c_deaths = !deaths;
        c_store_hits =
          result.Session.r_stats.Exec.st_solver.Solver.s_cache_persist_hits;
        c_wall = Unix.gettimeofday () -. t0;
      }
    in
    finally ();
    (result, counters)
  with e ->
    finally ();
    raise e
