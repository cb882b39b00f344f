(* Only the benchmark harness calls this: one session on the shared
   frontier, with [workers] worker domains. *)

module Config = Ddt_core.Config

let run ?(workers = 2) (cfg : Config.t) =
  let exec_config =
    { cfg.Config.exec_config with Ddt_symexec.Exec.jobs = max 1 workers }
  in
  (Ddt_core.Session.run { cfg with Config.exec_config }, ())
