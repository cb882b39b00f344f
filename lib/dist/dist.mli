(** Entry point kept for the benchmark harness ([ddtbench]), its only
    caller; everything else calls {!Ddt_core.Session.run} directly. *)

val run :
  ?workers:int -> Ddt_core.Config.t -> Ddt_core.Session.result * unit
(** [run ~workers cfg] is {!Ddt_core.Session.run} on the shared
    frontier with [max 1 workers] worker domains (default 2). The pair
    shape is the one the harness destructures. *)
