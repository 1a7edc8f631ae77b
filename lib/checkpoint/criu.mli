(** CRIU stand-in: process checkpoint/restore (paper §5.2).

    Real CRIU dumps CPU registers and memory pages of a process.  A
    simulator has no process image, so the honest equivalent is a state
    blob provided by the replica runtime (DESIGN.md documents this
    substitution); the {e cost} is charged against the declared resident
    memory of the process, calibrated so the paper's Table 2 magnitudes
    come out (hundreds of ms for a ClamAV-sized image).

    Dump and restore require the container to run unconfined, as in the
    paper (CRIU must modify ns_last_pid). *)

type image = { payload : string;  (** serialized process state *) mem_bytes : int }

val dump :
  Crane_sim.Engine.t -> Crane_fs.Container.t -> state:string -> mem_bytes:int -> image
(** Blocking.  @raise Crane_fs.Container.Confined *)

val restore : Crane_sim.Engine.t -> Crane_fs.Container.t -> image -> string
(** Blocking; returns the state blob to rebuild the process from.
    @raise Crane_fs.Container.Confined *)
