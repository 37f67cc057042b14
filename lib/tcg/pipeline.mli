(** Optimizer pipeline over translation blocks. *)

type pass = Const_fold | Dce | Mem_elim | Fence_merge

val pass_name : pass -> string
val all : pass list

(** Qemu's baseline optimizations (no fence merging). *)
val qemu_default : pass list

(** Risotto: Qemu's passes plus fence merging. *)
val risotto_default : pass list

val run_pass : ?ledger:Fence_ledger.t -> pass -> Op.t list -> Op.t list

(** Run the passes in order.  Each pass executes under an [opt]-category
    {!Obs.Trace} span and, when metrics are enabled, its wall time is
    recorded into the [opt.<pass>.ns] histogram — both invisible to the
    transformation itself.

    Fence provenance: the block's initial barriers are recorded as
    [Emitted] and the final survivors as [Kept]; in between, only
    {!Fenceopt} touches barriers and records its own merges, drops and
    strengthenings.  Entries go into [ledger] when given, and into the
    [fence.<kind>.<outcome>] {!Obs.Metrics} counters always. *)
val run : ?ledger:Fence_ledger.t -> pass list -> Block.t -> Block.t
