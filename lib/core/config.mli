(** DBT configurations: the four setups of the paper's evaluation
    (§7.1) plus the knobs they are made of. *)

(** Which fences the frontend emits around guest accesses. *)
type fence_scheme =
  | Qemu_fences  (** Figure 2: [Fmr; ld], [Fmw; st] *)
  | Risotto_fences  (** Figure 7a: [ld; Frm], [Fww; st] *)
  | No_fences  (** incorrect oracle: no ordering enforcement *)

(** How guest atomic RMWs are translated. *)
type rmw_strategy =
  | Helper of [ `Gcc9 | `Gcc10 ]
      (** Qemu: call into a helper built on GCC atomics — an
          [ldaxr]/[stlxr] pair with GCC 9, [casal] with GCC 10 (§3.1) *)
  | Native_casal  (** Risotto: direct [casal] translation (§6.3) *)
  | Native_rmw2  (** Risotto: [DMBFF; LDXR/STXR; DMBFF] (Figure 7b) *)

type t = {
  name : string;
  fences : fence_scheme;
  passes : Tcg.Pipeline.pass list;
  rmw : rmw_strategy;
  host_linker : bool;
  inject : Inject.plan;  (** fault-injection plan; [[]] in all presets *)
  chain : bool;
      (** patch static block exits into direct block-to-block jumps
          (QEMU-style TB chaining).  Chaining executes exactly the same
          translated code in the same order, so results and guest
          cycles are unchanged; [false] gives the unchained dispatch
          baseline.  On in all presets. *)
  trace_threshold : int;
      (** tier-2 threshold: once a block has executed this many times
          and its {!Tier} profile shows a dominant observed successor,
          stitch the dominant path into one superblock and re-run the
          optimizer pipeline across the former block boundaries.  [0]
          (the default in all presets) disables superblock formation;
          requires [chain]. *)
  jit_threshold : int;
      (** tier-0/1 boundary: with [0] (the default in all presets)
          every block is backend-compiled synchronously at first
          translation, exactly the pre-tiered behaviour.  With [n > 0],
          fresh blocks run on the TCG interpreter and a backend compile
          is requested only once the block's execution count reaches
          [n]; the compile runs inline on the execution thread, so
          the ladder is deterministic. *)
}

(** Vanilla Qemu 6.1.0. *)
val qemu : t

(** Qemu with fence generation disabled (incorrect; performance
    oracle). *)
val no_fences : t

(** Qemu with the verified mappings and fence merging. *)
val tcg_ver : t

(** Full Risotto: verified mappings, fence merging, host linker, native
    CAS. *)
val risotto : t

val all : t list
