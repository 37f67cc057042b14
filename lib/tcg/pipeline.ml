type pass = Const_fold | Dce | Mem_elim | Fence_merge

let pass_name = function
  | Const_fold -> "const-fold"
  | Dce -> "dce"
  | Mem_elim -> "mem-elim"
  | Fence_merge -> "fence-merge"

let all = [ Const_fold; Mem_elim; Dce; Fence_merge ]
let qemu_default = [ Const_fold; Mem_elim; Dce ]
let risotto_default = [ Const_fold; Mem_elim; Dce; Fence_merge ]

let run_pass ?ledger = function
  | Const_fold -> Constfold.run
  | Dce -> Dce.run
  | Mem_elim -> Memopt.run
  | Fence_merge -> Fenceopt.run ?ledger

(* Per-pass wall-clock histograms (opt.<pass>.ns), registered on first
   use so a pipeline run can be attributed pass by pass. *)
let pass_hists =
  lazy
    (List.map
       (fun p -> (p, Obs.Metrics.histogram ("opt." ^ pass_name p ^ ".ns")))
       all)

let pass_hist p = List.assq p (Lazy.force pass_hists)

(* Record every barrier still in [ops] under one outcome.  Only
   Fence_merge removes or rewrites barriers (it does its own ledger
   accounting); Const_fold, Mem_elim and Dce keep the multiset of
   [Mb (kind, origin)] unchanged — Mb is impure and writes nothing —
   which test_tcg pins as a property.  So the ledger needs just the
   frontend's fences on the way in and the survivors on the way out. *)
let record_fences l ~pass outcome ops =
  List.iter
    (function
      | Op.Mb (kind, origin) ->
          Fence_ledger.record l ~pass ~kind ~origin outcome
      | _ -> ())
    ops

let run ?ledger passes (b : Block.t) =
  (* Always account into a ledger so the fence.* metrics counters flow
     even when no caller keeps the per-block provenance. *)
  let l = match ledger with Some l -> l | None -> Fence_ledger.create () in
  record_fences l ~pass:"frontend" Fence_ledger.Emitted b.ops;
  let ops =
    List.fold_left
      (fun ops p ->
        Obs.Trace.with_span ~cat:"opt" (pass_name p) (fun () ->
            Obs.Profile.time (pass_hist p) (fun () -> run_pass ~ledger:l p ops)))
      b.ops passes
  in
  record_fences l ~pass:"pipeline" Fence_ledger.Kept ops;
  { b with ops }
