(* The three DBT workloads (kernels, stream, cold) on the default
   [risotto] preset: the untraced end-to-end run, the traced layered
   runner behind the ledger, and the per-layer probes. *)

module E = Core.Engine
module R = X86.Reg
open Common

let cfg = Core.Config.risotto

(* One engine run: an image and its guest threads (tid, preset
   registers), and the check of the final state against an independent
   reference. *)
type job = {
  image : Image.Gelf.t;
  threads : (int * (R.t * int64) list) list;
  insns : int;  (** guest instructions, from the input *)
  check : E.t -> E.guest_thread list -> bool;
}

(* Address trace replayed by the memsys probe on a fresh memory. *)
type trace = { loads : int64 array; stores : int64 array; atomics : (int64 * int) array }

type workload = {
  name : string;
  jobs : job array;  (** one timed unit runs every job once *)
  items : int;  (** guest instructions per unit, from the input *)
  traces : unit -> trace list;
}

(* ---------------------------------------------------------------- *)
(* Correctness *)

let run_job j =
  let eng = E.create cfg j.image in
  let gs = List.map (fun (tid, regs) -> E.spawn eng ~tid ~entry:j.image.Image.Gelf.entry ~regs ()) j.threads in
  let out = E.run_concurrent eng gs in
  (eng, gs, match out with E.Completed _ -> true | E.Exhausted _ -> false)

(* A run counts as failed when its state differs from the reference,
   when a thread trapped, or when any block ran on the TCG interpreter
   (which charges no model cycles, so the cycle totals would be
   dishonest). *)
let honest eng =
  let st = E.stats eng in
  st.E.traps = 0 && st.E.interp_execs = 0 && st.E.interp_fallbacks = 0

let job_ok j (eng, gs, completed) =
  completed && honest eng && List.for_all (fun g -> E.trap g = None) gs && j.check eng gs

type reference = { ref_regs : int64 array; ref_mem : (int64 * int64) list; ref_steps : int }

let reference image =
  let s =
    X86.Interp.create ~code:image.Image.Gelf.text ~base:image.Image.Gelf.text_base
      ~entry:image.Image.Gelf.entry ()
  in
  s.X86.Interp.regs.(R.index R.RSP) <- E.stack_top 0;
  let steps = X86.Interp.run ~max_steps:max_int s in
  { ref_regs = Array.copy s.X86.Interp.regs; ref_mem = Memsys.Mem.dump s.X86.Interp.mem; ref_steps = steps }

(* Single-thread jobs are checked against the X86.Interp run of the same
   image, whose instruction count must also equal the closed form. *)
let interp_check image ~insns =
  let r = lazy (reference image) in
  fun eng gs ->
    let r = Lazy.force r in
    match gs with
    | [ g ] ->
        r.ref_steps = insns
        && List.for_all (fun x -> Int64.equal r.ref_regs.(R.index x) (E.reg g x)) R.all
        && r.ref_mem = Memsys.Mem.dump (E.memory eng)
    | _ -> false

(* ---------------------------------------------------------------- *)
(* Workloads *)

let kernels ~seed ~scale =
  let specs = Inputs.kernel_specs ~seed ~scale in
  let jobs =
    List.map
      (fun s ->
        let image = Inputs.kernel_image s and insns = Inputs.kernel_insns s in
        { image; threads = [ (0, []) ]; insns; check = interp_check image ~insns })
      specs
  in
  let traces () =
    List.map
      (fun (s : Harness.Kernel.spec) ->
        (* Kernel.to_x86 keeps tid 0's data at 0x20000, its lock word at +1024. *)
        let m = s.mix and base = 0x20000L in
        let iters = min s.iters 20_000 in
        let at k = Int64.add base (Int64.of_int (8 * k)) in
        {
          loads = Array.init (iters * m.loads) (fun i -> at (i mod m.loads mod 16));
          stores = Array.init (iters * m.stores) (fun i -> at (16 + (i mod m.stores mod 16)));
          atomics = Array.make (iters * m.locks) (Int64.add base 1024L, 0);
        })
      specs
  in
  {
    name = "kernels";
    jobs = Array.of_list jobs;
    items = List.fold_left (fun a s -> a + Inputs.kernel_insns s) 0 specs;
    traces;
  }

let stream ~seed ~passes =
  let s = Inputs.stream_input ~seed ~passes in
  (* Every region word and the counter against their closed form; the
     first run also checks the whole memory holds nothing else (later
     runs repeat the same execution, which the unit digest checks). *)
  let whole = ref true in
  let check eng _ =
    let mem = E.memory eng in
    let words_ok = ref true in
    for t = 0 to Inputs.stream_threads - 1 do
      for w = 0 to Inputs.stream_words - 1 do
        let a = Inputs.region_base t + (8 * w) in
        if Int64.to_int (Memsys.Mem.load mem (Int64.of_int a)) <> Inputs.stream_word s a then words_ok := false
      done
    done;
    let ok =
      !words_ok
      && Int64.to_int (Memsys.Mem.load mem (Int64.of_int Inputs.counter_addr)) = Inputs.stream_counter s
      && ((not !whole) || List.length (Memsys.Mem.dump mem) = (Inputs.stream_threads * Inputs.stream_words) + 1)
    in
    whole := false;
    ok
  in
  let job =
    {
      image = s.Inputs.s_image;
      threads = List.init Inputs.stream_threads (fun t -> (t, Inputs.stream_regs s t));
      insns = Inputs.stream_insns s;
      check;
    }
  in
  let traces () =
    (* One pass in the engine's round-robin order: each thread's group
       of 8 words, then its counter increment. *)
    let loads = ref [] and atomics = ref [] in
    for g = Inputs.stream_groups - 1 downto 0 do
      for t = Inputs.stream_threads - 1 downto 0 do
        atomics := (Int64.of_int Inputs.counter_addr, t) :: !atomics;
        for w = Inputs.stream_group - 1 downto 0 do
          loads :=
            Int64.of_int (Inputs.region_base t + (8 * ((g * Inputs.stream_group) + w))) :: !loads
        done
      done
    done;
    let loads = Array.of_list !loads in
    [ { loads; stores = loads; atomics = Array.of_list !atomics } ]
  in
  { name = "stream"; jobs = [| job |]; items = Inputs.stream_insns s; traces }

let cold ~seed ~images ~blocks =
  let imgs = List.init images (fun index -> Inputs.cold_image ~seed ~index ~blocks) in
  let traces () =
    List.map
      (fun (c : Inputs.cold) ->
        let pick f = Array.of_list (List.filter_map f c.c_code) in
        let at (m : X86.Insn.mem) = Int64.add Inputs.cold_data m.disp in
        {
          loads = pick (function X86.Insn.Load (_, m) -> Some (at m) | _ -> None);
          stores = pick (function X86.Insn.Store (m, _) -> Some (at m) | _ -> None);
          atomics = pick (function X86.Insn.Lock_xadd _ -> Some (Inputs.cold_lock, 0) | _ -> None);
        })
      imgs
  in
  {
    name = "cold";
    jobs =
      Array.of_list
        (List.map
           (fun (c : Inputs.cold) ->
             {
               image = c.c_image;
               threads = [ (0, []) ];
               insns = c.c_insns;
               check = interp_check c.c_image ~insns:c.c_insns;
             })
           imgs);
    items = List.fold_left (fun a (c : Inputs.cold) -> a + c.c_insns) 0 imgs;
    traces;
  }

(* ---------------------------------------------------------------- *)
(* Untraced end-to-end run *)

(* Model cycles, translated and executed blocks of one unit: these must
   repeat exactly across units of the same input. *)
let digest runs =
  Array.fold_left
    (fun (c, t, x) (eng, gs, _) ->
      let st = E.stats eng in
      (c + List.fold_left (fun a g -> a + E.cycles g) 0 gs, t + st.E.blocks_translated, x + st.E.blocks_executed))
    (0, 0, 0) runs

let first_sample w k =
  let j = w.jobs.(k mod Array.length w.jobs) in
  let tid, regs = List.hd j.threads in
  let t0 = now_ns () in
  let eng = E.create cfg j.image in
  let g = E.spawn eng ~tid ~entry:j.image.Image.Gelf.entry ~regs () in
  E.step_block eng g;
  (now_ns () - t0, E.trap g = None && honest eng)

let end_to_end w ~setup ~seconds =
  let attempted = ref 0 and failed = ref 0 and first_digest = ref None in
  let count ok =
    incr attempted;
    if not ok then incr failed
  in
  let best = best_create (Array.length w.jobs) in
  let units, first, first_best, setup_s =
    measure ~seconds ~inputs:(Array.length w.jobs) ~setup
      ~unit_fn:(fun _ ->
        let dt = ref 0 in
        let runs =
          Array.mapi
            (fun i j ->
              let t0 = now_ns () in
              let r = run_job j in
              let ns = now_ns () - t0 in
              best_note best i ~items:j.insns ns;
              dt := !dt + ns;
              r)
            w.jobs
        in
        let dt = !dt in
        Array.iteri (fun i r -> count (job_ok w.jobs.(i) r)) runs;
        let d = digest runs in
        (match !first_digest with
        | None -> first_digest := Some d
        | Some d0 -> if d <> d0 then count false);
        dt)
      ~sample_fn:(fun k ->
        let dt, ok = first_sample w k in
        count ok;
        dt)
  in
  let cycles, translated, executed = Option.get !first_digest in
  let rates = List.map (fun dt -> float_of_int w.items /. secs dt) units in
  {
    attempted = !attempted;
    failed = !failed;
    metrics =
      [
        ("items_per_s_best", best_rate best);
        ("first_result_us_best", best_mean_us first_best);
        ("setup_s", setup_s);
        ("peak_heap_mb", peak_heap_mb ());
      ];
    lines =
      [
        Printf.sprintf
          "%s: %d unit(s) of %d guest insns; Minsn/s with each input at its best %.3f; per unit median %.3f (min \
           %.3f, max %.3f)"
          w.name (List.length units) w.items (best_rate best /. 1e6)
          (median rates /. 1e6)
          (List.fold_left min infinity rates /. 1e6)
          (List.fold_left max 0. rates /. 1e6);
        Printf.sprintf "%s: model cycles %d (%.4f per insn), %d blocks translated, %d executed per unit" w.name
          cycles
          (ratio cycles w.items)
          translated executed;
        Printf.sprintf
          "%s: first block us, mean of each input's best %.1f; median %.1f, p%g %.1f over %d fresh engines" w.name
          (best_mean_us first_best) (median first) first_result_tail
          (percentile first_result_tail first) (List.length first);
      ];
  }

(* ---------------------------------------------------------------- *)
(* Traced run: the layered runner *)

let l_create = Span.layer "core.engine.create"
let l_spawn = Span.layer "core.engine.spawn"
let l_frontend = Span.layer "core.frontend.translate"
let l_pipeline = Span.layer "tcg.pipeline.run"
let l_backend = Span.layer "core.backend.compile"
let l_exec = Span.layer "arm.machine.exec_block"

(* Per-translation counts gathered by the layered runner. *)
type blocks = {
  mutable n : int;
  mutable guest_insns : int;
  mutable ops_in : int;
  mutable fences_in : int;
  mutable fences_out : int;
  mutable arm_insns : int;
  mutable dmbs : int;
  mutable raws : Tcg.Block.t list;  (** kept for the pipeline probe *)
  mutable exec_words : float;  (** minor words allocated inside exec_block *)
}

let new_blocks () =
  { n = 0; guest_insns = 0; ops_in = 0; fences_in = 0; fences_out = 0; arm_insns = 0; dmbs = 0; raws = []; exec_words = 0. }

let max_probe_blocks = 256

(* The engine's work for one job, done by calling each layer's public
   function once per unit of work: Engine.create/spawn, then per fresh
   pc Frontend.translate, Pipeline.run and Backend.compile, and per
   dispatch Arm.Machine.exec_block, round-robin over the threads.  The
   runner's own code cache and loop stand in for the engine's dispatch,
   which the step probe measures instead.  Also returns [again exec],
   which runs fresh threads over the now-warm code with [exec] in place
   of the traced exec_block. *)
let layered ~acc j =
  let start eng =
    List.map
      (fun (tid, regs) -> Span.run l_spawn (fun () -> E.spawn eng ~tid ~entry:j.image.Image.Gelf.entry ~regs ()))
      j.threads
  in
  let eng = Span.run l_create (fun () -> E.create cfg j.image) in
  let gs = start eng in
  let shared = Arm.Machine.create_shared (E.memory eng) in
  Core.Helpers.register_all ~inject:(E.injector eng) shared;
  let fe = Core.Frontend.create ~inject:(E.injector eng) cfg j.image (E.links eng) in
  let code = Hashtbl.create 64 and pcs = ref [] in
  let translate pc =
    let raw = Span.run l_frontend (fun () -> Core.Frontend.translate fe pc) in
    let ledger = Tcg.Fence_ledger.create () in
    let opt = Span.run l_pipeline (fun () -> Tcg.Pipeline.run ~ledger cfg.Core.Config.passes raw) in
    let arm = Span.run l_backend (fun () -> Core.Backend.compile cfg opt) in
    acc.n <- acc.n + 1;
    acc.guest_insns <- acc.guest_insns + raw.Tcg.Block.guest_insns;
    acc.ops_in <- acc.ops_in + Tcg.Block.op_count raw;
    acc.fences_in <- acc.fences_in + Tcg.Block.fence_count raw;
    acc.fences_out <- acc.fences_out + Tcg.Block.fence_count opt;
    acc.arm_insns <- acc.arm_insns + Array.length arm;
    acc.dmbs <- acc.dmbs + Array.fold_left (fun n i -> match i with Arm.Insn.Dmb _ -> n + 1 | _ -> n) 0 arm;
    if acc.n <= max_probe_blocks then acc.raws <- raw :: acc.raws;
    Hashtbl.replace code pc arm;
    pcs := pc :: !pcs;
    arm
  in
  let traced_exec g c =
    if Atomic.get Span.on then begin
      let w0 = Gc.minor_words () in
      let r = Span.run l_exec (fun () -> Arm.Machine.exec_block shared g.E.arm c) in
      acc.exec_words <- acc.exec_words +. (Gc.minor_words () -. w0);
      r
    end
    else Span.run l_exec (fun () -> Arm.Machine.exec_block shared g.E.arm c)
  in
  let ok = ref true in
  let run_threads gs exec =
    let threads = Array.of_list gs in
    let live = ref (Array.length threads) in
    try
      while !live > 0 do
        Array.iter
          (fun (g : E.guest_thread) ->
            if not g.finished then begin
              let c = match Hashtbl.find_opt code g.pc with Some c -> c | None -> translate g.pc in
              match exec g c with
              | Arm.Machine.Next_tb pc | Arm.Machine.Jump pc -> g.pc <- pc
              | Arm.Machine.Halted ->
                  g.finished <- true;
                  decr live
              | Arm.Machine.Trapped _ ->
                  ok := false;
                  g.finished <- true;
                  decr live
            end)
          threads
      done
    with _ -> ok := false
  in
  run_threads gs traced_exec;
  let again exec = run_threads (start eng) (fun g c -> exec (Arm.Machine.exec_block shared g.E.arm) c) in
  (eng, gs, !ok, List.rev !pcs, again)

(* Cost of one empty raw-clock region, taken off per-call timings. *)
let timer_ns () =
  let n = 100_000 and acc = ref 0 in
  for _ = 1 to n do
    let t0 = now_ns () in
    acc := !acc + (now_ns () - t0)
  done;
  float_of_int !acc /. float_of_int n

let traced w ~seconds =
  let attempted = ref 0 and failed = ref 0 in
  let count ok =
    incr attempted;
    if not ok then incr failed
  in
  let acc = new_blocks () and job_pcs = Array.make (Array.length w.jobs) [] in
  (* 1. Ledger: the layered runner, traced and untraced. *)
  let traced_ns, untraced_ns, pairs =
    ledger_phase ~seconds:(seconds /. 2.) (fun ~traced k ->
        let t0 = now_ns () in
        let runs = Array.map (fun j -> layered ~acc:(if traced then acc else new_blocks ()) j) w.jobs in
        let dt = now_ns () - t0 in
        Array.iteri
          (fun i (eng, gs, ok, pcs, _) ->
            if traced && k = 0 then job_pcs.(i) <- pcs;
            count (ok && honest eng && w.jobs.(i).check eng gs))
          runs;
        dt)
  in
  let stats, _ = Span.snapshot () in
  let exec_calls = (Span.find stats "arm.machine.exec_block").Span.calls in
  (* 2. Engine probes.  Engine 1 runs each job through run_concurrent
     from cold, the end-to-end path: the collector counts, model cycles
     and dispatch hit ratios come from it.  Engine 2 runs the job through
     the runner's own round-robin loop over step_block, then twice more
     over its warm code, through that loop and through run_concurrent,
     each timed whole.  The warm loop gives the step time; its difference
     from run_concurrent is scheduling; and the step time less the warm
     exec_block time of the layered runner is dispatch. *)
  let tick = timer_ns () in
  let words = ref 0. and majors = ref 0 and cycles = ref 0 and all_honest = ref true in
  let lookups = ref 0 and hits = ref 0 and chain = ref 0 and jc = ref 0 in
  let warm_loop_ns = ref 0 and warm_rc_ns = ref 0 and warm_steps = ref 0 in
  Array.iter
    (fun j ->
      let start eng = List.map (fun (tid, regs) -> E.spawn eng ~tid ~entry:j.image.Image.Gelf.entry ~regs ()) j.threads in
      let eng = E.create cfg j.image in
      let gs = start eng in
      let m0 = (Gc.quick_stat ()).Gc.major_collections and w0 = Gc.minor_words () in
      let out = E.run_concurrent eng gs in
      words := !words +. (Gc.minor_words () -. w0);
      majors := !majors + ((Gc.quick_stat ()).Gc.major_collections - m0);
      count (job_ok j (eng, gs, match out with E.Completed _ -> true | E.Exhausted _ -> false));
      let st = E.stats eng in
      all_honest := !all_honest && honest eng;
      cycles := !cycles + List.fold_left (fun a g -> a + E.cycles g) 0 gs;
      lookups := !lookups + st.E.lookups;
      hits := !hits + st.E.cache_hits;
      chain := !chain + st.E.chain_hits;
      jc := !jc + st.E.jmp_cache_hits;
      let eng = E.create cfg j.image in
      let st = E.stats eng in
      let loop gs =
        let threads = Array.of_list gs in
        let live = ref (Array.length threads) in
        while !live > 0 do
          Array.iter
            (fun (g : E.guest_thread) ->
              if not g.finished then begin
                E.step_block eng g;
                if g.finished then decr live
              end)
            threads
        done
      in
      let gs = start eng in
      loop gs;
      count (job_ok j (eng, gs, true));
      let executed = st.E.blocks_executed in
      let gs = start eng in
      let t0 = now_ns () in
      loop gs;
      warm_loop_ns := !warm_loop_ns + (now_ns () - t0);
      warm_steps := !warm_steps + (st.E.blocks_executed - executed);
      let gs' = start eng in
      let t0 = now_ns () in
      ignore (E.run_concurrent eng gs');
      warm_rc_ns := !warm_rc_ns + (now_ns () - t0);
      count (honest eng && List.for_all (fun g -> E.trap g = None) (gs @ gs')))
    w.jobs;
  let exec_ns = ref 0 and execs = ref 0 in
  Array.iter
    (fun j ->
      let eng, gs, ok, _, again = layered ~acc:(new_blocks ()) j in
      count (ok && honest eng && j.check eng gs);
      again (fun exec c ->
          let t0 = now_ns () in
          let r = exec c in
          exec_ns := !exec_ns + (now_ns () - t0);
          incr execs;
          r))
    w.jobs;
  (* 3. Translation probes: Engine.fetch on fresh pcs, and the pipeline
     run whole against its passes one by one. *)
  let fetch_ns = ref 0 and fetched = ref 0 in
  Array.iteri
    (fun i j ->
      let eng = E.create cfg j.image in
      List.iter
        (fun pc ->
          let t0 = now_ns () in
          ignore (E.fetch eng pc);
          fetch_ns := !fetch_ns + (now_ns () - t0);
          incr fetched)
        job_pcs.(i))
    w.jobs;
  let passes = cfg.Core.Config.passes in
  let pass_ns = Array.make (List.length passes) 0 and pass_ops = Array.make (List.length passes) 0 in
  let run_ns = ref 0 and probed = ref 0 in
  for _ = 1 to 3 do
    List.iter
      (fun (raw : Tcg.Block.t) ->
        let t0 = now_ns () in
        ignore (Tcg.Pipeline.run ~ledger:(Tcg.Fence_ledger.create ()) passes raw);
        run_ns := !run_ns + (now_ns () - t0);
        let ledger = Tcg.Fence_ledger.create () in
        ignore
          (List.fold_left
             (fun (i, ops) p ->
               let t0 = now_ns () in
               let ops = Tcg.Pipeline.run_pass ~ledger p ops in
               pass_ns.(i) <- pass_ns.(i) + (now_ns () - t0);
               pass_ops.(i) <- pass_ops.(i) + List.length ops;
               (i + 1, ops))
             (0, raw.Tcg.Block.ops) passes);
        incr probed)
      acc.raws
  done;
  (* 4. Guest memory over the workload's own address trace. *)
  let reps = 3 in
  let mem_ns = Array.make 3 [] in
  let mem_n = Array.make 3 0 in
  let traces = w.traces () in
  for _ = 1 to reps do
    let sum = Array.make 3 0 in
    List.iter
      (fun tr ->
        let m = Memsys.Mem.create () in
        let t0 = now_ns () in
        Array.iter (fun a -> Memsys.Mem.store m a a) tr.stores;
        let t1 = now_ns () in
        Array.iter (fun a -> ignore (Memsys.Mem.load m a)) tr.loads;
        let t2 = now_ns () in
        Array.iter (fun (a, tid) -> ignore (Memsys.Mem.acquire_line m a ~tid)) tr.atomics;
        let t3 = now_ns () in
        sum.(0) <- sum.(0) + (t2 - t1);
        sum.(1) <- sum.(1) + (t1 - t0);
        sum.(2) <- sum.(2) + (t3 - t2))
      traces;
    Array.iteri (fun i s -> mem_ns.(i) <- float_of_int s :: mem_ns.(i)) sum
  done;
  List.iter
    (fun tr ->
      mem_n.(0) <- mem_n.(0) + Array.length tr.loads;
      mem_n.(1) <- mem_n.(1) + Array.length tr.stores;
      mem_n.(2) <- mem_n.(2) + Array.length tr.atomics)
    traces;
  let mem i = per (median mem_ns.(i)) mem_n.(i) in
  let fl = float_of_int in
  let exec_ns = per (fl !exec_ns) !execs -. tick in
  let step_ns = per (fl !warm_loop_ns) !warm_steps in
  let pipeline_us = per (fl !run_ns /. 1e3) !probed in
  let pass_us = Array.map (fun ns -> per (fl ns /. 1e3) !probed) pass_ns in
  let bookkeeping_us = pipeline_us -. Array.fold_left ( +. ) 0. pass_us in
  let pass_metrics =
    List.concat
      (List.mapi
         (fun i p ->
           let n = Tcg.Pipeline.pass_name p in
           [
             (Printf.sprintf "tcg.pipeline.%s.us_per_block" n, pass_us.(i));
             (Printf.sprintf "tcg.pipeline.%s.ops_out" n, per (fl pass_ops.(i)) !probed);
           ])
         passes)
  in
  let split =
    Printf.sprintf "    tcg.pipeline.run split by the pass probe over %d block(s): %s, bookkeeping %.1f%%" (!probed / 3)
      (String.concat ", "
         (List.mapi
            (fun i p -> Printf.sprintf "%s %.1f%%" (Tcg.Pipeline.pass_name p) (100. *. pass_us.(i) /. pipeline_us))
            passes))
      (100. *. bookkeeping_us /. pipeline_us)
  in
  let dispatch_note =
    Printf.sprintf
      "    (unattributed) holds the runner's own dispatch loop; the engine's dispatch is probed on warm code: \
       step_block %.0f ns - exec_block %.0f ns (raw clock, less %.0f ns per reading) = %.0f ns per block"
      step_ns exec_ns tick (step_ns -. exec_ns)
  in
  let lines, ledger_metrics =
    ledger_lines ~workload:w.name ~traced_ns ~untraced_ns ~units:pairs ~notes:[ split; dispatch_note ]
  in
  {
    attempted = !attempted;
    failed = !failed;
    lines;
    metrics =
      [
        ("core.engine.create_us", Span.mean_us stats "core.engine.create");
        ("core.engine.fetch_us_per_block", per (fl !fetch_ns /. 1e3) !fetched);
        ("core.engine.step_ns_per_block", step_ns);
        ("core.engine.dispatch_ns_per_block", step_ns -. exec_ns);
        ("core.engine.cache_hit_ratio", ratio !hits !lookups);
        ("core.engine.chain_hit_ratio", ratio !chain !lookups);
        ("core.engine.jcache_hit_ratio", ratio !jc !lookups);
        ("core.engine.schedule_ns_per_block", per (fl (!warm_rc_ns - !warm_loop_ns)) !warm_steps);
        ("core.frontend.us_per_block", Span.mean_us stats "core.frontend.translate");
        ("core.frontend.tcg_ops_per_insn", ratio acc.ops_in acc.guest_insns);
        ("tcg.pipeline.us_per_block", pipeline_us);
        ("tcg.pipeline.bookkeeping_us_per_block", bookkeeping_us);
      ]
      @ pass_metrics
      @ [
          ("tcg.pipeline.fences_in", ratio acc.fences_in acc.n);
          ("tcg.pipeline.fences_out", ratio acc.fences_out acc.n);
          ("core.backend.us_per_block", Span.mean_us stats "core.backend.compile");
          ("core.backend.arm_insns_per_block", ratio acc.arm_insns acc.n);
          ("core.backend.dmbs_per_block", ratio acc.dmbs acc.n);
          ("arm.machine.exec_ns_per_block", exec_ns);
          ("arm.machine.minor_words_per_block", per acc.exec_words exec_calls);
          (* Refused (null, and the run fails) if Tcg.Interp ran a block. *)
          ("arm.cost.model_cycles_per_insn", if !all_honest then ratio !cycles w.items else nan);
          ("memsys.load_ns", mem 0);
          ("memsys.store_ns", mem 1);
          ("memsys.acquire_line_ns", mem 2);
          ("ocaml.gc.minor_words_per_insn", per !words w.items);
          ("ocaml.gc.major_collections", fl !majors);
        ]
      @ ledger_metrics;
  }
