(* The sweep workload: the `litmus_run --generate` path.  A seeded
   generated corpus is deduped into shape classes and every (sound
   scheme, class) cell is checked by the batch planner on a pool of
   [Domain.recommended_domain_count ()] domains, caches cleared first.
   The DBT is idle. *)

module En = Litmus.Enumerate
module C = Mapping.Check
module S = Report.Sweep
open Common

let cells_of entries =
  List.concat_map
    (fun (e : S.entry) ->
      List.map
        (fun (pname, src) ->
          {
            C.cell_scheme = e.scheme;
            cell_program = pname;
            cell_f = e.f;
            cell_src_model = e.src_model;
            cell_tgt_model = e.tgt_model;
            cell_src = src;
          })
        e.corpus)
    entries

(* The 16 cells of the 177-cell default sweep that must fail: MPQ, SBQ,
   SB+rmws and SBAL under the Qemu helpers and the Figure-3 / casal
   mappings on the original Arm model, FMR under the unsound RAW
   rewrite (EXPERIMENTS.md), and the no-fences oracle, which is
   incorrect by design.  Every other cell must hold. *)
let known_failures =
  [
    "armcats-direct/arm-orig: SBAL";
    "fig2/x86->tcg: MPQ";
    "no-fences/arm-fix: 2+2W";
    "no-fences/arm-fix: IRIW";
    "no-fences/arm-fix: LB";
    "no-fences/arm-fix: MP";
    "no-fences/arm-fix: MPQ";
    "no-fences/arm-fix: S";
    "no-fences/arm-fix: WRC";
    "qemu-gcc10/arm-fix: MPQ";
    "qemu-gcc9/arm-fix: MPQ";
    "qemu-gcc9/arm-fix: SB+rmws";
    "qemu-gcc9/arm-fix: SBAL";
    "qemu-gcc9/arm-fix: SBQ";
    "risotto-casal/arm-orig: SBAL";
    "transform-raw: FMR";
  ]

let default_sweep () =
  let cells = S.run (S.default_entries ()) in
  let failing =
    List.sort compare (List.map (fun (c : S.cell) -> c.report.C.name) (S.failing cells))
  in
  (List.length cells, failing)

type setup = {
  pool : Parallel.Pool.t;
  n : int;
  catalogue : C.cell array;  (** the default sweep's cells *)
}

let reports_ok reports = List.for_all (fun (r : C.report) -> r.ok) reports

(* Units cycle over [corpora] corpora drawn from the run's seed, so one
   run's rate averages over several corpora rather than hanging on one,
   and each corpus comes round often enough in a run for its fastest
   unit to count; its counts must repeat exactly whenever it does. *)
let corpora = 2
let corpus_seed seed k = (seed * corpora) + (k mod corpora)

(* One timed unit: generation, dedup and checking of [n] programs.
   Verdicts are counted before dedup: programs x schemes. *)
let unit_run s ~seed =
  En.clear_caches ();
  let t0 = now_ns () in
  let corpus, entries = S.generated_entries ~seed s.n in
  let reports = C.check_cells ~pool:s.pool (cells_of entries) in
  let dt = now_ns () - t0 in
  let _, enumerations = En.cache_stats () in
  let classes = List.length corpus.Litmus.Generate.classes in
  let ok = reports_ok reports && List.length reports = classes * List.length entries in
  (dt, s.n * List.length entries, ok, (enumerations, classes, List.length reports))

(* Pool start-up, the run's corpora generated once, and a warm-up of the
   pool on the default sweep's cells. *)
let setup ~seed ~n () =
  let pool = Parallel.Pool.create ~jobs:(Parallel.Pool.recommended ()) () in
  for k = 0 to corpora - 1 do
    ignore (S.generated_entries ~seed:(corpus_seed seed k) n)
  done;
  let catalogue = cells_of (S.default_entries ()) in
  ignore (C.check_cells ~pool catalogue);
  En.clear_caches ();
  { pool; n; catalogue = Array.of_list catalogue }

(* Time from a cold checker to one verdict of the default sweep (the
   same 177 cells whatever the seed, so the latency compares like with
   like), checked on the caller alone as a one-file run would be.  The
   verdict must be the known one. *)
let first_sample s k =
  let cell = s.catalogue.(k mod Array.length s.catalogue) in
  En.clear_caches ();
  let t0 = now_ns () in
  let r = List.hd (C.check_cells [ cell ]) in
  (now_ns () - t0, r.C.ok = not (List.mem r.C.name known_failures))

let counter () =
  let attempted = ref 0 and failed = ref 0 in
  let count ?(n = 1) ok =
    attempted := !attempted + n;
    if not ok then failed := !failed + n
  in
  (attempted, failed, count)

(* Theorem 1 on the default sweep: exactly the known cells fail. *)
let check_default (count : ?n:int -> bool -> unit) =
  let total, failing = default_sweep () in
  count ~n:total (total = 177 && failing = known_failures);
  Printf.sprintf "default sweep: %d cells, %d failing (%s)" total (List.length failing)
    (String.concat ", " failing)

let end_to_end s ~seed ~setup ~seconds =
  let attempted, failed, count = counter () in
  let digests = Hashtbl.create corpora and items = ref 0 in
  let best = best_create corpora in
  let units, first, first_best, setup_s =
    measure ~seconds ~inputs:(Array.length s.catalogue) ~setup
      ~unit_fn:(fun k ->
        let dt, n, ok, d = unit_run s ~seed:(corpus_seed seed k) in
        items := n;
        best_note best (k mod corpora) ~items:n dt;
        count ~n ok;
        (match Hashtbl.find_opt digests (k mod corpora) with
        | None -> Hashtbl.replace digests (k mod corpora) d
        | Some d0 -> if d <> d0 then count false);
        dt)
      ~sample_fn:(fun k ->
        let dt, ok = first_sample s k in
        count ok;
        dt)
  in
  let default_line = check_default count in
  let enumerations, classes, cells = Hashtbl.find digests 0 in
  let rates = List.map (fun dt -> float_of_int !items /. secs dt) units in
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
          "sweep: %d unit(s) of %d programs (%d corpora; the first -> %d classes, %d cells, %d enumerations); \
           verdicts/s with each corpus at its best %.1f; per unit median %.1f (min %.1f, max %.1f)"
          (List.length units) s.n corpora classes cells enumerations (best_rate best) (median rates)
          (List.fold_left min infinity rates) (List.fold_left max 0. rates);
        Printf.sprintf
          "sweep: first verdict us, mean of each cell's best %.1f; median %.1f, p%g %.1f over %d default-sweep \
           cells"
          (best_mean_us first_best) (median first) first_result_tail
          (percentile first_result_tail first) (List.length first);
        default_line;
      ];
  }

(* ---------------------------------------------------------------- *)
(* Traced run: check_cells' plan, taken apart at its public calls *)

let l_generate = Span.layer "litmus.generate"
let l_transform = Span.layer "mapping.schemes.transform"
let l_plan = Span.layer "mapping.check.plan"
let l_pool = Span.layer "parallel.pool.map"
let l_enumerate = Span.layer "litmus.enumerate.behaviours_many"
let l_assemble = Span.layer "mapping.check.assemble"

(* The same work as [Mapping.Check.check_cells]: transform every cell,
   group the enumerations by distinct program, run [behaviours_many]
   for each on the pool, then assemble the reports in cell order.  The
   probe below checks that the reports equal check_cells'. *)
let layered s ~seed =
  En.clear_caches ();
  let t0 = now_ns () in
  let corpus, entries = Span.run l_generate (fun () -> S.generated_entries ~seed s.n) in
  let cells = cells_of entries in
  let prepared = Span.run l_transform (fun () -> List.map (fun c -> (c, c.C.cell_f c.C.cell_src)) cells) in
  let jobs_list =
    Span.run l_plan (fun () ->
        let jobs = Hashtbl.create 64 and order = ref [] in
        let need (m : Axiom.Model.t) p =
          match Hashtbl.find_opt jobs p with
          | Some ms -> if not (List.exists (fun (m' : Axiom.Model.t) -> m'.name = m.name) !ms) then ms := m :: !ms
          | None ->
              Hashtbl.add jobs p (ref [ m ]);
              order := p :: !order
        in
        List.iter
          (fun (c, tgt) ->
            need c.C.cell_src_model c.C.cell_src;
            need c.C.cell_tgt_model tgt)
          prepared;
        List.rev_map (fun p -> (p, List.rev !(Hashtbl.find jobs p))) !order)
  in
  let p0 = now_ns () in
  let results =
    Span.run l_pool (fun () ->
        Parallel.Pool.map_list ~pool:s.pool
          (fun (p, models) -> Span.run l_enumerate (fun () -> En.behaviours_many models p))
          jobs_list)
  in
  let pool_ns = now_ns () - p0 in
  let reports =
    Span.run l_assemble (fun () ->
        let tbl = Hashtbl.create 64 in
        List.iter2
          (fun (p, _) res -> List.iter (fun (mname, bs) -> Hashtbl.replace tbl (mname, p) bs) res)
          jobs_list results;
        List.map
          (fun (c, tgt) ->
            let bs = Hashtbl.find tbl (c.C.cell_src_model.Axiom.Model.name, c.C.cell_src) in
            let bt = Hashtbl.find tbl (c.C.cell_tgt_model.Axiom.Model.name, tgt) in
            let extra = List.filter (fun b -> not (List.exists (fun b' -> En.behaviour_compare b b' = 0) bs)) bt in
            {
              C.name = Printf.sprintf "%s: %s" c.C.cell_scheme c.C.cell_program;
              ok = extra = [];
              src_behaviours = List.length bs;
              tgt_behaviours = List.length bt;
              extra;
            })
          prepared)
  in
  let dt = now_ns () - t0 in
  let busy_us = List.fold_left (fun a (c : Parallel.Pool.chunk_stat) -> a +. c.c_us) 0. (Parallel.Pool.batch_stats s.pool) in
  (dt, corpus, entries, cells, reports, pool_ns, busy_us)

(* Candidate x model evaluations the consistency probe times. *)
let axiom_sample = 20_000

let traced s ~seed ~seconds =
  let attempted, failed, count = counter () in
  let busy = ref 0. and pool_ns = ref 0 and hits = ref 0 and misses = ref 0 and last = ref None in
  let traced_ns, untraced_ns, pairs =
    ledger_phase ~seconds:(seconds /. 2.) (fun ~traced _ ->
        let dt, corpus, entries, cells, reports, p_ns, b_us = layered s ~seed in
        count ~n:(List.length reports) (reports_ok reports);
        if traced then begin
          busy := !busy +. b_us;
          pool_ns := !pool_ns + p_ns;
          let h, m = En.cache_stats () in
          hits := !hits + h;
          misses := !misses + m;
          last := Some (corpus, entries, cells, reports)
        end;
        dt)
  in
  let stats, _ = Span.snapshot () in
  let corpus, entries, cells, reports = Option.get !last in
  (* The layered runner must reproduce check_cells exactly. *)
  En.clear_caches ();
  let same =
    List.map (fun (r : C.report) -> (r.name, r.ok, r.src_behaviours, r.tgt_behaviours)) (C.check_cells ~pool:s.pool cells)
    = List.map (fun (r : C.report) -> (r.name, r.ok, r.src_behaviours, r.tgt_behaviours)) reports
  in
  count same;
  let default_line = check_default count in
  (* Each model's consistency predicate over the candidate executions of
     a sample of class representatives and their transformed targets. *)
  let models =
    List.sort_uniq
      (fun (a : Axiom.Model.t) b -> compare a.name b.name)
      (List.concat_map (fun (e : S.entry) -> [ e.src_model; e.tgt_model ]) entries)
  in
  let sample =
    List.concat_map
      (fun (c : C.cell) -> [ c.cell_src; c.cell_f c.cell_src ])
      (List.filteri (fun i _ -> i < 40) cells)
  in
  let cand_ns = ref 0 and cand_n = ref 0 in
  List.iter
    (fun p ->
      if !cand_n < axiom_sample then begin
        let cands = En.candidates p in
        List.iter
          (fun (m : Axiom.Model.t) ->
            let t0 = now_ns () in
            List.iter (fun (e, _) -> ignore (m.consistent e)) cands;
            cand_ns := !cand_ns + (now_ns () - t0);
            cand_n := !cand_n + List.length cands)
          models
      end)
    sample;
  let span_total name = float_of_int (Span.find stats name).Span.total_ns in
  let ncells = pairs * List.length cells in
  let domains = Parallel.Pool.workers_spawned s.pool + 1 in
  let lines, ledger_metrics =
    ledger_lines ~workload:"sweep" ~traced_ns ~untraced_ns ~units:pairs
      ~notes:
        [
          Printf.sprintf
            "    litmus.enumerate runs on %d pool domain(s); its axiom checks are probed: %.3f us per candidate per \
             model"
            domains
            (per (float_of_int !cand_ns /. 1e3) !cand_n);
        ]
  in
  {
    attempted = !attempted;
    failed = !failed;
    lines = lines @ [ default_line ];
    metrics =
      [
        ("litmus.generate.us_per_program", span_total "litmus.generate" /. 1e3 /. float_of_int (pairs * s.n));
        ("litmus.generate.dedup_ratio", Litmus.Generate.dedup_ratio corpus);
        ("mapping.schemes.transform_us_per_cell", span_total "mapping.schemes.transform" /. 1e3 /. float_of_int ncells);
        ( "mapping.check.us_per_cell",
          (span_total "mapping.check.plan" +. span_total "mapping.check.assemble") /. 1e3 /. float_of_int ncells );
        ("litmus.enumerate.us_per_enumeration", Span.mean_us stats "litmus.enumerate.behaviours_many");
        ("litmus.enumerate.cache_hit_ratio", ratio !hits (!hits + !misses));
        ("axiom.consistent_us_per_candidate", per (float_of_int !cand_ns /. 1e3) !cand_n);
        ("parallel.pool.busy_ratio", !busy /. (float_of_int domains *. float_of_int !pool_ns /. 1e3));
      ]
      @ ledger_metrics;
  }
