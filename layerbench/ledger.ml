(* The layer ledger benchmark.

     ledger.exe --workload kernels|stream|cold|sweep --seed N --seconds S --trace 0|1

   With --trace 0 it measures the end-to-end metrics on the program's
   normal path; with --trace 1 it runs the layered runner with spans
   around each layer's public calls, prints the ledger and reports the
   per-layer metrics.  Either way it checks every output against an
   independent reference and prints, as its last line, one JSON object
   with the keys correct, attempted, failed and metrics.  run.py builds
   and runs it. *)

open Common

let end_to_end_units =
  [ ("items_per_s_best", "1/s"); ("first_result_us_best", "us"); ("setup_s", "s"); ("peak_heap_mb", "MB") ]

let per_layer_units =
  [
    ("core.engine.create_us", "us");
    ("core.engine.fetch_us_per_block", "us");
    ("core.engine.step_ns_per_block", "ns");
    ("core.engine.dispatch_ns_per_block", "ns");
    ("core.engine.cache_hit_ratio", "ratio");
    ("core.engine.chain_hit_ratio", "ratio");
    ("core.engine.jcache_hit_ratio", "ratio");
    ("core.engine.schedule_ns_per_block", "ns");
    ("core.frontend.us_per_block", "us");
    ("core.frontend.tcg_ops_per_insn", "ops/insn");
    ("tcg.pipeline.us_per_block", "us");
    ("tcg.pipeline.bookkeeping_us_per_block", "us");
  ]
  @ List.concat_map
      (fun p ->
        let n = Tcg.Pipeline.pass_name p in
        [ (Printf.sprintf "tcg.pipeline.%s.us_per_block" n, "us"); (Printf.sprintf "tcg.pipeline.%s.ops_out" n, "ops/block") ])
      Core.Config.risotto.passes
  @ [
      ("tcg.pipeline.fences_in", "fences/block");
      ("tcg.pipeline.fences_out", "fences/block");
      ("core.backend.us_per_block", "us");
      ("core.backend.arm_insns_per_block", "insns/block");
      ("core.backend.dmbs_per_block", "dmbs/block");
      ("arm.machine.exec_ns_per_block", "ns");
      ("arm.machine.minor_words_per_block", "words/block");
      ("arm.cost.model_cycles_per_insn", "cycles/insn");
      ("memsys.load_ns", "ns");
      ("memsys.store_ns", "ns");
      ("memsys.acquire_line_ns", "ns");
      ("ocaml.gc.minor_words_per_insn", "words/insn");
      ("ocaml.gc.major_collections", "count");
      ("litmus.generate.us_per_program", "us");
      ("litmus.generate.dedup_ratio", "ratio");
      ("mapping.schemes.transform_us_per_cell", "us");
      ("mapping.check.us_per_cell", "us");
      ("litmus.enumerate.us_per_enumeration", "us");
      ("litmus.enumerate.cache_hit_ratio", "ratio");
      ("axiom.consistent_us_per_candidate", "us");
      ("parallel.pool.busy_ratio", "ratio");
      ("ledger.unattributed_share", "ratio");
      ("ledger.tracing_overhead_ratio", "ratio");
    ]

(* Workload sizes: one timed unit of each lasts a fraction of a second
   to a couple of seconds on a 2-core x86-64 box, so a 20 s run times
   each input many times. *)
let kernels_scale = 4.
let stream_passes = 1
let cold_images = 64
let cold_blocks = 16
let sweep_programs = 1500

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let result ~trace (o : outcome) =
  let units = if trace then per_layer_units else end_to_end_units in
  let value name = match List.assoc_opt name o.metrics with Some v -> v | None -> 0. in
  let finite = List.for_all (fun (n, _) -> Float.is_finite (value n)) units in
  let metrics =
    List.map
      (fun (n, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number (value n)) u)
      units
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (o.failed = 0 && o.attempted > 0 && finite)
    o.attempted o.failed (String.concat ", " metrics)

let workloads = [ "kernels"; "stream"; "cold"; "sweep" ]

let dbt_workload ~seed = function
  | "kernels" -> fun () -> Dbt.kernels ~seed ~scale:kernels_scale
  | "stream" -> fun () -> Dbt.stream ~seed ~passes:stream_passes
  | _ -> fun () -> Dbt.cold ~seed ~images:cold_images ~blocks:cold_blocks

let run ~workload ~seed ~seconds ~trace =
  match workload with
  | "sweep" ->
      let setup = Checker.setup ~seed ~n:sweep_programs in
      let setup_s, s = timed setup in
      (* A repeated set-up's pool is shut down as soon as it is timed, so
         no idle domains outlive it. *)
      let again () =
        let t, s' = timed setup in
        Parallel.Pool.shutdown s'.Checker.pool;
        t
      in
      Fun.protect
        ~finally:(fun () -> Parallel.Pool.shutdown s.Checker.pool)
        (fun () ->
          if trace then Checker.traced s ~seed ~seconds
          else Checker.end_to_end s ~seed ~setup:(setup_s, again) ~seconds)
  | w ->
      let build = dbt_workload ~seed w in
      let setup () =
        let wl = build () in
        ignore (Array.map Dbt.run_job wl.Dbt.jobs);
        wl
      in
      let setup_s, wl = timed setup in
      if trace then Dbt.traced wl ~seconds
      else Dbt.end_to_end wl ~setup:(setup_s, fun () -> fst (timed setup)) ~seconds

let () =
  let workload = ref "kernels" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Symbol (workloads, fun w -> workload := w), " workload");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: traced ledger and per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ledger.exe --workload W --seed N --seconds S --trace 0|1";
  let trace = !trace = 1 in
  let o = run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace in
  List.iter print_endline o.lines;
  print_endline (result ~trace o)
