(* Pieces shared by the DBT and checker workloads: statistics, the
   repeated set-up, the measurement loop and the ledger. *)

let now_ns = Span.now_ns
let secs ns = float_of_int ns /. 1e9

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  lines : string list;  (** human-readable report, printed before the result *)
}

let sorted xs = List.sort compare xs

(* Nearest-rank percentile, [p] in [0, 100]. *)
let percentile p xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1)))

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let per a b = if b = 0 then 0. else a /. float_of_int b

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (secs (now_ns () - t0), r)

(* Gated statistics.  Co-tenant load on a shared host slows a run in
   phases of a fraction of a second to minutes and never speeds it up,
   so a run's median moves with the share of slow phases it happened to
   meet.  Each input's fastest timing over the run tracks the program's
   own speed instead, and combining the fastest timings of many inputs
   leaves little to the luck of one of them.  Medians and the tail (the
   highest percentile with ten first-result samples beyond it) are
   printed beside them. *)
type best = { best_ns : int array; best_items : int array }

let best_create n = { best_ns = Array.make n max_int; best_items = Array.make n 0 }

let best_note b i ~items ns =
  if ns < b.best_ns.(i) then b.best_ns.(i) <- ns;
  b.best_items.(i) <- items

let best_seen b = List.filter (fun i -> b.best_ns.(i) < max_int) (List.init (Array.length b.best_ns) Fun.id)

(* Items per second with every input seen at its fastest. *)
let best_rate b =
  let seen = best_seen b in
  let sum f = List.fold_left (fun a i -> a + f i) 0 seen in
  float_of_int (sum (fun i -> b.best_items.(i))) /. secs (sum (fun i -> b.best_ns.(i)))

(* The mean over the inputs seen of each one's fastest time, in us. *)
let best_mean_us b =
  let seen = best_seen b in
  float_of_int (List.fold_left (fun a i -> a + b.best_ns.(i)) 0 seen) /. 1e3 /. float_of_int (List.length seen)

let first_result_samples = 4000
let first_result_tail = 100. *. (1. -. (10. /. float_of_int first_result_samples))

(* The measurement loop: timed units of the workload run until
   [seconds] have passed, and 100 batches of first-result samples are
   spread over the same stretch, so every input is sampled at many
   moments of the run.  Each unit and each batch starts from a collected
   heap, as a fresh process would, instead of paying the collector debt
   of what ran before it.  [unit_fn k] and [sample_fn k] return their own timed wall in ns, so
   the checks they run after stopping their clocks stay outside the
   measurement; sample [k] is of input [k mod inputs].

   Set-up is timed [setup_reps] times, each from scratch: once before
   the measurement ([setup] holds that time and a function that sets up
   again and returns its time), and the rest spread over the
   measurement, so that its median does not hang on the host's state in
   the run's first second.  Returns the unit times, the samples (in us),
   each input's fastest sample and the median set-up time. *)
let sample_batches = 100
let setup_reps = 9

let measure ~seconds ~inputs ~setup:(setup_s, setup_rep) ~unit_fn ~sample_fn =
  let setup_times = ref [ setup_s ] in
  let t_start = now_ns () in
  let span = int_of_float (seconds *. 1e9) in
  let units = ref [] and samples = ref [] and batches = ref 0 in
  let best = best_create inputs in
  (* Batch [b] takes samples [b], [b + batches], [b + 2 batches], ... so
     consecutive batches visit different inputs, and each input comes
     round in many batches rather than in one stretch of the run. *)
  let batch () =
    if !batches > 0 && !batches mod (sample_batches / (setup_reps - 1)) = 0 then
      setup_times := setup_rep () :: !setup_times;
    Gc.major ();
    for i = 0 to (first_result_samples / sample_batches) - 1 do
      let k = (i * sample_batches) + !batches in
      let ns = sample_fn k in
      best_note best (k mod inputs) ~items:1 ns;
      samples := (float_of_int ns /. 1e3) :: !samples
    done;
    incr batches
  in
  let rec go k =
    let elapsed = now_ns () - t_start in
    if !batches < sample_batches && elapsed >= !batches * span / sample_batches then begin
      batch ();
      go k
    end
    else if k < 3 || elapsed < span then begin
      Gc.major ();
      units := unit_fn k :: !units;
      go (k + 1)
    end
  in
  go 0;
  while !batches < sample_batches do
    batch ()
  done;
  (List.rev !units, !samples, best, median !setup_times)

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* The ledger: each layer's self time and its share of the traced wall
   (times the number of domains that recorded spans), the unattributed
   remainder, and the tracing overhead against the untraced run of the
   same runner. *)
let ledger_lines ~workload ~traced_ns ~untraced_ns ~units ~notes =
  let stats, domains = Span.snapshot () in
  let capacity = float_of_int (traced_ns * domains) in
  let attributed = List.fold_left (fun a s -> a + s.Span.self_ns) 0 stats in
  let line name self_ns calls =
    Printf.sprintf "  %-34s %10.1f ms %6.1f%% %10d calls" name (float_of_int self_ns /. 1e6)
      (100. *. float_of_int self_ns /. capacity)
      calls
  in
  let overhead = traced_ns - untraced_ns in
  ( [
      Printf.sprintf "ledger %s: %d traced unit(s), traced wall %.1f ms x %d domain(s)" workload
        units (float_of_int traced_ns /. 1e6) domains;
    ]
    @ List.filter_map
        (fun s -> if s.Span.calls = 0 then None else Some (line s.Span.name s.Span.self_ns s.Span.calls))
        stats
    @ [ line "(unattributed)" ((traced_ns * domains) - attributed) 0 ]
    @ notes
    @ [
        Printf.sprintf "  tracing overhead: traced %.1f ms - untraced %.1f ms = %.1f ms (%.1f%%)"
          (float_of_int traced_ns /. 1e6) (float_of_int untraced_ns /. 1e6)
          (float_of_int overhead /. 1e6)
          (100. *. ratio overhead untraced_ns);
      ],
    [
      ("ledger.unattributed_share", float_of_int ((traced_ns * domains) - attributed) /. capacity);
      ("ledger.tracing_overhead_ratio", ratio overhead untraced_ns);
    ] )

(* Alternate traced and untraced runs of the same runner unit until
   [seconds] have elapsed, swapping which side goes first in each pair
   so drift and collector debt fall on both sides alike.  Like
   [measure]'s, [unit_fn] returns its own wall in ns.  Returns
   (traced ns, untraced ns, pairs). *)
let ledger_phase ~seconds unit_fn =
  Span.reset ();
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let traced = ref 0 and untraced = ref 0 and pairs = ref 0 in
  let side k on =
    Span.set_recording on;
    let dt = unit_fn ~traced:on k in
    Span.set_recording false;
    if on then traced := !traced + dt else untraced := !untraced + dt
  in
  while !pairs < 2 || now_ns () < deadline do
    let k = !pairs in
    side k (k mod 2 = 0);
    side k (k mod 2 = 1);
    incr pairs
  done;
  (!traced, !untraced, !pairs)
