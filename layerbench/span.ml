(* Layer spans, recorded by the benchmark around its own calls into the
   program's public functions (the program itself is not instrumented
   for this).  Each layer accumulates a call count, its total time and
   its self time: the span's duration minus the part covered by spans
   opened inside it on the same domain.  Spans opened on pool worker
   domains accumulate into that domain's table and are merged on
   [snapshot].

   When recording is off, [run] is one atomic load and a branch, so the
   same runner code gives both the traced and the untraced wall time;
   their difference is the tracing overhead the ledger reports. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let max_layers = 48
let max_depth = 32
let names = Array.make max_layers ""
let n_layers = ref 0
let on = Atomic.make false

(* Layers are registered from the main domain before any parallel
   section records into them. *)
let layer name =
  let rec find i =
    if i = !n_layers then begin
      if i = max_layers then invalid_arg "Span.layer: too many layers";
      names.(i) <- name;
      incr n_layers;
      i
    end
    else if names.(i) = name then i
    else find (i + 1)
  in
  find 0

type dom = {
  count : int array;
  total : int array;
  self : int array;
  child : int array;  (* time covered by children, per open depth *)
  mutable depth : int;
}

let doms = ref []
let doms_m = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let d =
        {
          count = Array.make max_layers 0;
          total = Array.make max_layers 0;
          self = Array.make max_layers 0;
          child = Array.make max_depth 0;
          depth = 0;
        }
      in
      Mutex.protect doms_m (fun () -> doms := d :: !doms);
      d)

let run l f =
  if not (Atomic.get on) then f ()
  else begin
    let d = Domain.DLS.get key in
    let k = d.depth in
    d.child.(k) <- 0;
    d.depth <- k + 1;
    let t0 = now_ns () in
    let finish () =
      let dur = now_ns () - t0 in
      d.depth <- k;
      d.count.(l) <- d.count.(l) + 1;
      d.total.(l) <- d.total.(l) + dur;
      d.self.(l) <- d.self.(l) + dur - d.child.(k);
      if k > 0 then d.child.(k - 1) <- d.child.(k - 1) + dur
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

let set_recording b = Atomic.set on b

let reset () =
  Mutex.protect doms_m (fun () ->
      List.iter
        (fun d ->
          Array.fill d.count 0 max_layers 0;
          Array.fill d.total 0 max_layers 0;
          Array.fill d.self 0 max_layers 0)
        !doms)

type stat = { name : string; calls : int; total_ns : int; self_ns : int }

(* Per-layer totals over every domain, and the number of domains that
   recorded at least one span. *)
let snapshot () =
  Mutex.protect doms_m (fun () ->
      let sum f = Array.init !n_layers (fun l -> List.fold_left (fun a d -> a + (f d).(l)) 0 !doms) in
      let c = sum (fun d -> d.count)
      and t = sum (fun d -> d.total)
      and s = sum (fun d -> d.self) in
      let active =
        List.length (List.filter (fun d -> Array.exists (fun n -> n > 0) d.count) !doms)
      in
      ( List.init !n_layers (fun l ->
            { name = names.(l); calls = c.(l); total_ns = t.(l); self_ns = s.(l) }),
        max 1 active ))

let find stats name = List.find (fun s -> s.name = name) stats

(* Mean span duration in us; 0 when the layer was never entered. *)
let mean_us stats name =
  let s = find stats name in
  if s.calls = 0 then 0. else float_of_int s.total_ns /. float_of_int s.calls /. 1e3
