type outcome =
  | Emitted
  | Kept
  | Merged of { into : Op.origin; result : Axiom.Event.fence }
  | Dropped
  | Strengthened of { from : Axiom.Event.fence }

type entry = {
  pass : string;
  kind : Axiom.Event.fence;
  origin : Op.origin;
  outcome : outcome;
}

type t = { mutable entries : entry list }

let create () = { entries = [] }
let entries t = List.rev t.entries

let outcome_name = function
  | Emitted -> "emitted"
  | Kept -> "kept"
  | Merged _ -> "merged"
  | Dropped -> "dropped"
  | Strengthened _ -> "strengthened"

let outcome_index = function
  | Emitted -> 0
  | Kept -> 1
  | Merged _ -> 2
  | Dropped -> 3
  | Strengthened _ -> 4

(* fence.<kind>.<outcome> counter ids: one small (kind, id) list per
   outcome, each id resolved (registered) the first time that pair is
   recorded, so registration happens exactly when it would with a
   per-record name lookup, without its string building and registry
   lock.  Lists are swapped whole; a racing domain can only lose an
   entry, which the next record re-resolves to the same id (Metrics
   registration is idempotent by name). *)
let counter_ids = Array.init 5 (fun _ -> Atomic.make [])

let counter_for kind outcome =
  let slot = counter_ids.(outcome_index outcome) in
  match List.assq_opt kind (Atomic.get slot) with
  | Some id -> id
  | None ->
      let id =
        Obs.Metrics.counter
          ("fence." ^ Axiom.Event.fence_name kind ^ "." ^ outcome_name outcome)
      in
      Atomic.set slot ((kind, id) :: Atomic.get slot);
      id

let record t ~pass ~kind ~origin outcome =
  t.entries <- { pass; kind; origin; outcome } :: t.entries;
  Obs.Metrics.incr (counter_for kind outcome)

let count t outcome_name' =
  List.length
    (List.filter (fun e -> outcome_name e.outcome = outcome_name') t.entries)

let pp_entry ppf e =
  let pp_origin ppf (o : Op.origin) =
    if Int64.equal o.opc (-1L) then Fmt.pf ppf "rule %s" (Op.rule_name o.rule)
    else Fmt.pf ppf "guest 0x%Lx (%s)" o.opc (Op.rule_name o.rule)
  in
  match e.outcome with
  | Emitted ->
      Fmt.pf ppf "%-5s emitted by %s from %a"
        (Axiom.Event.fence_name e.kind)
        e.pass pp_origin e.origin
  | Kept ->
      Fmt.pf ppf "%-5s kept, from %a" (Axiom.Event.fence_name e.kind) pp_origin
        e.origin
  | Merged { into; result } ->
      Fmt.pf ppf "%-5s from %a merged by %s into %s at %a"
        (Axiom.Event.fence_name e.kind)
        pp_origin e.origin e.pass
        (Axiom.Event.fence_name result)
        pp_origin into
  | Dropped ->
      Fmt.pf ppf "%-5s from %a dropped by %s"
        (Axiom.Event.fence_name e.kind)
        pp_origin e.origin e.pass
  | Strengthened { from } ->
      Fmt.pf ppf "%-5s strengthened from %s by %s, from %a"
        (Axiom.Event.fence_name e.kind)
        (Axiom.Event.fence_name from)
        e.pass pp_origin e.origin

let pp ppf t =
  List.iter (fun e -> Fmt.pf ppf "  %a@." pp_entry e) (entries t)
