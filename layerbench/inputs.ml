(* Seeded inputs of the four workloads.  Everything here is a pure
   function of the seed, and every guest-instruction count is derived
   from the input (closed form), never from the engine. *)

module I = X86.Insn
module R = X86.Reg
open X86.Asm

let rng seed salt = Random.State.make [| seed; salt |]

(* ---- kernels: the 16 Parsec/Phoenix mixes, one guest thread each ---- *)

(* [scale] multiplies the default iteration count; each kernel also gets
   a seeded ±25% jitter so different seeds run different inputs. *)
let kernel_specs ~seed ~scale =
  let st = rng seed 1 in
  List.map
    (fun (b : Harness.Parsec.bench) ->
      let s = b.spec in
      let jitter = 0.75 +. Random.State.float st 0.5 in
      { s with Harness.Kernel.iters = max 1 (int_of_float (float s.iters *. scale *. jitter)) })
    Harness.Parsec.all

(* Kernel.to_x86: 7 register set-ups, [iters] loop bodies each closed by
   sub/cmp/jne, then hlt. *)
let kernel_insns (s : Harness.Kernel.spec) =
  let m = s.mix in
  7 + (s.iters * (m.loads + m.stores + m.arith + m.fp + (2 * m.locks) + 3)) + 1

let kernel_image s = Image.Gelf.build ~entry:"main" (Harness.Kernel.to_x86 s)

(* ---- stream: 4 threads, each walking its own 1 MiB region ---- *)

let stream_threads = 4
let stream_words = 131072
let stream_group = 8
let stream_groups = stream_words / stream_group
let region_base t = 0x1000_0000 + (t * 0x10_0000)
let counter_addr = 0x0F00_0000

(* Per pass, per group of 8 words: load/add cursor/add delta/store each
   word, then one LOCK XADD of 1 on the shared counter.  A word at
   address [a] ends as [passes * (group_base a + delta)]. *)
let stream_items =
  let word k =
    let m = { I.base = Some R.RSI; index = None; disp = Int64.of_int (8 * k) } in
    [
      Ins (I.Load (R.RAX, m));
      Ins (I.Alu (I.Add, R.RAX, I.R R.RSI));
      Ins (I.Alu (I.Add, R.RAX, I.R R.RDX));
      Ins (I.Store (m, I.R R.RAX));
    ]
  in
  [ Label "main"; Label "pass"; Ins (I.Mov_rr (R.RSI, R.RBX)); Label "inner" ]
  @ List.concat_map word (List.init stream_group Fun.id)
  @ [
      Ins (I.Mov_ri (R.R8, 1L));
      Ins (I.Lock_xadd ({ I.base = Some R.R14; index = None; disp = 0L }, R.R8));
      Ins (I.Alu (I.Add, R.RSI, I.I (Int64.of_int (8 * stream_group))));
      Ins (I.Cmp (R.RSI, I.R R.RCX));
      Jcc_lbl (I.Ne, "inner");
      Ins (I.Alu (I.Sub, R.R15, I.I 1L));
      Ins (I.Cmp (R.R15, I.I 0L));
      Jcc_lbl (I.Ne, "pass");
      Ins I.Hlt;
    ]

let stream_group_insns = (4 * stream_group) + 5

type stream = { s_image : Image.Gelf.t; passes : int; deltas : int array }

let stream_input ~seed ~passes =
  let st = rng seed 2 in
  {
    s_image = Image.Gelf.build ~entry:"main" stream_items;
    passes;
    deltas = Array.init stream_threads (fun _ -> 1 + Random.State.int st 1_000_000);
  }

let stream_regs s t =
  [
    (R.RBX, Int64.of_int (region_base t));
    (R.RCX, Int64.of_int (region_base t + (8 * stream_words)));
    (R.RDX, Int64.of_int s.deltas.(t));
    (R.R14, Int64.of_int counter_addr);
    (R.R15, Int64.of_int s.passes);
  ]

let stream_insns s =
  stream_threads * ((s.passes * (1 + (stream_groups * stream_group_insns) + 3)) + 1)

let stream_word s addr =
  let t = (addr - region_base 0) / 0x10_0000 in
  let gb = addr - ((addr - region_base t) mod (8 * stream_group)) in
  s.passes * (gb + s.deltas.(t))

let stream_counter s = stream_threads * s.passes * stream_groups

(* ---- cold: straight-line images of distinct blocks, run once ---- *)

(* One instruction drawn from a Parsec mix, plus MFENCE at weight 1:
   loads and stores share 32 data words so mem-elim finds RAW/WAW
   pairs, and lock RMWs and MFENCEs give fence-merge work. *)
let cold_insn st (m : Harness.Kernel.mix) =
  let w = [| m.loads; m.stores; m.arith; m.fp; m.locks; 1 |] in
  let r = Random.State.int st (Array.fold_left ( + ) 0 w) in
  let rec pick i acc = if r < acc + w.(i) then i else pick (i + 1) (acc + w.(i)) in
  let slot () = { I.base = Some R.RBX; index = None; disp = Int64.of_int (8 * Random.State.int st 32) } in
  let pick_reg regs = regs.(Random.State.int st (Array.length regs)) in
  match pick 0 0 with
  | 0 -> [ I.Load (pick_reg [| R.RAX; R.R9; R.R10 |], slot ()) ]
  | 1 -> [ I.Store (slot (), I.R (pick_reg [| R.RAX; R.RCX; R.RDX |])) ]
  | 2 ->
      let op = [| I.Add; I.Xor; I.Shl; I.Sub |].(Random.State.int st 4) in
      let src = if op = I.Shl then I.I 1L else I.R (pick_reg [| R.RAX; R.R9; R.R10 |]) in
      [ I.Alu (op, pick_reg [| R.RCX; R.RDX |], src) ]
  | 3 -> [ I.Fp ((if Random.State.bool st then I.Fmul else I.Fadd), R.RSI, R.RSI) ]
  | 4 -> [ I.Mov_ri (R.R8, 1L); I.Lock_xadd ({ I.base = Some R.R14; index = None; disp = 0L }, R.R8) ]
  | _ -> [ I.Mfence ]

type cold = { c_image : Image.Gelf.t; c_code : I.t list; c_insns : int }

let cold_data = 0x20000L
let cold_lock = 0x21000L

(* [blocks] groups of [Core.Frontend.max_block_insns] instructions, each
   group drawn from one seeded Parsec mix; the frontend cuts the
   straight line into (about) that many distinct blocks. *)
let cold_image ~seed ~index ~blocks =
  let st = rng seed (1000 + index) in
  let mixes = Array.of_list Harness.Parsec.all in
  let body = ref [] and n = ref 0 in
  let emit i =
    body := i :: !body;
    incr n
  in
  List.iter emit
    [
      I.Mov_ri (R.RBX, cold_data);
      I.Mov_ri (R.R14, cold_lock);
      I.Mov_ri (R.RSI, Int64.bits_of_float 1.000001);
    ];
  for b = 1 to blocks do
    let m = mixes.(Random.State.int st (Array.length mixes)).spec.mix in
    while !n < (b * Core.Frontend.max_block_insns) - 1 do
      List.iter emit (cold_insn st m)
    done
  done;
  emit I.Hlt;
  let code = List.rev !body in
  { c_image = Image.Gelf.build ~entry:"main" (Label "main" :: List.map (fun i -> Ins i) code); c_code = code; c_insns = !n }
