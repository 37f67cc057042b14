type fence_scheme = Qemu_fences | Risotto_fences | No_fences
type rmw_strategy = Helper of [ `Gcc9 | `Gcc10 ] | Native_casal | Native_rmw2

type t = {
  name : string;
  fences : fence_scheme;
  passes : Tcg.Pipeline.pass list;
  rmw : rmw_strategy;
  host_linker : bool;
  inject : Inject.plan;
  chain : bool;
  trace_threshold : int;
  jit_threshold : int;
}

let qemu =
  {
    name = "qemu";
    fences = Qemu_fences;
    passes = Tcg.Pipeline.qemu_default;
    rmw = Helper `Gcc10;
    host_linker = false;
    inject = [];
    chain = true;
    trace_threshold = 0;
    jit_threshold = 0;
  }

let no_fences = { qemu with name = "no-fences"; fences = No_fences }

let tcg_ver =
  {
    qemu with
    name = "tcg-ver";
    fences = Risotto_fences;
    passes = Tcg.Pipeline.risotto_default;
  }

let risotto =
  {
    tcg_ver with
    name = "risotto";
    rmw = Native_casal;
    host_linker = true;
  }

let all = [ qemu; no_fences; tcg_ver; risotto ]
