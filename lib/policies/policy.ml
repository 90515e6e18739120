type phase = Start | After_checkpoint | After_recovery

type observation = {
  mutable phase : phase;
  mutable remaining : float;
  failure_units : int;
  mutable min_age : float;
  iter_ages : (float -> unit) -> unit;
  summarize :
    nexact:int -> napprox:int -> Ckpt_distributions.Distribution.t -> Ckpt_core.Age_summary.t;
}

type instance = observation -> float option

type tuning = {
  key : (string * string) list;
  known : unit -> float option;
  search : unit -> float;
  adopt : float -> unit;
}

type t = {
  name : string;
  instantiate : unit -> instance;
  decide : instance option;
  tuning : tuning option;
}

let summarize_of_iter ~units ~iter_ages ~nexact ~napprox dist =
  Ckpt_core.Age_summary.build ~nexact ~napprox dist ~processors:units ~iter_ages

let stateless name f = { name; instantiate = (fun () -> f); decide = None; tuning = None }

let pure_scalar name f = { name; instantiate = (fun () -> f); decide = Some f; tuning = None }

let clamp_chunk ~remaining chunk = Float.max 0. (Float.min remaining chunk)

let periodic_decision ~period obs =
  if period <= 0. then None else Some (Float.min period obs.remaining)

let periodic name ~period = pure_scalar name (periodic_decision ~period)
