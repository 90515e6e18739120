module Job = Ckpt_policies.Job
module Policy = Ckpt_policies.Policy
module Trace_set = Ckpt_failures.Trace_set
module Tracer = Ckpt_telemetry.Tracer
module Metrics = Ckpt_telemetry.Metrics
module Age_summary = Ckpt_core.Age_summary

(* Stripe occupancy per lockstep round; fills under CKPT_METRICS=1 and
   surfaces in `ckpt stats` and the OpenMetrics textfile. *)
let batch_live_slots = Metrics.histogram "engine/batch_live_slots"

type metrics = {
  makespan : float;
  useful_work : float;
  checkpoint_time : float;
  wasted_time : float;
  recovery_time : float;
  stall_time : float;
  failures : int;
  chunks : int;
  min_chunk : float;
  max_chunk : float;
}

type outcome = Completed of metrics | Policy_failed of { at_time : float; remaining : float }

exception Accounting_violation of string

(* Every advance of the simulated clock is matched by an accumulator
   add of the same computed quantity, so the waste decomposition
   partitions the makespan by construction — up to one rounding per
   float operation.  The residual is checked on every completed run
   against a tolerance of one ulp (at the clock's magnitude) per
   accounting operation: at most ~4 roundings per committed chunk
   (chunk and checkpoint additions on both the clock and accumulator
   sides) and ~8 per failure (waste, downtime, recovery, cascades),
   doubled for headroom.  A residual beyond that means time was
   mis-attributed, not rounded. *)
let accounting_components m =
  m.useful_work +. m.checkpoint_time +. m.wasted_time +. m.recovery_time +. m.stall_time

let accounting_residual m = Float.abs (m.makespan -. accounting_components m)

let accounting_tolerance ?clock m =
  let clock = match clock with Some c -> c | None -> m.makespan in
  let scale = Float.max 1. (Float.max (Float.abs clock) (Float.abs m.makespan)) in
  let ulp = Float.succ scale -. scale in
  float_of_int ((8 * (m.chunks + m.failures)) + 64) *. ulp

let check_accounting ~clock m =
  let residual = accounting_residual m and tol = accounting_tolerance ~clock m in
  if not (residual <= tol) then
    raise
      (Accounting_violation
         (Printf.sprintf
            "makespan %.17g != useful %.17g + checkpoint %.17g + wasted %.17g + recovery %.17g \
             + stall %.17g (residual %.3g, tolerance %.3g, %d chunks, %d failures)"
            m.makespan m.useful_work m.checkpoint_time m.wasted_time m.recovery_time
            m.stall_time residual tol m.chunks m.failures));
  m


let work_epsilon = 1e-6

(* Structure-of-arrays execution state of a replicate stripe stepped
   in lockstep: index [k] of every array is one replicate's execution
   on its own trace set; a single run is the width-1 stripe.  The
   float accumulators live in unboxed float arrays (a mixed mutable
   record would box every float store), and the per-slot age ledger
   is created lazily on the slot's first [summarize] call:
   [Incremental.summarize] depends only on the current birth multiset,
   so a ledger created mid-run from the live [lifetime] answers
   bit-identically to one maintained from the start, and slots whose
   policy never consults the platform ages (the periodic family, the
   lower bound) skip the O(p log p) sort entirely. *)
type state = {
  job : Job.t;
  start : float;
  trace : Tracer.buffer array option;
      (* one buffer per slot: every phase transition below also emits
         a typed event; the untraced path is one match per site. *)
  now : float array;
  remaining : float array;
  useful : float array;
  checkpoint : float array;
  wasted : float array;
  recovery : float array;
  stall : float array;
  last_ref : float array;
      (* reference instant of the most recent platform failure's new
         lifetime (max over lifetime); min age = now - this. *)
  min_chunk : float array;
  max_chunk : float array;
  failures : int array;
  chunks : int array;
  event_index : int array;
  events : (float * int) array array;  (* merged (date, processor), shared with the trace sets *)
  lifetime : float array array;  (* per slot, per processor *)
  down_until : float array array;
  ages : Age_summary.Incremental.t option array;  (* lazy *)
}

(* [lifetime] is adopted: each slot's initial lifetime starts, which
   the stripe mutates. *)
let make_state ?trace ~scenario ~traces lifetime =
  let width = Array.length traces in
  (match trace with
  | Some b when Array.length b <> width -> invalid_arg "Engine.run_stripe: trace width mismatch"
  | Some _ | None -> ());
  let job = scenario.Scenario.job in
  let start = scenario.Scenario.start_time in
  {
    job;
    start;
    trace;
    now = Array.make width start;
    remaining = Array.make width job.Job.work_time;
    useful = Array.make width 0.;
    checkpoint = Array.make width 0.;
    wasted = Array.make width 0.;
    recovery = Array.make width 0.;
    stall = Array.make width 0.;
    last_ref = Array.map (fun ls -> Array.fold_left Float.max neg_infinity ls) lifetime;
    min_chunk = Array.make width 0.;
    max_chunk = Array.make width 0.;
    failures = Array.make width 0;
    chunks = Array.make width 0;
    event_index = Array.map (fun tr -> Trace_set.next_event_index tr ~after:start) traces;
    events = Array.map Trace_set.events traces;
    lifetime;
    down_until = Array.map (fun ls -> Array.make (Array.length ls) neg_infinity) lifetime;
    ages = Array.make width None;
  }

(* First effective failure of slot [k] strictly before [before],
   skipping (and consuming) failures absorbed by their own processor's
   downtime.  Does not consume the effective event it reports. *)
let peek st k ~before =
  let events = st.events.(k) in
  let down = st.down_until.(k) in
  let n = Array.length events in
  let rec scan () =
    let i = st.event_index.(k) in
    if i >= n then None
    else begin
      let date, proc = events.(i) in
      if date >= before then None
      else if date < down.(proc) then begin
        st.event_index.(k) <- i + 1;
        scan ()
      end
      else Some (date, proc)
    end
  in
  scan ()

let consume st k = st.event_index.(k) <- st.event_index.(k) + 1

(* Register the failure of [proc] at [date]: downtime, lifetime
   restart, and cascading failures of other processors until every
   processor is simultaneously available.  Returns the instant at
   which the platform is whole again. *)
let rec settle_downtime st k ~date ~proc =
  let d = Job.downtime st.job in
  (match st.trace with
  | Some b -> Tracer.emit b.(k) (Tracer.Failure { at = date; proc })
  | None -> ());
  st.failures.(k) <- st.failures.(k) + 1;
  st.down_until.(k).(proc) <- date +. d;
  (match st.ages.(k) with
  | Some inc ->
      Age_summary.Incremental.update inc ~old_birth:st.lifetime.(k).(proc)
        ~new_birth:(date +. d)
  | None -> ());
  st.lifetime.(k).(proc) <- date +. d;
  st.last_ref.(k) <- Float.max st.last_ref.(k) (date +. d);
  let ready = date +. d in
  match peek st k ~before:ready with
  | None -> ready
  | Some (date', proc') ->
      consume st k;
      Float.max ready (settle_downtime st k ~date:date' ~proc:proc')

(* Handle a failure hitting slot [k] at [date] while the job was busy
   (execution or recovery; the caller attributes the lost time), then
   perform the recovery — cost [r] — which may itself be struck.  On
   return, [st.now.(k)] is the instant the job can resume computing. *)
let handle_failure st k ~date ~proc ~r =
  let rec recover ready =
    (match st.trace with
    | Some b ->
        Tracer.emit b.(k) (Tracer.Downtime { t0 = st.now.(k); t1 = ready });
        Tracer.emit b.(k) (Tracer.Recovery_start { at = ready })
    | None -> ());
    st.stall.(k) <- st.stall.(k) +. (ready -. st.now.(k));
    st.now.(k) <- ready;
    match peek st k ~before:(ready +. r) with
    | None ->
        (match st.trace with
        | Some b ->
            Tracer.emit b.(k) (Tracer.Recovery_complete { t0 = ready; t1 = ready +. r; cost = r })
        | None -> ());
        st.recovery.(k) <- st.recovery.(k) +. r;
        st.now.(k) <- ready +. r
    | Some (date', proc') ->
        consume st k;
        (match st.trace with
        | Some b -> Tracer.emit b.(k) (Tracer.Recovery_abort { t0 = ready; t1 = date' })
        | None -> ());
        st.recovery.(k) <- st.recovery.(k) +. (date' -. ready);
        st.now.(k) <- date';
        let ready' = settle_downtime st k ~date:date' ~proc:proc' in
        recover ready'
  in
  consume st k;
  (match st.trace with
  | Some b -> Tracer.emit b.(k) (Tracer.Waste { t0 = st.now.(k); t1 = date })
  | None -> ());
  st.wasted.(k) <- st.wasted.(k) +. (date -. st.now.(k));
  st.now.(k) <- date;
  let ready = settle_downtime st k ~date ~proc in
  recover ready

(* Commit a [chunk] of work started at [st.now.(k)] and its checkpoint
   of cost [c]; the caller advances the clock. *)
let commit st k ~chunk ~c =
  let t0 = st.now.(k) in
  (match st.trace with
  | Some b ->
      Tracer.emit b.(k) (Tracer.Chunk_commit { t0; t1 = t0 +. chunk; work = chunk });
      Tracer.emit b.(k) (Tracer.Checkpoint { t0 = t0 +. chunk; t1 = t0 +. chunk +. c; cost = c })
  | None -> ());
  st.remaining.(k) <- st.remaining.(k) -. chunk;
  st.useful.(k) <- st.useful.(k) +. chunk;
  st.checkpoint.(k) <- st.checkpoint.(k) +. c;
  st.chunks.(k) <- st.chunks.(k) + 1;
  if st.chunks.(k) = 1 then begin
    st.min_chunk.(k) <- chunk;
    st.max_chunk.(k) <- chunk
  end
  else begin
    st.min_chunk.(k) <- Float.min st.min_chunk.(k) chunk;
    st.max_chunk.(k) <- Float.max st.max_chunk.(k) chunk
  end

let metrics st k =
  check_accounting ~clock:st.now.(k)
    {
      makespan = st.now.(k) -. st.start;
      useful_work = st.useful.(k);
      checkpoint_time = st.checkpoint.(k);
      wasted_time = st.wasted.(k);
      recovery_time = st.recovery.(k);
      stall_time = st.stall.(k);
      failures = st.failures.(k);
      chunks = st.chunks.(k);
      min_chunk = st.min_chunk.(k);
      max_chunk = st.max_chunk.(k);
    }

let run_stripe ?initial_births ?trace ?cost_profile ~scenario ~traces ~policy () =
  let width = Array.length traces in
  if width = 0 then [||]
  else begin
    (* The caller may hand over the initial lifetime template it
       already computed for another pass over the same trace sets;
       copy, never adopt — the stripe mutates its lifetimes. *)
    let lifetime =
      match initial_births with
      | Some b when Array.length b <> width ->
          invalid_arg "Engine.run_stripe: initial_births width mismatch"
      | Some b -> Array.map Array.copy b
      | None -> Array.map (fun tr -> Scenario.initial_lifetime_starts scenario tr) traces
    in
    let st = make_state ?trace ~scenario ~traces lifetime in
    let job = st.job in
    let constant_c = Job.checkpoint_cost job in
    let constant_r = Job.recovery_cost job in
    let work_time = job.Job.work_time in
    (* Checkpoint cost at the progress a chunk ends at; recovery cost
       at the progress being protected (the last committed
       checkpoint). *)
    let progress remaining = Float.max 0. (Float.min 1. (1. -. (remaining /. work_time))) in
    let checkpoint_cost ~after =
      match cost_profile with None -> constant_c | Some f -> fst (f ~progress:(progress after))
    in
    let recovery_cost ~at =
      match cost_profile with None -> constant_r | Some f -> snd (f ~progress:(progress at))
    in
    let units = Array.length lifetime.(0) in
    (* One reusable observation and one fresh policy instance per slot,
       the observation's closures bound to that slot once — nothing is
       allocated per decision. *)
    let obs =
      Array.init width (fun k ->
          let iter_ages f =
            Array.iter (fun ls -> f (Float.max 0. (st.now.(k) -. ls))) st.lifetime.(k)
          in
          let summarize ~nexact ~napprox dist =
            let inc =
              match st.ages.(k) with
              | Some inc -> inc
              | None ->
                  let inc = Age_summary.Incremental.create ~births:st.lifetime.(k) in
                  st.ages.(k) <- Some inc;
                  inc
            in
            Age_summary.Incremental.summarize ~nexact ~napprox inc dist ~now:st.now.(k)
          in
          {
            Policy.phase = Policy.Start;
            remaining = st.remaining.(k);
            failure_units = units;
            min_age = 0.;
            iter_ages;
            summarize;
          })
    in
    let instances = Array.init width (fun _ -> policy.Policy.instantiate ()) in
    let results = Array.make width None in
    (* Lockstep rounds over the live slots, one decision + chunk
       attempt per slot per round.  A slot that completes (or whose
       policy declines) is swapped out of the live prefix, so
       stragglers keep stepping without scanning finished slots. *)
    let live = Array.init width Fun.id in
    let nlive = ref width in
    while !nlive > 0 do
      Metrics.observe batch_live_slots (float_of_int !nlive);
      let i = ref 0 in
      while !i < !nlive do
        let k = live.(!i) in
        let finished =
          if st.remaining.(k) <= work_epsilon then begin
            results.(k) <- Some (Completed (metrics st k));
            true
          end
          else begin
            let o = obs.(k) in
            let remaining = st.remaining.(k) in
            o.Policy.remaining <- remaining;
            o.Policy.min_age <- Float.max 0. (st.now.(k) -. st.last_ref.(k));
            match instances.(k) o with
            | None ->
                results.(k) <- Some (Policy_failed { at_time = st.now.(k); remaining });
                true
            | Some chunk ->
                let chunk =
                  let c' = Policy.clamp_chunk ~remaining chunk in
                  if c' < work_epsilon then remaining else c'
                in
                let c = checkpoint_cost ~after:(remaining -. chunk) in
                (match st.trace with
                | Some b ->
                    let now = st.now.(k) in
                    Tracer.emit b.(k) (Tracer.Decision { at = now; chunk; remaining });
                    Tracer.emit b.(k) (Tracer.Chunk_start { at = now; work = chunk })
                | None -> ());
                let finish = st.now.(k) +. chunk +. c in
                (match peek st k ~before:finish with
                | None ->
                    commit st k ~chunk ~c;
                    st.now.(k) <- finish;
                    o.Policy.phase <- Policy.After_checkpoint
                | Some (date, proc) ->
                    handle_failure st k ~date ~proc ~r:(recovery_cost ~at:remaining);
                    o.Policy.phase <- Policy.After_recovery);
                false
          end
        in
        if finished then begin
          live.(!i) <- live.(!nlive - 1);
          decr nlive
        end
        else incr i
      done
    done;
    Array.map (function Some o -> o | None -> assert false) results
  end

let run ?trace ?cost_profile ~scenario ~traces ~policy () =
  let trace = Option.map (fun b -> [| b |]) trace in
  (run_stripe ?trace ?cost_profile ~scenario ~traces:[| traces |] ~policy ()).(0)

let lower_bound ?trace ~scenario ~traces () =
  let trace = Option.map (fun b -> [| b |]) trace in
  let st =
    make_state ?trace ~scenario ~traces:[| traces |]
      [| Scenario.initial_lifetime_starts scenario traces |]
  in
  let c = Job.checkpoint_cost st.job in
  let r = Job.recovery_cost st.job in
  (* Commit everything left in one chunk. *)
  let finish () =
    let chunk = st.remaining.(0) in
    commit st 0 ~chunk ~c;
    st.now.(0) <- st.now.(0) +. chunk +. c
  in
  while st.remaining.(0) > work_epsilon do
    match peek st 0 ~before:infinity with
    | None -> (* Failure-free to the horizon. *) finish ()
    | Some (date, proc) ->
        let available = date -. st.now.(0) in
        if st.remaining.(0) +. c <= available then
          (* The job finishes before the failure strikes. *)
          finish ()
        else begin
          if available > c then
            (* Work as much as possible, checkpointing just in time:
               the checkpoint commits exactly when the failure hits. *)
            commit st 0 ~chunk:(available -. c) ~c
          else begin
            (* Too close to the failure to save anything: idle. *)
            (match st.trace with
            | Some b -> Tracer.emit b.(0) (Tracer.Waste { t0 = st.now.(0); t1 = date })
            | None -> ());
            st.wasted.(0) <- st.wasted.(0) +. available
          end;
          st.now.(0) <- date;
          handle_failure st 0 ~date ~proc ~r
        end
  done;
  metrics st 0
