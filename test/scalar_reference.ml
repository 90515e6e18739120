(* Test-only reference: the original per-replicate scalar stepper,
   untraced and at the job's constant costs.  It shares nothing with
   [Engine.run_stripe] but the outcome types and the accounting check,
   so the random-input properties comparing the two are an independent
   oracle for the single engine.  Not for production use: it builds
   the O(p log p) age ledger eagerly on every run. *)

module Engine = Ckpt_simulator.Engine
module Scenario = Ckpt_simulator.Scenario
module Job = Ckpt_policies.Job
module Policy = Ckpt_policies.Policy
module Trace_set = Ckpt_failures.Trace_set
module Age_summary = Ckpt_core.Age_summary

type state = {
  job : Job.t;
  events : (float * int) array;  (* merged (date, processor), sorted *)
  mutable event_index : int;
  lifetime_start : float array;  (* per processor *)
  ages_inc : Age_summary.Incremental.t;  (* sorted mirror of lifetime_start *)
  down_until : float array;
  mutable now : float;
  start_time : float;
  mutable remaining : float;
  mutable last_failure_ref : float;
  mutable useful_work : float;
  mutable checkpoint_time : float;
  mutable wasted_time : float;
  mutable recovery_time : float;
  mutable stall_time : float;
  mutable failures : int;
  mutable chunks : int;
  mutable min_chunk : float;
  mutable max_chunk : float;
}

let make_state ~scenario ~traces =
  let job = scenario.Scenario.job in
  let lifetime_start = Scenario.initial_lifetime_starts scenario traces in
  let start_time = scenario.Scenario.start_time in
  {
    job;
    events = Trace_set.events traces;
    event_index = Trace_set.next_event_index traces ~after:start_time;
    lifetime_start;
    ages_inc = Age_summary.Incremental.create ~births:lifetime_start;
    down_until = Array.make (Array.length lifetime_start) neg_infinity;
    now = start_time;
    start_time;
    remaining = job.Job.work_time;
    last_failure_ref = Array.fold_left Float.max neg_infinity lifetime_start;
    useful_work = 0.;
    checkpoint_time = 0.;
    wasted_time = 0.;
    recovery_time = 0.;
    stall_time = 0.;
    failures = 0;
    chunks = 0;
    min_chunk = 0.;
    max_chunk = 0.;
  }

let peek_effective_failure st ~before =
  let n = Array.length st.events in
  let rec scan () =
    if st.event_index >= n then None
    else begin
      let date, proc = st.events.(st.event_index) in
      if date >= before then None
      else if date < st.down_until.(proc) then begin
        st.event_index <- st.event_index + 1;
        scan ()
      end
      else Some (date, proc)
    end
  in
  scan ()

let consume_event st = st.event_index <- st.event_index + 1

let rec settle_downtime st ~date ~proc =
  let d = Job.downtime st.job in
  st.failures <- st.failures + 1;
  st.down_until.(proc) <- date +. d;
  Age_summary.Incremental.update st.ages_inc ~old_birth:st.lifetime_start.(proc)
    ~new_birth:(date +. d);
  st.lifetime_start.(proc) <- date +. d;
  st.last_failure_ref <- Float.max st.last_failure_ref (date +. d);
  let ready = date +. d in
  match peek_effective_failure st ~before:ready with
  | None -> ready
  | Some (date', proc') ->
      consume_event st;
      Float.max ready (settle_downtime st ~date:date' ~proc:proc')

let handle_failure st ~date ~proc ~r =
  let rec recover ready =
    st.stall_time <- st.stall_time +. (ready -. st.now);
    st.now <- ready;
    match peek_effective_failure st ~before:(ready +. r) with
    | None ->
        st.recovery_time <- st.recovery_time +. r;
        st.now <- ready +. r
    | Some (date', proc') ->
        consume_event st;
        st.recovery_time <- st.recovery_time +. (date' -. ready);
        st.now <- date';
        recover (settle_downtime st ~date:date' ~proc:proc')
  in
  consume_event st;
  st.wasted_time <- st.wasted_time +. (date -. st.now);
  st.now <- date;
  recover (settle_downtime st ~date ~proc)

let record_chunk st chunk =
  st.chunks <- st.chunks + 1;
  if st.chunks = 1 then begin
    st.min_chunk <- chunk;
    st.max_chunk <- chunk
  end
  else begin
    st.min_chunk <- Float.min st.min_chunk chunk;
    st.max_chunk <- Float.max st.max_chunk chunk
  end

let metrics_of st =
  {
    Engine.makespan = st.now -. st.start_time;
    useful_work = st.useful_work;
    checkpoint_time = st.checkpoint_time;
    wasted_time = st.wasted_time;
    recovery_time = st.recovery_time;
    stall_time = st.stall_time;
    failures = st.failures;
    chunks = st.chunks;
    min_chunk = st.min_chunk;
    max_chunk = st.max_chunk;
  }

let work_epsilon = 1e-6

let run ~scenario ~traces ~policy =
  let st = make_state ~scenario ~traces in
  let c = Job.checkpoint_cost st.job in
  let r = Job.recovery_cost st.job in
  let instance = policy.Policy.instantiate () in
  let iter_ages f = Array.iter (fun ls -> f (Float.max 0. (st.now -. ls))) st.lifetime_start in
  let obs =
    {
      Policy.phase = Policy.Start;
      remaining = st.remaining;
      failure_units = Array.length st.lifetime_start;
      min_age = 0.;
      iter_ages;
      summarize =
        (fun ~nexact ~napprox dist ->
          Age_summary.Incremental.summarize ~nexact ~napprox st.ages_inc dist ~now:st.now);
    }
  in
  let outcome = ref None in
  while Option.is_none !outcome do
    if st.remaining <= work_epsilon then outcome := Some (Engine.Completed (metrics_of st))
    else begin
      obs.Policy.remaining <- st.remaining;
      obs.Policy.min_age <- Float.max 0. (st.now -. st.last_failure_ref);
      match instance obs with
      | None ->
          outcome := Some (Engine.Policy_failed { at_time = st.now; remaining = st.remaining })
      | Some chunk ->
          let chunk =
            let c' = Policy.clamp_chunk ~remaining:st.remaining chunk in
            if c' < work_epsilon then st.remaining else c'
          in
          let finish = st.now +. chunk +. c in
          (match peek_effective_failure st ~before:finish with
          | None ->
              st.now <- finish;
              st.remaining <- st.remaining -. chunk;
              st.useful_work <- st.useful_work +. chunk;
              st.checkpoint_time <- st.checkpoint_time +. c;
              record_chunk st chunk;
              obs.Policy.phase <- Policy.After_checkpoint
          | Some (date, proc) ->
              handle_failure st ~date ~proc ~r;
              obs.Policy.phase <- Policy.After_recovery)
    end
  done;
  Option.get !outcome
