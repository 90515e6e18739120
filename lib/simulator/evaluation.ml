module Policy = Ckpt_policies.Policy
module Summary = Ckpt_numerics.Summary
module Domain_pool = Ckpt_parallel.Domain_pool
module Metrics = Ckpt_telemetry.Metrics
module Metrics_export = Ckpt_telemetry.Metrics_export
module Tracer = Ckpt_telemetry.Tracer
module Trace_export = Ckpt_telemetry.Trace_export

(* Trace-generation latency per replicate (seconds) and replicate
   counts; fill under CKPT_METRICS=1. *)
let trace_gen_seconds = Metrics.histogram "eval/trace_gen_seconds"
let replicates_run = Metrics.counter "eval/replicates"
let unusable_replicates = Metrics.counter "eval/unusable_replicates"

(* Wall-clock spent inside [Engine.run_stripe] (one policy's pass over
   a whole stripe). *)
let stripe_engine_seconds = Metrics.timer "eval/stripe_engine_seconds"

(* Simulated waste decomposition of every completed run, one histogram
   per component (seconds of simulated time); fills under
   CKPT_METRICS=1 and shows up in `ckpt stats` and the OpenMetrics
   textfile. *)
let makespan_sim_seconds = Metrics.histogram "eval/makespan_sim_seconds"
let useful_sim_seconds = Metrics.histogram "eval/useful_sim_seconds"
let checkpoint_sim_seconds = Metrics.histogram "eval/checkpoint_sim_seconds"
let wasted_sim_seconds = Metrics.histogram "eval/wasted_sim_seconds"
let recovery_sim_seconds = Metrics.histogram "eval/recovery_sim_seconds"
let stall_sim_seconds = Metrics.histogram "eval/stall_sim_seconds"

(* Component layout of the distributional accumulator
   (Summary.Vector): the engine's waste decomposition plus the
   per-replicate degradation. *)
let comp_makespan = 0
let comp_useful = 1
let comp_checkpoint = 2
let comp_wasted = 3
let comp_recovery = 4
let comp_stall = 5
let comp_degradation = 6
let profile_dim = 7

type waste_profile = {
  mk_p50 : float;
  mk_p95 : float;
  mk_p99 : float;
  mk_mean : float;
  mk_ci95 : float;
  deg_ci95 : float;
  useful_s : float;
  checkpoint_s : float;
  wasted_s : float;
  recovery_s : float;
  stall_s : float;
  useful_frac : float;
  checkpoint_frac : float;
  wasted_frac : float;
  recovery_frac : float;
  stall_frac : float;
}

type policy_result = {
  policy_name : string;
  average_degradation : float;
  std_degradation : float;
  average_makespan : float;
  successes : int;
  average_failures : float;
  max_failures : int;
  average_chunks : float;
  min_chunk : float;
  max_chunk : float;
  profile : waste_profile option;  (* None when no run completed *)
}

type table = {
  lower_bound : policy_result;
  results : policy_result list;
  replicates : int;
  usable_replicates : int;
}

type accumulator = {
  mutable degradation : Summary.t;
  mutable makespan : Summary.t;
  mutable failures : Summary.t;
  mutable chunk_counts : Summary.t;
  mutable worst_failures : int;
  mutable smallest_chunk : float;
  mutable largest_chunk : float;
  mutable profile : Summary.Vector.t;
      (* exact distributional view of the waste decomposition; merges
         bit-identically whatever the reduction tree, unlike the
         Welford summaries above (which stay the source of the
         original mean/std columns). *)
}

let fresh_accumulator () =
  {
    degradation = Summary.empty;
    makespan = Summary.empty;
    failures = Summary.empty;
    chunk_counts = Summary.empty;
    worst_failures = 0;
    smallest_chunk = infinity;
    largest_chunk = 0.;
    profile = Summary.Vector.create ~dim:profile_dim;
  }

let observation_of_metrics ~degradation (m : Engine.metrics) =
  let obs = Array.make profile_dim 0. in
  obs.(comp_makespan) <- m.Engine.makespan;
  obs.(comp_useful) <- m.Engine.useful_work;
  obs.(comp_checkpoint) <- m.Engine.checkpoint_time;
  obs.(comp_wasted) <- m.Engine.wasted_time;
  obs.(comp_recovery) <- m.Engine.recovery_time;
  obs.(comp_stall) <- m.Engine.stall_time;
  obs.(comp_degradation) <- degradation;
  obs

let record acc ~degradation (m : Engine.metrics) =
  acc.degradation <- Summary.add acc.degradation degradation;
  acc.makespan <- Summary.add acc.makespan m.Engine.makespan;
  acc.failures <- Summary.add acc.failures (float_of_int m.Engine.failures);
  acc.chunk_counts <- Summary.add acc.chunk_counts (float_of_int m.Engine.chunks);
  acc.worst_failures <- max acc.worst_failures m.Engine.failures;
  if m.Engine.chunks > 0 then begin
    acc.smallest_chunk <- Float.min acc.smallest_chunk m.Engine.min_chunk;
    acc.largest_chunk <- Float.max acc.largest_chunk m.Engine.max_chunk
  end;
  acc.profile <- Summary.Vector.add acc.profile (observation_of_metrics ~degradation m);
  Metrics.observe makespan_sim_seconds m.Engine.makespan;
  Metrics.observe useful_sim_seconds m.Engine.useful_work;
  Metrics.observe checkpoint_sim_seconds m.Engine.checkpoint_time;
  Metrics.observe wasted_sim_seconds m.Engine.wasted_time;
  Metrics.observe recovery_sim_seconds m.Engine.recovery_time;
  Metrics.observe stall_sim_seconds m.Engine.stall_time

let merge_into acc other =
  acc.degradation <- Summary.merge acc.degradation other.degradation;
  acc.makespan <- Summary.merge acc.makespan other.makespan;
  acc.failures <- Summary.merge acc.failures other.failures;
  acc.chunk_counts <- Summary.merge acc.chunk_counts other.chunk_counts;
  acc.worst_failures <- max acc.worst_failures other.worst_failures;
  acc.smallest_chunk <- Float.min acc.smallest_chunk other.smallest_chunk;
  acc.largest_chunk <- Float.max acc.largest_chunk other.largest_chunk;
  acc.profile <- Summary.Vector.merge acc.profile other.profile

let profile_of_vector v =
  let module V = Summary.Vector in
  if V.count v = 0 then None
  else begin
    let mk_mean = V.mean v comp_makespan in
    let frac i = if mk_mean > 0. then V.mean v i /. mk_mean else nan in
    Some
      {
        mk_p50 = V.quantile v comp_makespan 0.5;
        mk_p95 = V.quantile v comp_makespan 0.95;
        mk_p99 = V.quantile v comp_makespan 0.99;
        mk_mean;
        mk_ci95 = V.ci_half_width v comp_makespan;
        deg_ci95 = V.ci_half_width v comp_degradation;
        useful_s = V.mean v comp_useful;
        checkpoint_s = V.mean v comp_checkpoint;
        wasted_s = V.mean v comp_wasted;
        recovery_s = V.mean v comp_recovery;
        stall_s = V.mean v comp_stall;
        useful_frac = frac comp_useful;
        checkpoint_frac = frac comp_checkpoint;
        wasted_frac = frac comp_wasted;
        recovery_frac = frac comp_recovery;
        stall_frac = frac comp_stall;
      }
  end

let result_of_accumulator name acc =
  {
    policy_name = name;
    average_degradation = Summary.mean acc.degradation;
    std_degradation = Summary.std acc.degradation;
    average_makespan = Summary.mean acc.makespan;
    successes = Summary.count acc.degradation;
    average_failures = Summary.mean acc.failures;
    max_failures = acc.worst_failures;
    average_chunks = Summary.mean acc.chunk_counts;
    min_chunk = (if acc.smallest_chunk = infinity then 0. else acc.smallest_chunk);
    max_chunk = acc.largest_chunk;
    profile = profile_of_vector acc.profile;
  }

(* The outcome of one Monte-Carlo replicate: every policy's and the
   omniscient bound's accumulators.  It depends only on (scenario,
   policies, replicate) — never on which domain ran it, in which
   order, or beside which other replicates of its stripe — which is
   what makes the parallel fan-out below deterministic. *)
type replicate_outcome = {
  rep_accs : accumulator array;  (* one per policy, input order *)
  rep_lb : accumulator;
  rep_usable : bool;
}

(* Replicates [first, first + len) as one stripe: generates (or
   fetches from the scenario cache) the stripe's trace sets, computes
   each slot's initial lifetime template once (shared by every
   policy's pass), steps every policy over the whole stripe, then
   reassembles per-replicate outcomes in slot order.  Under tracing,
   each run fills its own buffer, named [rep<replicate>/<policy>],
   registered in replicate order. *)
let run_replicate_stripe ~scenario ~policies ~first ~len =
  let metered = Metrics.enabled () in
  let tracing = Tracer.enabled () in
  let buffers name =
    if not tracing then None
    else
      Some
        (Array.init len (fun i ->
             Tracer.create_buffer ~name:(Printf.sprintf "rep%d/%s" (first + i) name) ()))
  in
  let observed hist f =
    if not metered then f ()
    else begin
      let t0 = Unix.gettimeofday () in
      let v = f () in
      Metrics.observe hist (Unix.gettimeofday () -. t0);
      v
    end
  in
  let traces =
    Instrument.time "trace-generation" (fun () ->
        Array.init len (fun i ->
            observed trace_gen_seconds (fun () ->
                Scenario.traces scenario ~replicate:(first + i))))
  in
  let initial_births =
    Array.map (fun tr -> Scenario.initial_lifetime_starts scenario tr) traces
  in
  (* One engine pass per policy over the full stripe; [policy_runs.(j).(i)]
     is policy [j]'s outcome on replicate [first + i]. *)
  let policy_buffers = Array.map (fun policy -> buffers policy.Policy.name) policies in
  let policy_runs =
    Array.map2
      (fun policy trace ->
        Instrument.time policy.Policy.name (fun () ->
            if not metered then
              Engine.run_stripe ~initial_births ?trace ~scenario ~traces ~policy ()
            else begin
              let t0 = Unix.gettimeofday () in
              let runs = Engine.run_stripe ~initial_births ?trace ~scenario ~traces ~policy () in
              Metrics.record stripe_engine_seconds (Unix.gettimeofday () -. t0);
              runs
            end))
      policies policy_buffers
  in
  let lb_buffers = buffers "LowerBound" in
  Array.init len (fun i ->
      let best =
        Array.fold_left
          (fun acc runs ->
            match runs.(i) with
            | Engine.Completed m -> Float.min acc m.Engine.makespan
            | Engine.Policy_failed _ -> acc)
          infinity policy_runs
      in
      let rep_accs = Array.map (fun _ -> fresh_accumulator ()) policies in
      let rep_lb = fresh_accumulator () in
      let rep_usable = Float.is_finite best && best > 0. in
      Array.iter (Option.iter (fun b -> Tracer.register b.(i))) policy_buffers;
      if rep_usable then begin
        Array.iteri
          (fun j runs ->
            match runs.(i) with
            | Engine.Completed m -> record rep_accs.(j) ~degradation:(m.Engine.makespan /. best) m
            | Engine.Policy_failed _ -> ())
          policy_runs;
        let trace = Option.map (fun b -> b.(i)) lb_buffers in
        let lb =
          Instrument.time "LowerBound" (fun () ->
              Engine.lower_bound ?trace ~scenario ~traces:traces.(i) ())
        in
        Option.iter Tracer.register trace;
        record rep_lb ~degradation:(lb.Engine.makespan /. best) lb
      end;
      if metered then begin
        Metrics.incr replicates_run;
        if not rep_usable then Metrics.incr unusable_replicates
      end;
      { rep_accs; rep_lb; rep_usable })

(* -- replicate stripes -------------------------------------------------------

   Replicates are grouped into contiguous stripes of [stripe_size]
   (CKPT_SWEEP_STRIPE): the reduction merges replicate outcomes in
   order within each stripe, then stripe partials in stripe order.
   This fixed merge tree — independent of domain count, scheduler
   backend, and of whether a stripe was computed now or loaded from a
   sweep checkpoint — is what makes a resumed study bit-identical to
   an uninterrupted one. *)

let default_stripe_size = 16

let stripe_size () =
  match Sys.getenv_opt "CKPT_SWEEP_STRIPE" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None -> default_stripe_size)
  | None -> default_stripe_size

let stripe_count ~replicates =
  if replicates <= 0 then invalid_arg "Evaluation.stripe_count: replicates must be positive";
  let sz = stripe_size () in
  (replicates + sz - 1) / sz

let stripe_bounds ~replicates ~stripe =
  if replicates <= 0 then invalid_arg "Evaluation.stripe_bounds: replicates must be positive";
  let sz = stripe_size () in
  let first = stripe * sz in
  if stripe < 0 || first >= replicates then invalid_arg "Evaluation.stripe_bounds: no such stripe";
  (first, min sz (replicates - first))

type partial = {
  p_policies : string array;  (* policy names, input order *)
  p_accs : accumulator array;
  p_lb : accumulator;
  p_usable : int;
  p_replicates : int;
}

(* Merge the outcomes of replicates [first, first + len) in replicate
   order — the canonical within-stripe reduction. *)
let partial_of_outcomes ~policy_names outcomes ~first ~len =
  let accs = Array.map (fun _ -> fresh_accumulator ()) policy_names in
  let lb = fresh_accumulator () in
  let usable = ref 0 in
  for i = first to first + len - 1 do
    let o = outcomes.(i) in
    if o.rep_usable then incr usable;
    Array.iteri (fun j rep -> merge_into accs.(j) rep) o.rep_accs;
    merge_into lb o.rep_lb
  done;
  { p_policies = policy_names; p_accs = accs; p_lb = lb; p_usable = !usable; p_replicates = len }

(* A merge-neutral partial: zero replicates, fresh accumulators, the
   given roster.  Sweep workers substitute it for units another worker
   currently holds — worker-side reductions are discarded (only the
   parent's canonical pass renders output), so the placeholder merely
   keeps the roster checks in [table_of_partials] satisfied. *)
let empty_partial ~policy_names =
  partial_of_outcomes ~policy_names [||] ~first:0 ~len:0

let stripe_partial ~scenario ~policies ~replicates ~stripe =
  if replicates <= 0 then invalid_arg "Evaluation.stripe_partial: replicates must be positive";
  if policies = [] then invalid_arg "Evaluation.stripe_partial: no policies";
  let first, len = stripe_bounds ~replicates ~stripe in
  let policy_array = Array.of_list policies in
  let names = Array.map (fun p -> p.Policy.name) policy_array in
  let outcomes = run_replicate_stripe ~scenario ~policies:policy_array ~first ~len in
  partial_of_outcomes ~policy_names:names outcomes ~first:0 ~len

let table_of_partials partials =
  match partials with
  | [] -> invalid_arg "Evaluation.table_of_partials: no partials"
  | head :: _ ->
      List.iter
        (fun p ->
          if p.p_policies <> head.p_policies then
            invalid_arg "Evaluation.table_of_partials: mismatched policy rosters")
        partials;
      let accs = Array.map (fun _ -> fresh_accumulator ()) head.p_policies in
      let lb_acc = fresh_accumulator () in
      let usable = ref 0 in
      let replicates = ref 0 in
      List.iter
        (fun p ->
          usable := !usable + p.p_usable;
          replicates := !replicates + p.p_replicates;
          Array.iteri (fun i a -> merge_into accs.(i) a) p.p_accs;
          merge_into lb_acc p.p_lb)
        partials;
      {
        lower_bound = result_of_accumulator "LowerBound" lb_acc;
        results =
          Array.to_list
            (Array.mapi (fun i name -> result_of_accumulator name accs.(i)) head.p_policies);
        replicates = !replicates;
        usable_replicates = !usable;
      }

(* -- persistence of partials -------------------------------------------------

   Line-based text, floats in hexadecimal notation via
   [Summary.serialize], so a reloaded partial is bit-identical to the
   computed one.  Deserialization answers [None] on any malformed
   input: a corrupted checkpoint must read as "recompute me". *)

let serialize_accumulator a =
  Printf.sprintf "%s %s %s %s %d %h %h %s" (Summary.serialize a.degradation)
    (Summary.serialize a.makespan) (Summary.serialize a.failures)
    (Summary.serialize a.chunk_counts) a.worst_failures a.smallest_chunk a.largest_chunk
    (Summary.Vector.serialize a.profile)

(* 4 summaries x 5 tokens + worst/smallest/largest, followed by the
   variable-length distributional vector. *)
let accumulator_tokens = 23

let deserialize_accumulator tokens =
  let ( let* ) = Option.bind in
  if Array.length tokens < accumulator_tokens then None
  else begin
    let summary i =
      Summary.deserialize (String.concat " " (Array.to_list (Array.sub tokens i 5)))
    in
    let* degradation = summary 0 in
    let* makespan = summary 5 in
    let* failures = summary 10 in
    let* chunk_counts = summary 15 in
    let* worst_failures = int_of_string_opt tokens.(20) in
    let* smallest_chunk = float_of_string_opt tokens.(21) in
    let* largest_chunk = float_of_string_opt tokens.(22) in
    let rest =
      Array.to_list (Array.sub tokens accumulator_tokens (Array.length tokens - accumulator_tokens))
    in
    let* profile =
      match Summary.Vector.of_tokens rest with
      | Some (v, []) when Summary.Vector.dim v = profile_dim -> Some v
      | _ -> None
    in
    Some
      {
        degradation;
        makespan;
        failures;
        chunk_counts;
        worst_failures;
        smallest_chunk;
        largest_chunk;
        profile;
      }
  end

(* /2 added the distributional vector to each accumulator line.  /1
   units in a sweep store deserialize as None and are recomputed —
   exactly the invalidation semantics the store already has for
   corrupted units. *)
let partial_format = "ckpt-eval-partial/2"

let serialize_partial p =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf partial_format;
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "policies\t%s\n" (String.concat "\t" (Array.to_list p.p_policies)));
  Buffer.add_string buf (Printf.sprintf "replicates %d\n" p.p_replicates);
  Buffer.add_string buf (Printf.sprintf "usable %d\n" p.p_usable);
  Buffer.add_string buf (Printf.sprintf "lb %s\n" (serialize_accumulator p.p_lb));
  Array.iter
    (fun a -> Buffer.add_string buf (Printf.sprintf "acc %s\n" (serialize_accumulator a)))
    p.p_accs;
  Buffer.contents buf

let deserialize_partial contents =
  let ( let* ) = Option.bind in
  let tokens_of line = Array.of_list (String.split_on_char ' ' (String.trim line)) in
  let acc_of line =
    deserialize_accumulator (Array.sub (tokens_of line) 1 (max 0 (Array.length (tokens_of line) - 1)))
  in
  let int_field prefix line =
    if String.starts_with ~prefix:(prefix ^ " ") line then
      int_of_string_opt (String.sub line (String.length prefix + 1)
                           (String.length line - String.length prefix - 1))
    else None
  in
  match String.split_on_char '\n' contents with
  | format :: policies :: replicates :: usable :: lb :: accs
    when format = partial_format && String.starts_with ~prefix:"policies\t" policies ->
      let names =
        Array.of_list
          (String.split_on_char '\t'
             (String.sub policies 9 (String.length policies - 9)))
      in
      let* p_replicates = int_field "replicates" replicates in
      let* p_usable = int_field "usable" usable in
      let* p_lb = if String.starts_with ~prefix:"lb " lb then acc_of lb else None in
      let accs = List.filter (fun l -> String.trim l <> "") accs in
      if List.length accs <> Array.length names then None
      else begin
        let parsed =
          List.map
            (fun l -> if String.starts_with ~prefix:"acc " l then acc_of l else None)
            accs
        in
        if List.exists Option.is_none parsed then None
        else
          Some
            {
              p_policies = names;
              p_accs = Array.of_list (List.map Option.get parsed);
              p_lb;
              p_usable;
              p_replicates;
            }
      end
  | _ -> None

let degradation_table ~scenario ~policies ~replicates =
  if replicates <= 0 then invalid_arg "Evaluation.degradation_table: replicates must be positive";
  if policies = [] then invalid_arg "Evaluation.degradation_table: no policies";
  (* Timers and progress are process-global; only a top-level table
     (not one nested inside a study's own fan-out, where several
     tables run concurrently) resets and reports them — and when a
     study claimed the timers with [Instrument.scoped], the scope owns
     reset and report, so even a top-level table defers to it. *)
  let top_level = not (Domain_pool.in_parallel_region ()) in
  let owns_timers = top_level && not (Instrument.in_scope ()) in
  if owns_timers then Instrument.reset ();
  if Tracer.enabled () then Trace_export.ensure_at_exit ();
  (* Long tables are exactly what the periodic sampler exists for; the
     call is a no-op unless CKPT_METRICS_INTERVAL/CKPT_METRICS_OUT is
     set. *)
  Metrics_export.ensure_sampler ();
  let policy_array = Array.of_list policies in
  let progress =
    if top_level then Some (Instrument.progress ~label:"degradation_table" ~total:replicates)
    else None
  in
  (* Fan the stripes out — under the work-stealing scheduler this
     composes with a study's own configuration fan-out (idle domains
     steal stripe work from busy ones); under the flat pool a nested
     call runs inline — then reduce serially in replicate order: the
     merge sequence — hence the table — is bit-for-bit independent of
     the domain count and of the scheduler backend.  The engine
     amortizes work across a stripe's replicates, so the unit of
     parallel work is the whole stripe; flattening in stripe order
     preserves replicate order. *)
  let sz = stripe_size () in
  let stripes =
    Domain_pool.parallel_init (stripe_count ~replicates) (fun stripe ->
        let first = stripe * sz in
        let len = min sz (replicates - first) in
        let os = run_replicate_stripe ~scenario ~policies:policy_array ~first ~len in
        (match progress with
        | Some p -> for _ = 1 to len do Instrument.step p done
        | None -> ());
        os)
  in
  let outcomes = Array.concat (Array.to_list stripes) in
  (* Reduce through the same stripe structure the sweep store persists
     (within-stripe in replicate order, then across stripes in stripe
     order), so a table assembled from checkpointed stripe partials is
     bit-identical to this one. *)
  let names = Array.map (fun p -> p.Policy.name) policy_array in
  let partials =
    List.init (stripe_count ~replicates) (fun stripe ->
        let first = stripe * sz in
        partial_of_outcomes ~policy_names:names outcomes ~first
          ~len:(min sz (replicates - first)))
  in
  let table = table_of_partials partials in
  if owns_timers then begin
    let hits, misses = Scenario.cache_stats scenario in
    Instrument.info "trace cache: %d hits, %d misses" hits misses;
    Instrument.report ~label:"degradation_table" ()
  end;
  table

(* The Welford fold below is kept in the exact shape (and order) of
   the original [average_makespan], so the mean this returns is
   bit-identical to the historical column; the distributional profile
   rides along from the same runs. *)
let makespan_profile ~scenario ~policy ~replicates =
  let outcomes =
    Domain_pool.parallel_init replicates (fun replicate ->
        let traces = Scenario.traces scenario ~replicate in
        match Engine.run ~scenario ~traces ~policy () with
        | Engine.Completed m -> Some m
        | Engine.Policy_failed _ -> None)
  in
  let acc =
    Array.fold_left
      (fun acc -> function Some m -> Summary.add acc m.Engine.makespan | None -> acc)
      Summary.empty outcomes
  in
  let vector =
    Array.fold_left
      (fun v -> function
        (* No lower bound here, so no degradation: carry a neutral 1
           in that slot and blank its interval below. *)
        | Some m -> Summary.Vector.add v (observation_of_metrics ~degradation:1. m)
        | None -> v)
      (Summary.Vector.create ~dim:profile_dim)
      outcomes
  in
  match (Summary.count acc > 0, profile_of_vector vector) with
  | true, Some p -> Some (Summary.mean acc, { p with deg_ci95 = nan })
  | _ -> None

let average_makespan ~scenario ~policy ~replicates =
  Option.map fst (makespan_profile ~scenario ~policy ~replicates)

(* Distributional profile from bare waste decompositions — for studies
   that persist per-replicate component rows (e.g. the spares sweep)
   instead of full accumulators.  No degradation baseline, so the slot
   carries a neutral 1 and its interval is blanked, as in
   [makespan_profile]. *)
let profile_of_components rows =
  let vector =
    List.fold_left
      (fun v (mk, useful, ckpt, wasted, recovery, stall) ->
        let obs = Array.make profile_dim 0. in
        obs.(comp_makespan) <- mk;
        obs.(comp_useful) <- useful;
        obs.(comp_checkpoint) <- ckpt;
        obs.(comp_wasted) <- wasted;
        obs.(comp_recovery) <- recovery;
        obs.(comp_stall) <- stall;
        obs.(comp_degradation) <- 1.;
        Summary.Vector.add v obs)
      (Summary.Vector.create ~dim:profile_dim)
      rows
  in
  Option.map (fun p -> { p with deg_ci95 = nan }) (profile_of_vector vector)

(* A float cell that may be undefined (no successful run to average,
   or a single run with no defined deviation): print "n/a" instead of
   letting the NaN leak into the table. *)
let pp_cell ~width ~decimals fmt v =
  if Float.is_nan v then Format.fprintf fmt "%*s" width "n/a"
  else Format.fprintf fmt "%*.*f" width decimals v

let pp_result fmt r =
  Format.fprintf fmt "%-16s %a %a  %a s  %3d ok  %a fail (max %d)" r.policy_name
    (pp_cell ~width:8 ~decimals:5) r.average_degradation
    (pp_cell ~width:8 ~decimals:5) r.std_degradation
    (pp_cell ~width:10 ~decimals:0) r.average_makespan r.successes
    (pp_cell ~width:6 ~decimals:1) r.average_failures r.max_failures

let pp_profile_row fmt (r : policy_result) =
  match r.profile with
  | None -> Format.fprintf fmt "%-16s %8s" r.policy_name "n/a"
  | Some p ->
      Format.fprintf fmt "%-16s %a %a %a %a %a  %a %a %a  %a s" r.policy_name
        (pp_cell ~width:8 ~decimals:4) p.useful_frac
        (pp_cell ~width:8 ~decimals:4) p.checkpoint_frac
        (pp_cell ~width:8 ~decimals:4) p.wasted_frac
        (pp_cell ~width:8 ~decimals:4) p.recovery_frac
        (pp_cell ~width:8 ~decimals:4) p.stall_frac
        (pp_cell ~width:10 ~decimals:0) p.mk_p50
        (pp_cell ~width:10 ~decimals:0) p.mk_p95
        (pp_cell ~width:10 ~decimals:0) p.mk_p99
        (pp_cell ~width:8 ~decimals:0) p.mk_ci95

let pp_table fmt t =
  Format.fprintf fmt "%-16s %8s %8s  %12s  %5s  %s@." "policy" "avg-deg" "std" "avg-makespan"
    "runs" "failures";
  Format.fprintf fmt "%a@." pp_result t.lower_bound;
  List.iter (fun r -> Format.fprintf fmt "%a@." pp_result r) t.results;
  Format.fprintf fmt "(%d/%d usable trace sets)@." t.usable_replicates t.replicates;
  Format.fprintf fmt "waste breakdown (fractions of makespan; makespan p50/p95/p99, 95%% CI)@.";
  Format.fprintf fmt "%-16s %8s %8s %8s %8s %8s  %10s %10s %10s  %8s@." "policy" "useful"
    "ckpt" "wasted" "recovery" "stall" "p50" "p95" "p99" "ci95";
  Format.fprintf fmt "%a@." pp_profile_row t.lower_bound;
  List.iter (fun r -> Format.fprintf fmt "%a@." pp_profile_row r) t.results
