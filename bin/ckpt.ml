(* Command-line front end for the checkpointing library.

   Subcommands:
     period       optimal/heuristic checkpoint periods for a platform
     simulate     evaluate the full policy roster on simulated traces
     schedule     a policy's failure-free checkpoint timetable
     mtbf         platform MTBF under both rejuvenation options
     waste        first-order waste analysis (Young's back-of-envelope)
     trace        trace one execution: event timeline + metrics reconciliation
     explain      annotated decision timeline with expected-value rationale
     stats        run an evaluation with the metrics registry enabled
     trace-stats  generate traces and report their empirical statistics
     gen-log      write a synthetic LANL-style availability log
     fit-log      MLE-fit lifetime models to an availability log
     experiment   regenerate a paper table/figure by id
     sweep        run experiments against a resumable checkpoint store
     sched-report per-worker utilization breakdown of the steal scheduler
     bench        diff/check BENCH_*.json artifacts (regression tooling) *)

open Cmdliner
module D = Ckpt_distributions
module P = Ckpt_platform
module Po = Ckpt_policies
module S = Ckpt_simulator
module F = Ckpt_failures
module C = Ckpt_core
module E = Ckpt_experiments
module T = Ckpt_telemetry

(* -- shared argument bundles ------------------------------------------- *)

let mtbf_arg =
  let doc = "Per-processor MTBF in hours." in
  Arg.(value & opt float (125. *. 365.25 *. 24.) & info [ "mtbf" ] ~docv:"HOURS" ~doc)

let shape_arg =
  let doc = "Weibull shape parameter; omit for Exponential failures." in
  Arg.(value & opt (some float) None & info [ "shape"; "k" ] ~docv:"K" ~doc)

let processors_arg =
  let doc = "Number of processors enrolled by the job." in
  Arg.(value & opt int P.Presets.jaguar_processors & info [ "p"; "processors" ] ~docv:"P" ~doc)

let checkpoint_arg =
  let doc = "Checkpoint (and recovery) cost in seconds." in
  Arg.(value & opt float 600. & info [ "checkpoint"; "C" ] ~docv:"SECONDS" ~doc)

let downtime_arg =
  let doc = "Downtime after a failure, seconds." in
  Arg.(value & opt float 60. & info [ "downtime"; "D" ] ~docv:"SECONDS" ~doc)

let work_days_arg =
  let doc = "Failure-free execution time of the job on the chosen processors, in days." in
  Arg.(value & opt float 8. & info [ "work-days" ] ~docv:"DAYS" ~doc)

let traces_arg =
  let doc = "Number of simulated trace sets." in
  Arg.(value & opt int 10 & info [ "traces" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 0x5EED & info [ "seed" ] ~docv:"SEED" ~doc)

let distribution ~mtbf_hours ~shape =
  let mtbf = mtbf_hours *. 3600. in
  match shape with
  | None -> D.Exponential.of_mtbf ~mtbf
  | Some k -> D.Weibull.of_mtbf ~mtbf ~shape:k

let job ~mtbf_hours ~shape ~processors ~checkpoint ~downtime ~work_days =
  let dist = distribution ~mtbf_hours ~shape in
  let machine =
    P.Machine.create ~total_processors:processors ~downtime
      ~overhead:(P.Overhead.constant checkpoint)
  in
  Po.Job.create ~dist ~processors ~machine ~work_time:(work_days *. P.Units.day)

(* Shared by schedule/trace: a policy by its roster name.  The
   period-search policy needs the scenario (it tunes on traces). *)
let policy_of_name ?scenario job name =
  match String.lowercase_ascii name with
  | "young" -> Po.Young.policy job
  | "dalylow" -> Po.Daly.low job
  | "dalyhigh" -> Po.Daly.high job
  | "optexp" -> Po.Optexp.policy job
  | "bouguerra" -> Po.Bouguerra.policy job
  | "liu" -> Po.Liu.policy job
  | "dpnf" | "dpnextfailure" -> Po.Dp_policies.dp_next_failure job
  | "dpmakespan" -> Po.Dp_policies.dp_makespan job
  | "periodvariation" | "search" -> begin
      match scenario with
      | Some scenario -> S.Period_search.policy scenario
      | None -> failwith "the period-search policy needs simulated traces"
    end
  | other -> failwith (Printf.sprintf "unknown policy %S" other)

(* -- period ------------------------------------------------------------ *)

let period_cmd =
  let run mtbf_hours shape processors checkpoint downtime work_days =
    let job = job ~mtbf_hours ~shape ~processors ~checkpoint ~downtime ~work_days in
    Printf.printf "platform MTBF: %.0f s\n" (Po.Job.platform_mtbf job);
    Printf.printf "%-12s %12s\n" "policy" "period (s)";
    List.iter
      (fun (name, period) -> Printf.printf "%-12s %12.0f\n" name period)
      [
        ("Young", Po.Young.period job);
        ("DalyLow", Po.Daly.low_order_period job);
        ("DalyHigh", Po.Daly.high_order_period job);
        ("OptExp", Po.Optexp.period job);
        ("Bouguerra", Po.Bouguerra.period job);
      ];
    let k =
      C.Theory.parallel_optimal_chunk_count
        ~rate:(1. /. Po.Job.unit_mtbf job)
        ~processors ~parallel_work:job.Po.Job.work_time ~checkpoint
    in
    Printf.printf "OptExp chunk count K* = %d\n" k
  in
  let term =
    Term.(
      const run $ mtbf_arg $ shape_arg $ processors_arg $ checkpoint_arg $ downtime_arg
      $ work_days_arg)
  in
  Cmd.v (Cmd.info "period" ~doc:"Print each heuristic's checkpoint period.") term

(* -- simulate ------------------------------------------------------------ *)

let simulate_cmd =
  let run mtbf_hours shape processors checkpoint downtime work_days traces seed =
    let job = job ~mtbf_hours ~shape ~processors ~checkpoint ~downtime ~work_days in
    let scenario = S.Scenario.create ~seed:(Int64.of_int seed) job in
    let dp_makespan = shape = None in
    let policies =
      [ Po.Young.policy job; Po.Daly.low job; Po.Daly.high job; Po.Optexp.policy job;
        Po.Bouguerra.policy job; Po.Liu.policy job; S.Period_search.policy scenario;
        Po.Dp_policies.dp_next_failure job ]
      @ (if dp_makespan then [ Po.Dp_policies.dp_makespan job ] else [])
    in
    let table = S.Evaluation.degradation_table ~scenario ~policies ~replicates:traces in
    Format.printf "%a@." S.Evaluation.pp_table table
  in
  let term =
    Term.(
      const run $ mtbf_arg $ shape_arg $ processors_arg $ checkpoint_arg $ downtime_arg
      $ work_days_arg $ traces_arg $ seed_arg)
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Evaluate the policy roster on simulated failure traces.")
    term

(* -- mtbf ---------------------------------------------------------------- *)

let mtbf_cmd =
  let run mtbf_hours shape processors downtime =
    let dist = distribution ~mtbf_hours ~shape in
    List.iter
      (fun (name, policy) ->
        let v = F.Rejuvenation.platform_mtbf policy dist ~processors ~downtime in
        Printf.printf "%-22s %14.1f s  (%.4g h)\n" name v (v /. 3600.))
      [
        ("rejuvenate-all", F.Rejuvenation.Rejuvenate_all);
        ("rejuvenate-failed-only", F.Rejuvenation.Rejuvenate_failed_only);
      ]
  in
  let term = Term.(const run $ mtbf_arg $ shape_arg $ processors_arg $ downtime_arg) in
  Cmd.v
    (Cmd.info "mtbf" ~doc:"Platform MTBF under both rejuvenation options (Figure 1).")
    term

(* -- gen-log -------------------------------------------------------------- *)

let gen_log_cmd =
  let out_arg =
    Arg.(value & opt string "lanl_synth.log" & info [ "o"; "output" ] ~docv:"PATH")
  in
  let cluster_arg =
    Arg.(value & opt int 19 & info [ "cluster" ] ~docv:"18|19")
  in
  let run out cluster seed =
    let params =
      match cluster with
      | 18 -> F.Lanl_synth.cluster18_parameters
      | 19 -> F.Lanl_synth.cluster19_parameters
      | _ -> failwith "cluster must be 18 or 19"
    in
    let log = F.Lanl_synth.generate ~seed:(Int64.of_int seed) params in
    F.Failure_log.save log
      ~node_of_interval:(fun i -> i / params.F.Lanl_synth.intervals_per_node)
      out;
    Printf.printf "wrote %d intervals over %d nodes to %s (mean interval %.3e s)\n"
      (F.Failure_log.count log) log.F.Failure_log.nodes out (F.Failure_log.mean_interval log)
  in
  let term = Term.(const run $ out_arg $ cluster_arg $ seed_arg) in
  Cmd.v (Cmd.info "gen-log" ~doc:"Write a synthetic LANL-style availability log.") term

(* -- schedule ------------------------------------------------------------------ *)

let schedule_cmd =
  let policy_arg =
    let doc = "Policy: young | dalylow | dalyhigh | optexp | bouguerra | liu | dpnf." in
    Arg.(value & opt string "dpnf" & info [ "policy" ] ~docv:"NAME" ~doc)
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"CSV")
  in
  let run mtbf_hours shape processors checkpoint downtime work_days policy_name out =
    let job = job ~mtbf_hours ~shape ~processors ~checkpoint ~downtime ~work_days in
    let policy = policy_of_name job policy_name in
    let entries = Po.Schedule.failure_free policy job in
    (match Po.Schedule.interval_range entries with
    | None -> print_endline "the policy declines to produce a timetable"
    | Some (lo, hi) ->
        Printf.printf "%d checkpoints; intervals %.0f .. %.0f s\n" (List.length entries) lo hi;
        List.iteri
          (fun i e ->
            if i < 10 then
              Printf.printf "  #%-3d work %8.0f s, checkpoint at t = %10.0f s\n" (i + 1)
                e.Po.Schedule.chunk e.Po.Schedule.checkpoint_at)
          entries;
        if List.length entries > 10 then
          Printf.printf "  ... (%d more)\n" (List.length entries - 10));
    match out with
    | None -> ()
    | Some path ->
        Ckpt_store.Atomic_file.write ~path (Po.Schedule.to_csv entries);
        Printf.printf "wrote %s\n" path
  in
  let term =
    Term.(
      const run $ mtbf_arg $ shape_arg $ processors_arg $ checkpoint_arg $ downtime_arg
      $ work_days_arg $ policy_arg $ out_arg)
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Print a policy's failure-free checkpoint timetable.")
    term

(* -- waste ------------------------------------------------------------------- *)

let waste_cmd =
  let run mtbf_hours processors checkpoint =
    let mu = mtbf_hours *. 3600. in
    let m = mu /. float_of_int processors in
    let period = C.Waste.optimal_period ~checkpoint ~platform_mtbf:m in
    Printf.printf "platform MTBF:        %14.0f s\n" m;
    Printf.printf "first-order period:   %14.0f s   (Young)\n" period;
    Printf.printf "minimal waste:        %14.1f %%\n"
      (100. *. C.Waste.minimal_waste ~checkpoint ~platform_mtbf:m);
    Printf.printf "usable-processor cap: %14d    (waste reaches 100%%)\n"
      (C.Waste.usable_processor_limit ~checkpoint ~processor_mtbf:mu)
  in
  let term = Term.(const run $ mtbf_arg $ processors_arg $ checkpoint_arg) in
  Cmd.v
    (Cmd.info "waste" ~doc:"First-order waste analysis of periodic checkpointing.")
    term

(* -- trace-stats --------------------------------------------------------------- *)

let trace_stats_cmd =
  let horizon_arg =
    Arg.(value & opt float 11. & info [ "horizon-years" ] ~docv:"YEARS")
  in
  let run mtbf_hours shape processors seed horizon_years =
    let dist = distribution ~mtbf_hours ~shape in
    let traces =
      F.Trace_set.generate ~seed:(Int64.of_int seed) ~replicate:0 dist ~processors
        ~horizon:(horizon_years *. P.Units.year)
    in
    Format.printf "%a@." F.Trace_stats.pp (F.Trace_stats.measure traces);
    let fit = D.Fit.best_fit (F.Trace_stats.interarrivals traces) in
    Format.printf "best distribution fit: %s (KS %.4f)@."
      fit.D.Fit.distribution.D.Distribution.name fit.D.Fit.ks_statistic
  in
  let term =
    Term.(const run $ mtbf_arg $ shape_arg $ processors_arg $ seed_arg $ horizon_arg)
  in
  Cmd.v
    (Cmd.info "trace-stats"
       ~doc:"Generate failure traces and report their empirical statistics and best fit.")
    term

(* -- fit-log ----------------------------------------------------------------- *)

let fit_log_cmd =
  let path_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"LOG") in
  let run path =
    let log = F.Failure_log.load path in
    Printf.printf "%s: %d availability intervals over %d nodes, mean %.4g s\n\n" path
      (F.Failure_log.count log) log.F.Failure_log.nodes (F.Failure_log.mean_interval log);
    let data = log.F.Failure_log.intervals in
    Printf.printf "%-14s %14s %12s %10s\n" "model" "log-likelihood" "AIC" "KS";
    List.iter
      (fun (name, fit) ->
        Printf.printf "%-14s %14.1f %12.1f %10.4f   %s\n" name fit.D.Fit.log_likelihood
          fit.D.Fit.aic fit.D.Fit.ks_statistic
          fit.D.Fit.distribution.D.Distribution.name)
      [
        ("exponential", D.Fit.exponential data);
        ("weibull", D.Fit.weibull data);
        ("lognormal", D.Fit.lognormal data);
      ];
    let best = D.Fit.best_fit data in
    Printf.printf "\nbest fit by AIC: %s\n" best.D.Fit.distribution.D.Distribution.name
  in
  let term = Term.(const run $ path_arg) in
  Cmd.v
    (Cmd.info "fit-log"
       ~doc:"Fit Exponential/Weibull/LogNormal models to an availability log by MLE.")
    term

(* -- trace ------------------------------------------------------------------- *)

let trace_cmd =
  let policy_arg =
    let doc =
      "Policy: young | dalylow | dalyhigh | optexp | bouguerra | liu | dpnf | dpmakespan | \
       search."
    in
    Arg.(value & opt string "dpnf" & info [ "policy" ] ~docv:"NAME" ~doc)
  in
  let replicate_arg =
    Arg.(value & opt int 0 & info [ "replicate" ] ~docv:"N" ~doc:"Trace-set replicate index.")
  in
  let out_arg =
    let doc = "Write the trace (*.jsonl, or Chrome trace_event JSON otherwise)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH" ~doc)
  in
  let limit_arg =
    Arg.(value & opt int 40 & info [ "limit" ] ~docv:"N" ~doc:"Timeline events to print.")
  in
  let run mtbf_hours shape processors checkpoint downtime work_days seed policy_name replicate
      out limit =
    let job = job ~mtbf_hours ~shape ~processors ~checkpoint ~downtime ~work_days in
    let scenario = S.Scenario.create ~seed:(Int64.of_int seed) job in
    let policy = policy_of_name ~scenario job policy_name in
    let traces = S.Scenario.traces scenario ~replicate in
    let buf =
      T.Tracer.create_buffer
        ~name:(Printf.sprintf "rep%d/%s" replicate policy.Po.Policy.name)
        ()
    in
    (match S.Engine.run ~trace:buf ~scenario ~traces ~policy () with
    | S.Engine.Policy_failed { at_time; remaining } ->
        Printf.printf "%s failed at t = %.0f s with %.0f s of work left\n"
          policy.Po.Policy.name at_time remaining
    | S.Engine.Completed m ->
        let open S.Engine in
        Printf.printf "%s: makespan %.0f s\n" policy.Po.Policy.name m.makespan;
        List.iter
          (fun (label, v) ->
            Printf.printf "  %-16s %14.1f s  (%5.1f%%)\n" label v (100. *. v /. m.makespan))
          [
            ("useful work", m.useful_work);
            ("checkpoints", m.checkpoint_time);
            ("wasted", m.wasted_time);
            ("recoveries", m.recovery_time);
            ("downtime stalls", m.stall_time);
          ];
        Printf.printf "  %d failures, %d chunks (%.0f .. %.0f s)\n" m.failures m.chunks
          m.min_chunk m.max_chunk;
        let t = T.Tracer.totals buf in
        Printf.printf
          "trace: %d events (%d dropped); spans sum to work %.1f, checkpoint %.1f, waste \
           %.1f, recovery %.1f, downtime %.1f\n"
          (T.Tracer.length buf) (T.Tracer.dropped buf) t.T.Tracer.work t.T.Tracer.checkpoint
          t.T.Tracer.waste t.T.Tracer.recovery t.T.Tracer.downtime);
    Format.printf "%a@." (T.Tracer.pp_timeline ~limit) buf;
    match out with
    | None -> ()
    | Some path ->
        T.Trace_export.write ~path [ buf ];
        T.Provenance.write_sidecar
          ~extra:
            [
              ("policy", policy.Po.Policy.name);
              ("replicate", string_of_int replicate);
              ("seed", string_of_int seed);
            ]
          ~path ();
        Printf.printf "wrote %s (and %s)\n" path (T.Provenance.sidecar_path path)
  in
  let term =
    Term.(
      const run $ mtbf_arg $ shape_arg $ processors_arg $ checkpoint_arg $ downtime_arg
      $ work_days_arg $ seed_arg $ policy_arg $ replicate_arg $ out_arg $ limit_arg)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Trace one execution: typed event timeline, waste breakdown, trace_event export.")
    term

(* -- explain ------------------------------------------------------------------ *)

let explain_cmd =
  let policy_arg =
    let doc =
      "Policy: young | dalylow | dalyhigh | optexp | bouguerra | liu | dpnf | dpmakespan | \
       search."
    in
    Arg.(value & opt string "dpnf" & info [ "policy" ] ~docv:"NAME" ~doc)
  in
  let replicate_arg =
    Arg.(value & opt int 0 & info [ "replicate" ] ~docv:"N" ~doc:"Trace-set replicate index.")
  in
  let limit_arg =
    Arg.(
      value & opt int 20
      & info [ "limit" ] ~docv:"N" ~doc:"Decisions to annotate (negative for all).")
  in
  let out_arg =
    let doc = "Also write the transcript to a file (with a provenance sidecar)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH" ~doc)
  in
  let run mtbf_hours shape processors checkpoint downtime work_days seed policy_name replicate
      limit out =
    let job = job ~mtbf_hours ~shape ~processors ~checkpoint ~downtime ~work_days in
    let scenario = S.Scenario.create ~seed:(Int64.of_int seed) job in
    let policy = policy_of_name ~scenario job policy_name in
    let explained = S.Explain.run ~scenario ~policy ~replicate in
    let transcript = Format.asprintf "%a" (S.Explain.print ~limit) explained in
    print_endline transcript;
    (match explained.S.Explain.outcome with
    | S.Engine.Completed _ when not (S.Explain.reconciles explained) ->
        if explained.S.Explain.dropped = 0 then begin
          prerr_endline "ckpt explain: trace totals do not reconcile with engine metrics";
          exit 1
        end
    | _ -> ());
    match out with
    | None -> ()
    | Some path ->
        Ckpt_store.Atomic_file.write ~path (transcript ^ "\n");
        T.Provenance.write_sidecar
          ~extra:
            [
              ("policy", policy.Po.Policy.name);
              ("replicate", string_of_int replicate);
              ("seed", string_of_int seed);
            ]
          ~path ();
        Printf.printf "wrote %s (and %s)\n" path (T.Provenance.sidecar_path path)
  in
  let term =
    Term.(
      const run $ mtbf_arg $ shape_arg $ processors_arg $ checkpoint_arg $ downtime_arg
      $ work_days_arg $ seed_arg $ policy_arg $ replicate_arg $ limit_arg $ out_arg)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Replay one execution and annotate every policy decision with its expected-value \
          rationale (platform hazard, expected time to next failure, commit probability) and \
          realized outcome, plus a waste-decomposition footer reconciled bitwise against the \
          event stream.")
    term

(* -- stats ------------------------------------------------------------------- *)

let stats_cmd =
  let run mtbf_hours shape processors checkpoint downtime work_days traces seed =
    T.Metrics.set_enabled true;
    let job = job ~mtbf_hours ~shape ~processors ~checkpoint ~downtime ~work_days in
    let scenario = S.Scenario.create ~seed:(Int64.of_int seed) job in
    let dp_makespan = shape = None in
    let policies =
      [ Po.Young.policy job; Po.Daly.low job; Po.Daly.high job; Po.Optexp.policy job;
        Po.Bouguerra.policy job; Po.Liu.policy job; S.Period_search.policy scenario;
        Po.Dp_policies.dp_next_failure job ]
      @ (if dp_makespan then [ Po.Dp_policies.dp_makespan job ] else [])
    in
    let table = S.Evaluation.degradation_table ~scenario ~policies ~replicates:traces in
    Format.printf "%a@." S.Evaluation.pp_table table;
    Format.printf "metrics registry:@.%a@." T.Metrics.pp_snapshot (T.Metrics.snapshot ())
  in
  let term =
    Term.(
      const run $ mtbf_arg $ shape_arg $ processors_arg $ checkpoint_arg $ downtime_arg
      $ work_days_arg $ traces_arg $ seed_arg)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Evaluate the policy roster with the metrics registry enabled and print every \
          counter, timer and histogram.")
    term

(* -- sched-report ------------------------------------------------------------ *)

(* Run a stage-6-shaped nested workload under the steal scheduler with
   the flight recorder armed, then break each worker's wall time down
   by state.  This is the triage tool for ROADMAP open item 5: the
   dominant-overhead line names which of the three candidate causes
   (failed steals, parking churn, injector contention) actually costs
   time on this machine. *)
let sched_report_cmd =
  let configs_arg =
    let doc =
      "Processor counts, one nested evaluation per entry (the skew mirrors bench stage 6)."
    in
    Arg.(
      value
      & opt (list int) [ 512; 512; 1024; 1024; 2048; 4096 ]
      & info [ "configs" ] ~docv:"P,P,..." ~doc)
  in
  let replicates_arg =
    Arg.(value & opt int 16 & info [ "traces" ] ~docv:"N" ~doc:"Replicates per configuration.")
  in
  let out_arg =
    let doc = "Also export the recording as a Chrome trace_event file (chrome://tracing)." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"PATH" ~doc)
  in
  let run configs replicates out =
    if configs = [] then begin
      prerr_endline "ckpt sched-report: empty --configs";
      exit 2
    end;
    (* The recorder instruments the steal backend only, and the steal
       backend only engages with >= 2 domains — on a 1-core host the
       report still has to show scheduler behavior, not the inline
       fallback. *)
    Unix.putenv "CKPT_SCHED" "steal";
    T.Flight_recorder.set_enabled true;
    let domains = max 2 (Ckpt_parallel.Domain_pool.recommended_domains ()) in
    Unix.putenv "CKPT_DOMAINS" (string_of_int domains);
    let weibull = D.Weibull.of_mtbf ~mtbf:(P.Units.of_years 125.) ~shape:0.7 in
    let mini_job p =
      Po.Job.create ~dist:weibull ~processors:p
        ~machine:
          (P.Machine.create ~total_processors:p ~downtime:60.
             ~overhead:(P.Overhead.constant 600.))
        ~work_time:(P.Units.of_years 1000. /. float_of_int p)
    in
    let t0 = Unix.gettimeofday () in
    let tables =
      Ckpt_parallel.Domain_pool.parallel_map_list
        (fun p ->
          let job = mini_job p in
          let scenario = S.Scenario.create job in
          let policies = [ Po.Young.policy job; Po.Daly.high job; Po.Optexp.policy job ] in
          S.Evaluation.degradation_table ~scenario ~policies ~replicates)
        configs
    in
    let wall = Unix.gettimeofday () -. t0 in
    Printf.printf "sched-report: %d configurations x %d replicates x 3 policies, %d domains, %.2f s wall\n\n"
      (List.length tables) replicates domains wall;
    let reports =
      List.filter (fun r -> r.T.Flight_recorder.wr_wall > 0.) (T.Flight_recorder.report ())
    in
    if reports = [] then begin
      prerr_endline "ckpt sched-report: no spans recorded (workload too small?)";
      exit 1
    end;
    let pct r s = 100. *. T.Flight_recorder.state_seconds r s /. r.T.Flight_recorder.wr_wall in
    Printf.printf "%-11s %8s %6s %6s %6s %6s %6s %7s %12s\n" "worker" "wall s" "run%" "help%"
      "steal%" "fail%" "park%" "inject%" "attributed%";
    let min_attr = ref infinity in
    List.iter
      (fun r ->
        let attr = 100. *. r.T.Flight_recorder.wr_attributed /. r.T.Flight_recorder.wr_wall in
        min_attr := Float.min !min_attr attr;
        Printf.printf "%-11s %8.3f %6.1f %6.1f %6.1f %6.1f %6.1f %7.1f %12.1f%s\n"
          r.T.Flight_recorder.wr_name r.T.Flight_recorder.wr_wall
          (pct r T.Flight_recorder.Run_task)
          (pct r T.Flight_recorder.Join_help)
          (pct r T.Flight_recorder.Steal_success)
          (pct r T.Flight_recorder.Steal_attempt)
          (pct r T.Flight_recorder.Park)
          (pct r T.Flight_recorder.Inject)
          attr
          (if r.T.Flight_recorder.wr_dropped > 0 then
             Printf.sprintf "  (%d spans dropped)" r.T.Flight_recorder.wr_dropped
           else ""))
      reports;
    (match T.Flight_recorder.overheads reports with
    | dominant :: rest ->
        Printf.printf "\ndominant overhead: %s (%.3f s across %d workers%s)\n"
          dominant.T.Flight_recorder.ov_label dominant.T.Flight_recorder.ov_seconds
          (List.length reports)
          (String.concat ""
             (List.map
                (fun o ->
                  Printf.sprintf "; %s %.3f s" o.T.Flight_recorder.ov_label
                    o.T.Flight_recorder.ov_seconds)
                rest))
    | [] -> ());
    Printf.printf "min attribution: %.1f%% (target >= 95%%)\n" !min_attr;
    match out with
    | Some path ->
        T.Trace_export.write_flight ~path (T.Flight_recorder.tracks ());
        Printf.printf "wrote %s\n%!" path
    | None -> ()
  in
  let term = Term.(const run $ configs_arg $ replicates_arg $ out_arg) in
  Cmd.v
    (Cmd.info "sched-report"
       ~doc:
         "Run a nested evaluation workload with the scheduler flight recorder armed and print \
          a per-worker busy/steal/idle utilization breakdown naming the dominant overhead.")
    term

(* -- bench diff / bench check ------------------------------------------------ *)

let bench_diff_cmd =
  let old_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"OLD.json") in
  let new_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW.json") in
  let threshold_arg =
    let doc =
      "Override every per-metric threshold (relative percent for rates/times, percentage \
       points for *_percent metrics)."
    in
    Arg.(value & opt (some float) None & info [ "threshold" ] ~docv:"PCT" ~doc)
  in
  let run old_path new_path threshold =
    match T.Bench_compare.diff ?threshold ~old_path ~new_path () with
    | Error msg ->
        Printf.eprintf "ckpt bench diff: %s\n" msg;
        exit T.Bench_compare.exit_error
    | Ok v ->
        (* Machine-readable verdict on stdout, human summary on stderr. *)
        print_endline (T.Json.to_string ~pretty:true (T.Bench_compare.verdict_json v));
        List.iter
          (fun m -> Printf.eprintf "incomparable: %s\n" m)
          v.T.Bench_compare.v_config_mismatches;
        List.iter
          (fun c ->
            if c.T.Bench_compare.c_regressed || c.T.Bench_compare.c_improved then
              Printf.eprintf "%s %s: %g -> %g (%+.1f%s, threshold %g)\n"
                (if c.T.Bench_compare.c_regressed then "REGRESSION" else "improvement")
                c.T.Bench_compare.c_metric c.T.Bench_compare.c_old c.T.Bench_compare.c_new
                c.T.Bench_compare.c_delta
                (match c.T.Bench_compare.c_direction with
                | T.Bench_compare.Lower_better_pp -> "pp"
                | _ -> "%")
                c.T.Bench_compare.c_threshold)
          v.T.Bench_compare.v_comparisons;
        exit (T.Bench_compare.exit_code v)
  in
  let term = Term.(const run $ old_arg $ new_arg $ threshold_arg) in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two BENCH_*.json artifacts provenance-aware: per-metric thresholds, \
          machine-readable verdict on stdout, nonzero exit on regression, distinct exit \
          code (3) when the sidecars disagree on core count or scheduler backend.")
    term

let bench_check_cmd =
  let dir_arg =
    Arg.(value & pos 0 string "." & info [] ~docv:"DIR" ~doc:"Directory holding BENCH_*.json.")
  in
  let run dir =
    let results = T.Bench_compare.check ~dir in
    if results = [] then begin
      Printf.eprintf "ckpt bench check: no BENCH_*.json under %s\n" dir;
      exit T.Bench_compare.exit_error
    end;
    let failed = ref false in
    List.iter
      (fun (path, problems) ->
        match problems with
        | [] -> (
            (* A clean artifact must also survive self-comparison. *)
            match T.Bench_compare.diff ~old_path:path ~new_path:path () with
            | Ok v when T.Bench_compare.exit_code v = 0 -> Printf.printf "ok  %s\n" path
            | Ok v ->
                failed := true;
                Printf.printf "BAD %s: self-diff exit %d\n" path (T.Bench_compare.exit_code v)
            | Error msg ->
                failed := true;
                Printf.printf "BAD %s: self-diff failed: %s\n" path msg)
        | problems ->
            failed := true;
            List.iter (fun p -> Printf.printf "BAD %s\n" p) problems)
      results;
    exit (if !failed then T.Bench_compare.exit_regression else 0)
  in
  let term = Term.(const run $ dir_arg) in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Validate every BENCH_*.json in a directory: parseable, named bench, provenance \
          sidecar present, and self-comparison clean.")
    term

let bench_cmd =
  Cmd.group
    (Cmd.info "bench"
       ~doc:"Bench-trajectory tooling: diff two artifacts, or sanity-check a directory.")
    [ bench_diff_cmd; bench_check_cmd ]

(* -- experiment ------------------------------------------------------------ *)

let experiment_cmd =
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID")
  in
  let full_arg = Arg.(value & flag & info [ "full" ] ~doc:"Paper-scale parameters.") in
  let run id full traces =
    let config = E.Config.default () in
    let config =
      {
        config with
        E.Config.full = config.E.Config.full || full;
        replicates = (if traces > 0 then traces else config.E.Config.replicates);
      }
    in
    if id = "all" then E.Registry.run_all config
    else begin
      match E.Registry.find id with
      | Some e -> e.E.Registry.run config
      | None ->
          Printf.eprintf "unknown experiment %S; known: %s\n" id
            (String.concat ", " (E.Registry.ids ()));
          exit 2
    end
  in
  let traces_arg =
    Arg.(value & opt int 0 & info [ "traces" ] ~docv:"N" ~doc:"Replicates per configuration.")
  in
  let term = Term.(const run $ id_arg $ full_arg $ traces_arg) in
  Cmd.v (Cmd.info "experiment" ~doc:"Regenerate a paper table/figure by id (or 'all').") term

(* -- sweep ----------------------------------------------------------------- *)

let sweep_cmd =
  let ids_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (default: all).")
  in
  let resume_arg =
    let doc =
      "Checkpoint-store directory: completed (experiment, scenario, replicate-stripe) units \
       are persisted here and skipped on re-run, so an interrupted sweep resumes where it \
       left off with bit-identical output.  Defaults to $(b,CKPT_SWEEP_DIR)."
    in
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"DIR" ~doc)
  in
  let full_arg = Arg.(value & flag & info [ "full" ] ~doc:"Paper-scale parameters.") in
  let traces_arg =
    Arg.(value & opt int 0 & info [ "traces" ] ~docv:"N" ~doc:"Replicates per configuration.")
  in
  let workers_arg =
    let doc =
      "Worker processes claiming units from the shared store (claim markers arbitrate, no \
       coordinator); the parent then merges in canonical order, so output is byte-identical \
       to $(b,--workers 1).  Defaults to $(b,CKPT_SWEEP_WORKERS) (else 1)."
    in
    Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N" ~doc)
  in
  let run_ids config ids =
    match ids with
    | [] | [ "all" ] -> E.Registry.run_all config
    | ids ->
        List.iter
          (fun id ->
            match E.Registry.find id with
            | Some e -> e.E.Registry.run config
            | None ->
                Printf.eprintf "unknown experiment %S; known: %s\n" id
                  (String.concat ", " (E.Registry.ids ()));
                exit 2)
          ids
  in
  let print_stats ~label (s : E.Sweep_store.stats) =
    Printf.printf
      "%s: %d units skipped, %d computed, %d invalidated, %d claimed, %d busy, %d reaped\n%!"
      label s.E.Sweep_store.skipped s.E.Sweep_store.computed s.E.Sweep_store.invalidated
      s.E.Sweep_store.claimed s.E.Sweep_store.busy s.E.Sweep_store.reaped
  in
  let run ids resume full traces workers =
    let config = E.Config.default () in
    let dir =
      match resume with
      | Some d -> d
      | None -> (
          match config.E.Config.sweep_dir with
          | Some d -> d
          | None ->
              prerr_endline "ckpt sweep: pass --resume DIR (or set CKPT_SWEEP_DIR)";
              exit 2)
    in
    let replicates = if traces > 0 then traces else config.E.Config.replicates in
    let config =
      {
        config with
        E.Config.full = config.E.Config.full || full;
        replicates;
        sweep_dir = Some dir;
      }
    in
    let store = E.Sweep_store.create ~dir in
    E.Sweep_store.reset_stats ();
    match E.Sweep_workers.worker_index () with
    | Some index ->
        (* Child process spawned by the parent below: compute claimed
           units, write the stats file, and exit — the parent renders
           all output. *)
        E.Sweep_workers.run_as_worker ~store ~index (fun () -> run_ids config ids)
    | None ->
        let workers =
          match workers with Some n -> n | None -> E.Sweep_workers.default_workers ()
        in
        if workers < 1 then begin
          prerr_endline "ckpt sweep: --workers must be >= 1";
          exit 2
        end;
        if workers > 1 then begin
          (* Respawn this exact invocation as marked worker children;
             explicit --traces/--full pin the resolved values so the
             children cannot drift from the parent's config. *)
          let args =
            Array.of_list
              (Sys.argv.(0) :: "sweep" :: "--resume" :: dir :: "--traces"
               :: string_of_int replicates
               :: ((if config.E.Config.full then [ "--full" ] else []) @ ids))
          in
          Printf.printf "sweep: launching %d workers over %s\n%!" workers dir;
          let summary =
            E.Sweep_workers.launch ~store ~workers ~exe:Sys.executable_name ~args
              ~progress:(fun ~alive ~units ->
                Printf.printf "sweep: %d units in store, %d workers running\n%!" units
                  alive)
              ()
          in
          List.iter
            (fun r ->
              let status =
                match r.E.Sweep_workers.r_outcome with
                | E.Sweep_workers.Finished -> "finished"
                | E.Sweep_workers.Failed n -> Printf.sprintf "FAILED (exit %d)" n
                | E.Sweep_workers.Signaled s -> Printf.sprintf "KILLED (signal %d)" s
              in
              let counts =
                match r.E.Sweep_workers.r_stats with
                | Some s ->
                    Printf.sprintf "%d computed, %d skipped, %d busy, %d reaped"
                      s.E.Sweep_store.computed s.E.Sweep_store.skipped
                      s.E.Sweep_store.busy s.E.Sweep_store.reaped
                | None -> "no stats file"
              in
              Printf.printf "sweep: worker %d (pid %d) %s in %.1fs: %s\n%!"
                r.E.Sweep_workers.r_index r.E.Sweep_workers.r_pid status
                r.E.Sweep_workers.r_seconds counts)
            summary.E.Sweep_workers.workers;
          if summary.E.Sweep_workers.crashed > 0 then
            Printf.printf
              "sweep: %d worker(s) crashed; %d leftover claim(s) reaped — the merge pass \
               below recomputes whatever they left unfinished\n%!"
              summary.E.Sweep_workers.crashed summary.E.Sweep_workers.claims_reaped;
          E.Sweep_store.reset_stats ()
        end;
        (* The canonical pass: with workers it loads what they computed
           and fills any holes; alone it is the whole sweep. *)
        run_ids config ids;
        print_stats ~label:(Printf.sprintf "sweep store %s" dir) (E.Sweep_store.stats ())
  in
  let term = Term.(const run $ ids_arg $ resume_arg $ full_arg $ traces_arg $ workers_arg) in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run experiments against a resumable checkpoint store: interrupt freely, re-run \
          with the same $(b,--resume) directory, and only incomplete units are recomputed.")
    term

let () =
  (* Arm the periodic metrics sampler / exit-time exposition when
     CKPT_METRICS_INTERVAL or CKPT_METRICS_OUT asks for it; a no-op
     otherwise. *)
  T.Metrics_export.ensure_sampler ();
  let doc = "Checkpointing strategies for parallel jobs (Bougeret et al., SC'11 reproduction)" in
  let info = Cmd.info "ckpt" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            period_cmd; simulate_cmd; schedule_cmd; mtbf_cmd; waste_cmd; trace_cmd;
            explain_cmd; stats_cmd; trace_stats_cmd; gen_log_cmd; fit_log_cmd; experiment_cmd;
            sweep_cmd; sched_report_cmd; bench_cmd;
          ]))
