(* One pass of one benchmark workload, in a fresh process.

   perfbench/run.py execs this driver once per pass, so no domain,
   trace cache or DP table survives from one pass into the next.  The
   driver sees only the workload name and the seed; the seed reaches
   the scenarios through [Config.seed] -> [Setup.scenario] ->
   [Scenario.create ~seed], the same path every registry entry uses.

   Phases:
   - [setup]: build the scenarios and policy rosters, report [setup_s].
   - [run]: set up, evaluate every table through [Sweep_store] over
     [--store], render the tables and CSVs.  Run against an empty store
     it is the cold pass; against the store a cold pass completed it is
     the resume pass (it then computes no unit).
   - [traced]: the same tables, with spans around the benchmark's own
     calls into each layer and a timing wrapper around every policy
     (see the README).  Nothing inside lib/ is instrumented.

   The result is one JSON object written to [--out]; stdout carries the
   rendered report, exactly as the registry entry prints it. *)

let t_start = Unix.gettimeofday ()
let gc_start = Gc.quick_stat ()

module E = Ckpt_experiments
module S = Ckpt_simulator
module P = Ckpt_platform
module Po = Ckpt_policies
module F = Ckpt_failures
module Pool = Ckpt_parallel.Domain_pool
module Metrics = Ckpt_telemetry.Metrics
module Json = Ckpt_telemetry.Json
module Atomic_file = Ckpt_store.Atomic_file

let now = Unix.gettimeofday

(* -- spans -------------------------------------------------------------------

   Kept in memory and written out with the result.  Each span records
   the process-wide [Gc.quick_stat] deltas over its interval, so two
   spans running at once on two domains can both count one collection. *)

type span = {
  id : int;
  parent : int;
  name : string;
  domain : int;
  t0 : float;
  t1 : float;
  minor_words : float;
  minor_collections : int;
  major_collections : int;
}

let tracing = ref false
let next_id = Atomic.make 1
let spans_lock = Mutex.create ()
let spans : span list ref = ref []
let current : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

(* [parent] is explicit for spans opened inside a parallel task, which
   may run on another domain than the span that forked it. *)
let span ?parent name f =
  if not !tracing then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let outer = Domain.DLS.get current in
    let parent = Option.value parent ~default:outer in
    Domain.DLS.set current id;
    let g0 = Gc.quick_stat () in
    let t0 = now () in
    Fun.protect f ~finally:(fun () ->
        let t1 = now () in
        let g1 = Gc.quick_stat () in
        Domain.DLS.set current outer;
        let s =
          {
            id;
            parent;
            name;
            domain = (Domain.self () :> int);
            t0;
            t1;
            minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
            minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
            major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
          }
        in
        Mutex.protect spans_lock (fun () -> spans := s :: !spans))
  end

let current_span () = Domain.DLS.get current

(* -- policy timing wrapper ---------------------------------------------------

   Wraps every instance and the pure-scalar [decide] function of a
   policy; the wrapped function returns the policy's answer unchanged.
   Per-domain tallies, merged after the pass. *)

type tally = { mutable decisions : int; mutable seconds : float }

let tallies_lock = Mutex.create ()
let all_tallies : (string, tally) Hashtbl.t list ref = ref []

let tallies_key =
  Domain.DLS.new_key (fun () ->
      let h = Hashtbl.create 16 in
      Mutex.protect tallies_lock (fun () -> all_tallies := h :: !all_tallies);
      h)

let timed name (f : Po.Policy.instance) : Po.Policy.instance =
 fun obs ->
  let t0 = now () in
  let answer = f obs in
  let dt = now () -. t0 in
  let h = Domain.DLS.get tallies_key in
  let t =
    match Hashtbl.find_opt h name with
    | Some t -> t
    | None ->
        let t = { decisions = 0; seconds = 0. } in
        Hashtbl.add h name t;
        t
  in
  t.decisions <- t.decisions + 1;
  t.seconds <- t.seconds +. dt;
  answer

let wrap (p : Po.Policy.t) =
  {
    p with
    Po.Policy.instantiate = (fun () -> timed p.Po.Policy.name (p.Po.Policy.instantiate ()));
    decide = Option.map (timed p.Po.Policy.name) p.Po.Policy.decide;
  }

let tally name =
  List.fold_left
    (fun (n, s) h ->
      match Hashtbl.find_opt h name with
      | Some t -> (n + t.decisions, s +. t.seconds)
      | None -> (n, s))
    (0, 0.) !all_tallies

(* -- workloads --------------------------------------------------------------- *)

(* The optional members of the Section 4.1 roster, as [Setup.policies]
   takes them. *)
type roster = {
  dp_makespan : bool;
  dp_next_failure : bool;
  liu : bool;
  bouguerra : bool;
  period_lb : bool;
}

let full_roster =
  { dp_makespan = false; dp_next_failure = true; liu = true; bouguerra = true; period_lb = true }

let periodic_roster =
  { dp_makespan = false; dp_next_failure = false; liu = false; bouguerra = false; period_lb = false }

type point = {
  label : string;  (** table name in the result *)
  experiment : string;  (** store key, as the registry entry names it *)
  abscissa : float;
  scenario : E.Config.t -> S.Scenario.t;
}

type render = Scaling of { title : string; csv : string } | Sequential of { dist : string }

type workload = {
  name : string;
  replicates : int;
  roster : roster;
  params : (string * string) list;
  points : point list;
  render : render;
}

let weibull = E.Setup.Weibull 0.7

(* A scaling study point set, keyed and titled as [Scaling_study.run]
   keys and titles it. *)
let scaling ~name ~experiment ~preset ~counts ~replicates ~roster ~csv =
  let model = P.Workload.Embarrassingly_parallel in
  let dist = E.Setup.distribution weibull ~mtbf:preset.P.Presets.processor_mtbf in
  let title =
    Printf.sprintf "%s platform, %s failures, %s, %s" preset.P.Presets.label
      (E.Setup.dist_kind_name weibull) (P.Workload.model_name model)
      (Format.asprintf "%a" P.Overhead.pp preset.P.Presets.machine.P.Machine.overhead)
  in
  {
    name;
    replicates;
    roster;
    params =
      [
        ("preset", preset.P.Presets.label);
        ("dist_kind", E.Setup.dist_kind_name weibull);
        ("workload", P.Workload.model_name model);
      ];
    points =
      List.map
        (fun processors ->
          {
            label = Printf.sprintf "p%d" processors;
            experiment = Printf.sprintf "%s_p%d" experiment processors;
            abscissa = float_of_int processors;
            scenario =
              (fun config ->
                E.Setup.scenario ~config ~dist ~preset ~workload_model:model ~processors ());
          })
        counts;
    render = Scaling { title; csv };
  }

(* The platform of the registry's [sweep-smoke] entry. *)
let mini_preset =
  {
    P.Presets.label = "mini";
    machine =
      P.Machine.create ~total_processors:64 ~downtime:50. ~overhead:(P.Overhead.constant 100.);
    total_work = 4e6;
    processor_mtbf = 2e5;
    job_processor_counts = [ 16; 64 ];
  }

(* Table 3's 1-day and 1-week rows.  The 1-hour row is left out: its
   single DPMakespan solve takes about 26 s, which leaves a run no time
   to spread its short resume passes over, and host-speed phases then
   decide their median. *)
let mtbfs = [ ("1 day", P.Units.day); ("1 week", P.Units.week) ]

let workload = function
  | "peta-weibull" ->
      (* [ckpt experiment fig4]: quick-scale processor subsample, 8 replicates. *)
      scaling ~name:"peta-weibull" ~experiment:"scaling" ~preset:(P.Presets.petascale ())
        ~counts:[ 1024; 8192; P.Presets.jaguar_processors ] ~replicates:8 ~roster:full_roster
        ~csv:"fig4.csv"
  | "exa-periodic" ->
      scaling ~name:"exa-periodic" ~experiment:"exa_periodic" ~preset:(P.Presets.exascale ())
        ~counts:[ 16384; 131072 ] ~replicates:48 ~roster:periodic_roster ~csv:"exa_periodic.csv"
  | "sweep-workers" ->
      scaling ~name:"sweep-workers" ~experiment:"sweep_smoke" ~preset:mini_preset
        ~counts:[ 16; 64 ] ~replicates:48 ~roster:full_roster ~csv:"sweep_smoke.csv"
  | "seq-weibull-dp" ->
      (* [ckpt experiment table3]: one processor, DPMakespan included. *)
      {
        name = "seq-weibull-dp";
        replicates = 8;
        roster = { full_roster with dp_makespan = true };
        params = [];
        points =
          List.map
            (fun (label, mtbf) ->
              {
                label = String.map (fun c -> if c = ' ' then '_' else c) label;
                experiment = "table3_" ^ String.map (fun c -> if c = ' ' then '_' else c) label;
                abscissa = mtbf;
                scenario =
                  (fun config ->
                    E.Setup.scenario ~config
                      ~dist:(E.Setup.distribution weibull ~mtbf)
                      ~preset:(P.Presets.one_processor ~mtbf)
                      ~workload_model:P.Workload.Embarrassingly_parallel ~processors:1 ());
              })
            mtbfs;
        render = Sequential { dist = E.Setup.dist_kind_name weibull };
      }
  | w -> failwith (Printf.sprintf "unknown workload %S" w)

(* The roster member by member, in [Setup.policies]'s order, so the
   traced pass can time each construction (PeriodLB's offline search
   included).  The traced/untraced digest comparison catches any drift
   from [Setup.policies]. *)
let members roster (scenario : S.Scenario.t) =
  let job = scenario.S.Scenario.job in
  let opt flag name build = if flag then [ (name, build) ] else [] in
  [
    ("Young", fun () -> Po.Young.policy job);
    ("DalyLow", fun () -> Po.Daly.low job);
    ("DalyHigh", fun () -> Po.Daly.high job);
    ("OptExp", fun () -> Po.Optexp.policy job);
  ]
  @ opt roster.bouguerra "Bouguerra" (fun () -> Po.Bouguerra.policy job)
  @ opt roster.liu "Liu" (fun () -> Po.Liu.policy job)
  @ opt roster.period_lb "PeriodLB" (fun () -> S.Period_search.policy scenario)
  @ opt roster.dp_next_failure "DPNextFailure" (fun () -> Po.Dp_policies.dp_next_failure job)
  @ opt roster.dp_makespan "DPMakespan" (fun () -> Po.Dp_policies.dp_makespan job)

let all_policy_names =
  [ "Young"; "DalyLow"; "DalyHigh"; "OptExp"; "Bouguerra"; "Liu"; "PeriodLB"; "DPNextFailure";
    "DPMakespan" ]

(* PeriodLB's candidate count, by [Period_search.best_period]'s rule. *)
let period_candidates (scenario : S.Scenario.t) =
  let job = scenario.S.Scenario.job in
  let base = Po.Optexp.period job in
  let work = job.Po.Job.work_time in
  List.filter_map
    (fun f ->
      let p = base *. f in
      if p > 0. && p <= work then Some p else None)
    (S.Period_search.default_factors ())
  |> List.sort_uniq compare |> List.length |> max 1

(* -- checks ------------------------------------------------------------------ *)

let digest table = Digest.to_hex (Digest.string (E.Report.csv_of_table table))

(* Invariants every table must satisfy at any seed. *)
let check ~replicates (table : S.Evaluation.table) =
  let open S.Evaluation in
  let lb = table.lower_bound.average_degradation in
  if table.usable_replicates <> replicates then
    Error
      (Printf.sprintf "usable_replicates %d <> replicates %d" table.usable_replicates replicates)
  else
    match
      List.find_opt
        (fun r -> r.successes > 0 && not (lb <= r.average_degradation))
        table.results
    with
    | Some r ->
        Error
          (Printf.sprintf "LowerBound degradation %g above %s's %g" lb r.policy_name
             r.average_degradation)
    | None -> Ok ()

(* -- rendering ----------------------------------------------------------------- *)

let render w (tables : (point * S.Evaluation.table) list) =
  match w.render with
  | Scaling { title; csv } ->
      E.Scaling_study.print
        {
          E.Scaling_study.title;
          points =
            List.map
              (fun (pt, table) ->
                { E.Scaling_study.processors = int_of_float pt.abscissa; table })
              tables;
        }
        ~csv
  | Sequential { dist } ->
      (* As [Sequential_tables.print] renders Table 3. *)
      E.Report.print_header
        (Printf.sprintf "Table 3: single processor, %s failures (degradation from best)" dist);
      List.iter
        (fun (pt, table) ->
          let mtbf_label = String.map (fun c -> if c = '_' then ' ' else c) pt.label in
          Printf.printf "-- MTBF = %s --\n" mtbf_label;
          E.Report.print_table table;
          E.Report.write_csv
            ~meta:[ ("mtbf", mtbf_label); ("distribution", dist) ]
            ~path:(Filename.concat (E.Report.results_dir ()) (Printf.sprintf "table3_%s.csv" pt.label))
            (E.Report.csv_of_table table))
        tables

(* -- passes -------------------------------------------------------------------- *)

type outcome = {
  label : string;
  result : (S.Evaluation.table, string) result;
}

let config ~seed ~replicates ~store =
  { E.Config.replicates; full = false; seed = Int64.of_int seed; sweep_dir = store }

let protect f = try Ok (f ()) with e -> Error (Printexc.to_string e)

(* Scenarios and rosters for every point, before the first replicate
   is evaluated.  Untraced, the roster comes from [Setup.policies], the
   call the registry entries make. *)
let setup w config =
  let parent = current_span () in
  Pool.parallel_map_list
    (fun pt ->
      let scenario = span ~parent "setup.scenario" (fun () -> pt.scenario config) in
      let r = w.roster in
      let policies =
        if not !tracing then
          E.Setup.policies ~dp_makespan:r.dp_makespan ~dp_next_failure:r.dp_next_failure ~liu:r.liu
            ~bouguerra:r.bouguerra ~period_lb:r.period_lb scenario
        else
          List.map
            (fun (name, build) -> wrap (span ~parent ("roster." ^ name) build))
            (members r scenario)
      in
      (pt, scenario, policies))
    w.points

let evaluate w config prepared =
  let store = E.Sweep_store.of_config config in
  Pool.parallel_map_list
    (fun ((pt : point), scenario, policies) ->
      {
        label = pt.label;
        result =
          protect (fun () ->
              E.Sweep_store.degradation_table ?store ~params:w.params ~experiment:pt.experiment
                ~scenario ~policies ~replicates:w.replicates ());
      })
    prepared

(* The traced pass evaluates stripe by stripe: a trace pre-warm (the
   stripe fits in the scenario's trace cache), the stripe partial, then
   the reduce; each unit is then written the way [Sweep_store] persists
   one (header line + [serialize_partial], [Atomic_file.write], provenance
   sidecar) under [replay_dir], to time the store's save path from
   outside.  Returns the tables and the failure events generated. *)
let evaluate_traced w prepared ~replay_dir =
  let events = Atomic.make 0 in
  let parent = current_span () in
  let outcomes =
    Pool.parallel_map_list
      (fun ((pt : point), scenario, policies) ->
        let replicates = w.replicates in
        let result =
          protect (fun () ->
              let partials =
                List.init (S.Evaluation.stripe_count ~replicates) (fun stripe ->
                    let first, len = S.Evaluation.stripe_bounds ~replicates ~stripe in
                    span ~parent "failures.trace_gen" (fun () ->
                        for i = first to first + len - 1 do
                          let ts = S.Scenario.traces scenario ~replicate:i in
                          ignore (Atomic.fetch_and_add events (F.Trace_set.total_failures ts))
                        done);
                    let partial =
                      span ~parent "evaluation.stripe" (fun () ->
                          S.Evaluation.stripe_partial ~scenario ~policies ~replicates ~stripe)
                    in
                    span ~parent "sweep_store.save" (fun () ->
                        let payload = S.Evaluation.serialize_partial partial in
                        let path =
                          Filename.concat replay_dir
                            (Printf.sprintf "%s.stripe%03d.part" pt.experiment stripe)
                        in
                        Atomic_file.write ~path
                          (Printf.sprintf "ckpt-sweep/1 %s stripe=%d\n%s"
                             (Digest.to_hex (Digest.string payload))
                             stripe payload);
                        Ckpt_telemetry.Provenance.write_sidecar
                          ~extra:[ ("unit_stripe", string_of_int stripe) ]
                          ~path ());
                    partial)
              in
              span ~parent "evaluation.reduce" (fun () -> S.Evaluation.table_of_partials partials))
        in
        { label = pt.label; result })
      prepared
  in
  (outcomes, Atomic.get events)

(* The tables that were computed, with their points. *)
let tables_of outcomes prepared =
  List.filter_map Fun.id
    (List.map2
       (fun o (pt, _, _) -> match o.result with Ok t -> Some (pt, t) | Error _ -> None)
       outcomes prepared)

let table_json ~replicates o =
  let digest, ok, error =
    match o.result with
    | Error e -> ("", false, e)
    | Ok t -> (
        match check ~replicates t with
        | Ok () -> (digest t, true, "")
        | Error e -> (digest t, false, e))
  in
  Json.Obj
    [
      ("name", Json.Str o.label);
      ("digest", Json.Str digest);
      ("ok", Json.Bool ok);
      ("error", Json.Str error);
    ]

let store_json (s : E.Sweep_store.stats) =
  Json.Obj
    [
      ("computed", Json.Num (float_of_int s.E.Sweep_store.computed));
      ("skipped", Json.Num (float_of_int s.E.Sweep_store.skipped));
      ("invalidated", Json.Num (float_of_int s.E.Sweep_store.invalidated));
    ]

let num x = Json.Num x
let int n = Json.Num (float_of_int n)

let sum_spans pred =
  List.fold_left (fun acc (s : span) -> if pred s.name then acc +. (s.t1 -. s.t0) else acc) 0. !spans

let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b)

let counter name =
  match Metrics.find name with Some (Metrics.Counter n) -> n | _ -> 0

let timer_seconds name =
  match Metrics.find name with Some (Metrics.Timer { seconds; _ }) -> seconds | _ -> 0.

(* Span categories whose GC deltas are reported separately; spans of one
   category never nest. *)
let gc_layers =
  [
    ("setup", fun n -> n = "setup.scenario" || String.starts_with ~prefix:"roster." n);
    ("trace_gen", String.equal "failures.trace_gen");
    ("stripe", String.equal "evaluation.stripe");
    ("reduce", String.equal "evaluation.reduce");
    ("store", fun n -> String.starts_with ~prefix:"sweep_store." n);
    ("render", String.equal "report.render");
  ]

let layers w ~prepared ~tables ~events ~wall ~domains =
  let sum_over f = List.fold_left (fun acc x -> acc + f x) 0 in
  let decide_total = ref 0. in
  let per_policy =
    List.concat_map
      (fun name ->
        let n, s = tally name in
        decide_total := !decide_total +. s;
        [ ("policies.decide_s." ^ name, num s); ("policies.decisions." ^ name, int n) ])
      all_policy_names
  in
  let dp_n, dp_s =
    List.fold_left
      (fun (n, s) name ->
        let n', s' = tally name in
        (n + n', s +. s'))
      (0, 0.) [ "DPMakespan"; "DPNextFailure" ]
  in
  let hits, misses =
    List.fold_left
      (fun (h, m) (_, scenario, _) ->
        let h', m' = S.Scenario.cache_stats scenario in
        (h + h', m + m'))
      (0, 0) prepared
  in
  let stripe_s = sum_spans (String.equal "evaluation.stripe") in
  let trace_s = sum_spans (String.equal "failures.trace_gen") in
  let engine_runs =
    sum_over
      (fun (_, (t : S.Evaluation.table)) ->
        (w.replicates * List.length t.S.Evaluation.results) + t.S.Evaluation.usable_replicates)
      tables
  in
  let candidates =
    if w.roster.period_lb then sum_over (fun (_, scenario, _) -> period_candidates scenario) prepared
    else 0
  in
  let busy_frac =
    if domains <= 1 then 1.
    else 1. -. (timer_seconds "sched/idle_park" /. (wall *. float_of_int domains))
  in
  let g = Gc.quick_stat () in
  let gc_per_layer =
    List.concat_map
      (fun (layer, pred) ->
        let sel = List.filter (fun (s : span) -> pred s.name) !spans in
        [
          ( Printf.sprintf "gc.%s.minor_words" layer,
            num (List.fold_left (fun a (s : span) -> a +. s.minor_words) 0. sel) );
          ( Printf.sprintf "gc.%s.minor_collections" layer,
            int (sum_over (fun (s : span) -> s.minor_collections) sel) );
          ( Printf.sprintf "gc.%s.major_collections" layer,
            int (sum_over (fun (s : span) -> s.major_collections) sel) );
        ])
      gc_layers
  in
  Json.Obj
    ([
       ("period_search.tune_s", num (sum_spans (String.equal "roster.PeriodLB")));
       ("period_search.candidates", int candidates);
     ]
    @ per_policy
    @ [
        ( "policies.dp_us_per_decision",
          num (if dp_n = 0 then 0. else dp_s /. float_of_int dp_n *. 1e6) );
        ("failures.trace_gen_s", num trace_s);
        ("failures.events", int events);
        ("scenario.trace_cache_hit_ratio", num (ratio hits misses));
        ("engine.self_s", num (Float.max 0. (stripe_s -. !decide_total)));
        ("engine.runs", int engine_runs);
        ( "engine.decision_memo_hit_ratio",
          num
            (ratio (counter "engine/decision_memo_hits") (counter "engine/decision_memo_misses"))
        );
        ("evaluation.reduce_s", num (sum_spans (String.equal "evaluation.reduce")));
        ("sweep_store.save_s", num (sum_spans (String.equal "sweep_store.save")));
        ("sweep_store.load_s", num (sum_spans (String.equal "sweep_store.load")));
        ("domain_pool.busy_frac", num busy_frac);
        ( "dp_makespan.table_cache_hit_ratio",
          num
            (ratio (counter "dp_makespan/table_cache_hits") (counter "dp_makespan/table_cache_misses"))
        );
        ("report.render_s", num (sum_spans (String.equal "report.render")));
        ("gc.minor_words", num (g.Gc.minor_words -. gc_start.Gc.minor_words));
        ("gc.minor_collections", int (g.Gc.minor_collections - gc_start.Gc.minor_collections));
        ("gc.major_collections", int (g.Gc.major_collections - gc_start.Gc.major_collections));
        ( "gc.top_heap_mb",
          num (float_of_int (g.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.) );
      ]
    @ gc_per_layer)

let spans_json () =
  Json.Arr
    (List.rev_map
       (fun (s : span) ->
         Json.Obj
           [
             ("id", int s.id);
             ("parent", int s.parent);
             ("name", Json.Str s.name);
             ("domain", int s.domain);
             ("start_s", num (s.t0 -. t_start));
             ("end_s", num (s.t1 -. t_start));
             ("minor_words", num s.minor_words);
             ("minor_collections", int s.minor_collections);
             ("major_collections", int s.major_collections);
           ])
       !spans)

(* The traced pass's last step, outside its wall time: re-read every
   table from the store an untraced pass completed, to time the store's
   load path; the loaded tables must equal the computed ones. *)
let load_step w prepared ~load_store tables =
  let store = E.Sweep_store.create ~dir:load_store in
  let before = E.Sweep_store.stats () in
  let loaded =
    List.map
      (fun ((pt : point), scenario, policies) ->
        span "sweep_store.load" (fun () ->
            E.Sweep_store.degradation_table ~store ~params:w.params ~experiment:pt.experiment
              ~scenario ~policies ~replicates:w.replicates ()))
      prepared
  in
  let after = E.Sweep_store.stats () in
  if after.E.Sweep_store.computed <> before.E.Sweep_store.computed then
    Error "load step computed units: the store was not complete"
  else if List.map digest loaded <> List.map (fun (_, t) -> digest t) tables then
    Error "tables loaded from the store differ from the traced pass's tables"
  else Ok ()

let write_result ~out fields =
  Atomic_file.write ~path:out (Json.to_string (Json.Obj fields) ^ "\n")

let run ~workload:wname ~seed ~phase ~store ~out ~load_store ~replay_dir =
  let w = workload wname in
  let domains = Ckpt_telemetry.Provenance.domain_count () in
  let config = config ~seed ~replicates:w.replicates ~store in
  if phase = "traced" then begin
    tracing := true;
    Metrics.set_enabled true
  end;
  let prepared = span "setup" (fun () -> setup w config) in
  let setup_s = now () -. t_start in
  let base = [ ("workload", Json.Str w.name); ("phase", Json.Str phase); ("setup_s", num setup_s) ] in
  match phase with
  | "setup" -> write_result ~out base
  | "run" ->
      E.Sweep_store.reset_stats ();
      let outcomes = evaluate w config prepared in
      let tables = tables_of outcomes prepared in
      if List.length tables = List.length prepared then render w tables;
      let wall_s = now () -. t_start in
      write_result ~out
        (base
        @ [
            ("wall_s", num wall_s);
            ("tables", Json.Arr (List.map (table_json ~replicates:w.replicates) outcomes));
            ("store", store_json (E.Sweep_store.stats ()));
          ])
  | "traced" ->
      let outcomes, events =
        span "evaluate" (fun () -> evaluate_traced w prepared ~replay_dir)
      in
      let tables = tables_of outcomes prepared in
      if List.length tables = List.length prepared then
        span "report.render" (fun () -> render w tables);
      let wall_s = now () -. t_start in
      let load =
        try load_step w prepared ~load_store tables with e -> Error (Printexc.to_string e)
      in
      write_result ~out
        (base
        @ [
            ("wall_s", num wall_s);
            ("tables", Json.Arr (List.map (table_json ~replicates:w.replicates) outcomes));
            ("load_check", Json.Str (match load with Ok () -> "" | Error e -> e));
            ("store", store_json (E.Sweep_store.stats ()));
            ("layers", layers w ~prepared ~tables ~events ~wall:wall_s ~domains);
            ("spans", spans_json ());
          ])
  | p -> failwith (Printf.sprintf "unknown phase %S" p)

let () =
  let workload = ref "" and seed = ref None and phase = ref "run" and out = ref "" in
  let store = ref None and load_store = ref "" and replay_dir = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N scenario seed");
      ("--phase", Arg.Set_string phase, "setup|run|traced");
      ("--store", Arg.String (fun s -> store := Some s), "DIR sweep store of a run pass");
      ("--out", Arg.Set_string out, "FILE result JSON");
      ("--load-store", Arg.Set_string load_store, "DIR completed store a traced pass loads from");
      ("--replay-dir", Arg.Set_string replay_dir, "DIR where a traced pass replays unit writes");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "driver.exe --workload NAME --seed N --phase setup|run|traced --out FILE";
  let usage msg =
    prerr_endline ("driver: " ^ msg);
    exit 2
  in
  match !seed with
  | None -> usage "--seed is required"
  | Some seed ->
      if !out = "" then usage "--out is required";
      if !phase = "traced" && (!load_store = "" || !replay_dir = "") then
        usage "--phase traced needs --load-store and --replay-dir";
      run ~workload:!workload ~seed ~phase:!phase ~store:!store ~out:!out
        ~load_store:!load_store ~replay_dir:!replay_dir
