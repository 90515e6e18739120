module P = Ckpt_platform
module Po = Ckpt_policies
module S = Ckpt_simulator

type result = {
  policy_name : string;
  average_makespan : float;
  average_degradation : float;
}

let profile ~progress =
  let c = 600. *. (0.5 +. progress) in
  (c, c)

let run ?(config = Config.default ()) ?(processors = 1 lsl 13) () =
  let preset = P.Presets.petascale () in
  let dist = Setup.distribution (Setup.Weibull 0.7) ~mtbf:preset.P.Presets.processor_mtbf in
  let scenario =
    Setup.scenario ~config ~dist ~preset ~workload_model:P.Workload.Embarrassingly_parallel
      ~processors ()
  in
  let job = scenario.S.Scenario.job in
  let replicates = Config.scale config ~quick:8 ~full:200 in
  let contenders =
    [
      ("OptExp(nominal C)", Po.Optexp.policy job);
      ("DPNextFailure(nominal C)", Po.Dp_policies.dp_next_failure job);
      ("DPNextFailure(profiled C)", Po.Dp_policies.dp_next_failure ~cost_profile:profile job);
    ]
  in
  (* All contenders execute under the true progress-dependent costs. *)
  let totals = Array.make (List.length contenders) 0. in
  let bests = ref 0. in
  for replicate = 0 to replicates - 1 do
    let traces = S.Scenario.traces scenario ~replicate in
    let makespans =
      List.map
        (fun (_, policy) ->
          match S.Engine.run ~cost_profile:profile ~scenario ~traces ~policy () with
          | S.Engine.Completed m -> m.S.Engine.makespan
          | S.Engine.Policy_failed _ -> infinity)
        contenders
    in
    let best = List.fold_left Float.min infinity makespans in
    bests := !bests +. best;
    List.iteri (fun i m -> totals.(i) <- totals.(i) +. m) makespans
  done;
  let n = float_of_int replicates in
  List.mapi
    (fun i (policy_name, _) ->
      {
        policy_name;
        average_makespan = totals.(i) /. n;
        average_degradation = totals.(i) /. !bests;
      })
    contenders

let print ?(config = Config.default ()) () =
  Report.print_header
    "Conclusion extension: progress-dependent checkpoint cost (C grows 0.5x -> 1.5x)";
  List.iter
    (fun r ->
      Printf.printf "%-28s avg makespan %10.0f s   degradation %.5f\n" r.policy_name
        r.average_makespan r.average_degradation)
    (run ~config ());
  print_endline "The profile-aware DP shifts checkpoints toward the cheap early phase."
