module Policy = Ckpt_policies.Policy

type power = { compute : float; io : float; idle : float }

let create ~compute ~io ~idle =
  if compute < 0. || io < 0. || idle < 0. then invalid_arg "Energy.create: negative power";
  { compute; io; idle }

let default_power = { compute = 120.; io = 40.; idle = 25. }

let of_metrics power ~processors (m : Engine.metrics) =
  if processors <= 0 then invalid_arg "Energy.of_metrics: processors must be positive";
  let computing = m.Engine.useful_work +. m.Engine.wasted_time in
  let io_time = m.Engine.checkpoint_time +. m.Engine.recovery_time in
  float_of_int processors
  *. ((power.compute *. computing) +. (power.io *. io_time) +. (power.idle *. m.Engine.stall_time))

let makespan_energy_tradeoff ~scenario ~power ~periods ~replicates =
  let processors = scenario.Scenario.job.Ckpt_policies.Job.processors in
  List.map
    (fun period ->
      let policy = Policy.periodic "energy-sweep" ~period in
      let makespan_acc = ref 0. and energy_acc = ref 0. and n = ref 0 in
      for replicate = 0 to replicates - 1 do
        let traces = Scenario.traces scenario ~replicate in
        match Engine.run ~scenario ~traces ~policy () with
        | Engine.Completed m ->
            makespan_acc := !makespan_acc +. m.Engine.makespan;
            energy_acc := !energy_acc +. of_metrics power ~processors m;
            incr n
        | Engine.Policy_failed _ -> ()
      done;
      let nf = float_of_int (max 1 !n) in
      (period, !makespan_acc /. nf, !energy_acc /. nf))
    periods
