module Policy = Ckpt_policies.Policy
module Special = Ckpt_numerics.Special

type t = {
  policy_a : string;
  policy_b : string;
  paired_runs : int;
  mean_difference : float;
  mean_ratio : float;
  a_wins : int;
  b_wins : int;
  ties : int;
  sign_test_p : float;
}

(* log C(n, k) via log-Gamma. *)
let log_choose n k =
  Special.log_gamma (float_of_int (n + 1))
  -. Special.log_gamma (float_of_int (k + 1))
  -. Special.log_gamma (float_of_int (n - k + 1))

let binomial_two_sided_p ~wins ~losses =
  if wins < 0 || losses < 0 then invalid_arg "Significance.binomial_two_sided_p: negative counts";
  let n = wins + losses in
  if n = 0 then 1.
  else begin
    let extreme = min wins losses in
    (* P(X <= extreme) for X ~ Bin(n, 1/2), then double (capped). *)
    let log_half_n = float_of_int n *. log 0.5 in
    let tail = ref 0. in
    for k = 0 to extreme do
      tail := !tail +. exp (log_choose n k +. log_half_n)
    done;
    Float.min 1. (2. *. !tail)
  end

let compare_policies ~scenario ~a ~b ~replicates =
  if replicates <= 0 then invalid_arg "Significance.compare_policies: replicates must be positive";
  let diffs = ref [] and ratios = ref [] in
  let a_wins = ref 0 and b_wins = ref 0 and ties = ref 0 in
  for replicate = 0 to replicates - 1 do
    let traces = Scenario.traces scenario ~replicate in
    match (Engine.run ~scenario ~traces ~policy:a (), Engine.run ~scenario ~traces ~policy:b ()) with
    | Engine.Completed ma, Engine.Completed mb ->
        let da = ma.Engine.makespan and db = mb.Engine.makespan in
        diffs := (da -. db) :: !diffs;
        ratios := (da /. db) :: !ratios;
        if da < db then incr a_wins else if db < da then incr b_wins else incr ties
    | _ -> ()
  done;
  let n = List.length !diffs in
  let mean xs = if n = 0 then nan else List.fold_left ( +. ) 0. xs /. float_of_int n in
  {
    policy_a = a.Policy.name;
    policy_b = b.Policy.name;
    paired_runs = n;
    mean_difference = mean !diffs;
    mean_ratio = mean !ratios;
    a_wins = !a_wins;
    b_wins = !b_wins;
    ties = !ties;
    sign_test_p = binomial_two_sided_p ~wins:!a_wins ~losses:!b_wins;
  }

let pp fmt t =
  Format.fprintf fmt
    "@[<v>%s vs %s over %d paired traces:@,\
     mean makespan difference %+.0f s (ratio %.5f)@,\
     wins %d / %d (%d ties), two-sided sign test p = %.4f@]"
    t.policy_a t.policy_b t.paired_runs t.mean_difference t.mean_ratio t.a_wins t.b_wins t.ties
    t.sign_test_p
