(** PeriodLB (Section 4.1): the unattainable-in-practice best periodic
    policy, found by brute-force numerical search — candidate periods
    around OptExp's are each evaluated on freshly generated tuning
    trace sets, and the period with the lowest average makespan wins.

    The paper multiplies/divides OptExp's period by [1 + 0.05 i]
    (i <= 180) and by [1.1^j] (j <= 60) and scores each on 1,000
    scenarios; the defaults here are a lighter grid and tuning-set
    size, configurable up to the paper's scale. *)

val default_factors : unit -> float list
(** Sorted multiplicative grid: [1.1^j] for [|j| <= 25] merged with
    [1 + 0.05 i] for [|i| <= 10]. *)

val best_period :
  ?factors:float list ->
  ?tuning_replicates:int ->
  scenario:Scenario.t ->
  base_period:float ->
  unit ->
  float * float
(** [(period, average tuning makespan)] of the winning candidate.
    Tuning trace sets are drawn from a replicate range disjoint from
    the one the evaluation uses (offset by 1,000,000); candidates are
    scored in parallel, with the winner picked in candidate order.
    If no candidate lies in [(0, work]] or none completes a tuning
    run, returns [(min base_period work, infinity)] — never a zero or
    negative period.  Each call is one search: it bumps the
    [period_search/searches] counter and times itself in the
    [period_search/search_seconds] timer (under [CKPT_METRICS=1]). *)

val policy :
  ?factors:float list -> ?tuning_replicates:int -> Scenario.t -> Ckpt_policies.Policy.t
(** The PeriodLB policy: checkpoints periodically at the period
    {!best_period} finds with OptExp's period as base.  Construction
    is cheap: the search runs on the first [instantiate] (or
    [tuning.search]), at most once per policy value unless two domains
    race to it, in which case both run the same bit-identical search
    and the first to finish publishes.  Its [tuning] field keys the
    period on [kind=period], the scenario's {!Scenario.fingerprint},
    the factor grid (hex), [tuning_replicates] and the tuning
    replicate offset, so a sweep store can keep it
    ({!Ckpt_experiments.Sweep_store}). *)

val sweep :
  scenario:Scenario.t ->
  periods:float list ->
  replicates:int ->
  (float * float option) list
(** Average makespan of the plain periodic policy at each period — the
    PeriodVariation curves of the paper's appendix figures.  [None]
    for periods no run completed on (cannot happen for periodic
    policies, but kept symmetric with policy sweeps). *)
