(** Shared construction of scenarios and policy rosters. *)

type dist_kind =
  | Exponential
  | Weibull of float  (** shape [k] *)
  | Log_based of Ckpt_failures.Failure_log.t

val dist_kind_name : dist_kind -> string

val distribution : dist_kind -> mtbf:float -> Ckpt_distributions.Distribution.t
(** [mtbf] is ignored for [Log_based] (the log fixes the scale). *)

val scenario :
  config:Config.t ->
  dist:Ckpt_distributions.Distribution.t ->
  preset:Ckpt_platform.Presets.t ->
  workload_model:Ckpt_platform.Workload.model ->
  processors:int ->
  ?group_size:int ->
  unit ->
  Ckpt_simulator.Scenario.t

val policies :
  ?dp_makespan:bool ->
  ?dp_next_failure:bool ->
  ?liu:bool ->
  ?bouguerra:bool ->
  ?period_lb:bool ->
  Ckpt_simulator.Scenario.t ->
  Ckpt_policies.Policy.t list
(** The Section 4.1 roster for a scenario: Young, DalyLow, DalyHigh,
    then the optional members.  Construction is cheap: PeriodLB's
    (costly) offline search runs on its first [instantiate], which the
    evaluation harness calls only when a stripe will be computed
    ({!Ckpt_simulator.Evaluation.prepare}, {!Sweep_store.tune}). *)
