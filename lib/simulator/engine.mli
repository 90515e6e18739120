(** The discrete-event execution engine.

    Simulates one execution of a tightly coupled parallel job on a
    trace set, under a checkpointing policy, with the paper's
    failed-only rejuvenation model (Section 3.1):

    - all [p] processors execute each chunk synchronously and
      checkpoint together;
    - a failure of any processor during execution, checkpointing or
      recovery destroys the work since the last committed checkpoint;
    - the failed processor undergoes a downtime [D] (its own failure
      dates inside the downtime are absorbed); healthy processors keep
      their ages but stall;
    - further processors may fail during a downtime or during the
      recovery, cascading (Section 3.2's discussion of [E(Trec)]);
    - the recovery of the last checkpoint takes [R(p)] once all
      processors are simultaneously up, and restarts after any
      interrupting failure;
    - a lifetime restarts at the beginning of the recovery period that
      follows the downtime. *)

type metrics = {
  makespan : float;  (** total wall-clock time of the execution. *)
  useful_work : float;  (** seconds of committed chunk work. *)
  checkpoint_time : float;  (** committed checkpoint overhead. *)
  wasted_time : float;
      (** execution and checkpointing time destroyed by failures. *)
  recovery_time : float;  (** completed and interrupted recoveries. *)
  stall_time : float;  (** downtime waits (processors idle). *)
  failures : int;  (** effective platform failures during the job. *)
  chunks : int;  (** committed chunks. *)
  min_chunk : float;
  max_chunk : float;  (** extreme committed chunk sizes ([0.] if none). *)
}

type outcome =
  | Completed of metrics
  | Policy_failed of { at_time : float; remaining : float }
      (** the policy returned [None] (could not compute a chunk). *)

exception Accounting_violation of string
(** Raised by every entry point below if a completed run's waste
    decomposition does not partition its makespan:
    [makespan = useful + checkpoint + wasted + recovery + stall]
    within {!accounting_tolerance}.  The identity holds by
    construction — every clock advance is matched by an accumulator
    add of the same operands — so a violation means time was
    mis-attributed, and it fails loudly rather than skewing tables. *)

val accounting_residual : metrics -> float
(** [|makespan - (useful + checkpoint + wasted + recovery + stall)|]. *)

val accounting_tolerance : ?clock:float -> metrics -> float
(** Ulp-scaled bound on the residual attributable to floating-point
    rounding alone: one ulp at the clock's magnitude per accounting
    operation (~4 per committed chunk, ~8 per failure, doubled for
    headroom).  [clock] is the absolute simulated end time, whose
    magnitude sets the ulp when the scenario starts late (defaults to
    [makespan]). *)

val run_stripe :
  ?initial_births:float array array ->
  ?trace:Ckpt_telemetry.Tracer.buffer array ->
  ?cost_profile:(progress:float -> float * float) ->
  scenario:Scenario.t ->
  traces:Ckpt_failures.Trace_set.t array ->
  policy:Ckpt_policies.Policy.t ->
  unit ->
  outcome array
(** Simulate one execution of [policy] per slot's trace set, the slots
    stepped in lockstep: structure-of-arrays accumulators (unboxed
    float arrays indexed by slot), one reusable mutable observation and
    one fresh {!Ckpt_policies.Policy.t.instantiate} per slot, and a
    per-slot incremental age ledger created on the slot's first
    [summarize] call.  Slot [k] of the result depends only on
    [traces.(k)] — it is bit-identical to
    [run ~scenario ~traces:traces.(k) ~policy], whatever the width.
    The trace sets must cover the scenario's processors and horizon.

    [initial_births] optionally supplies each slot's
    {!Scenario.initial_lifetime_starts} (computed once by a caller
    running several passes over the same trace sets); the stripe
    copies it, never mutates it.

    [trace] gives slot [k] the buffer [trace.(k)], into which the run
    emits a typed event for every phase transition (policy decision,
    chunk start/commit, checkpoint, failure, waste, downtime, recovery
    start/abort/complete); summed span durations reconcile bitwise
    with the slot's {!metrics} (see [Ckpt_telemetry.Tracer.totals]).
    Untraced runs cost one [match] per site.

    [cost_profile] makes the checkpoint and recovery costs depend on
    the job's progress (fraction of work committed, in [\[0, 1\]]) —
    the extension sketched in the paper's conclusion for applications
    whose footprint evolves (e.g. adaptive mesh refinement).  It
    returns [(C, R)] at a progress point; a chunk's checkpoint is
    charged at the progress the chunk {e ends} at, a recovery at the
    progress being restored.  Without it, the job's constant
    [C(p) = R(p)] apply.

    An empty [traces] yields [[||]].
    @raise Invalid_argument if [initial_births] or [trace] is present
    with a different width than [traces]. *)

val run :
  ?trace:Ckpt_telemetry.Tracer.buffer ->
  ?cost_profile:(progress:float -> float * float) ->
  scenario:Scenario.t ->
  traces:Ckpt_failures.Trace_set.t ->
  policy:Ckpt_policies.Policy.t ->
  unit ->
  outcome
(** One execution: the width-1 {!run_stripe}. *)

val lower_bound :
  ?trace:Ckpt_telemetry.Tracer.buffer ->
  scenario:Scenario.t ->
  traces:Ckpt_failures.Trace_set.t ->
  unit ->
  metrics
(** The omniscient LowerBound of Section 4.1: knows every failure date
    and checkpoints exactly [C(p)] ahead of each, so it never wastes
    execution time; unattainable in practice, serves as the absolute
    reference.  Steps the same failure machinery as {!run_stripe};
    [trace] receives its event stream. *)
