(** The paper's evaluation methodology (Section 4.1).

    For a scenario, generate [replicates] trace sets; run every policy
    on every trace set; on each trace set normalize each policy's
    makespan by the best makespan achieved by any {e policy} (the
    omniscient LowerBound is excluded from the minimum but reported,
    normalized, as its own row); average the per-trace degradations.

    Replicates are grouped into stripes ([CKPT_SWEEP_STRIPE]) and each
    stripe runs through {!Engine.run_stripe} — one lockstep pass per
    policy over the whole stripe.  Stripes are evaluated in parallel
    over OCaml 5 domains ([CKPT_DOMAINS] controls the fan-out; nested
    inside a study that already parallelizes, they run inline).  Each
    replicate accumulates into its own state and the per-replicate
    accumulators are merged serially in replicate order
    ({!Ckpt_numerics.Summary.merge}), so the table is bit-for-bit
    identical for every domain count.  Set [CKPT_VERBOSE=1] for
    per-policy wall-clock and replicate progress reporting (see
    {!Instrument}).

    With tracing on ([CKPT_TRACE_OUT], {!Ckpt_telemetry.Tracer.enabled})
    every run also fills its own event buffer, named
    [rep<replicate>/<policy>] (and [rep<replicate>/LowerBound]), and
    registers it for export; the table is bit-identical to an untraced
    one. *)

(** Distributional view of a policy's completed runs, derived from the
    exact {!Ckpt_numerics.Summary.Vector} accumulator: makespan
    quantiles (log-histogram estimates), 95% confidence half-widths
    for the mean makespan and mean degradation, and the waste
    decomposition both as mean seconds and as fractions of the mean
    makespan.  The mean seconds satisfy
    [mk_mean = useful_s + checkpoint_s + wasted_s + recovery_s + stall_s]
    up to the engine's ulp-scaled accounting tolerance — enforced
    per-replicate by {!Engine.Accounting_violation}.  Undefined cells
    (e.g. intervals below two runs) are [nan]; renderers print "n/a"
    or an empty CSV cell. *)
type waste_profile = {
  mk_p50 : float;
  mk_p95 : float;
  mk_p99 : float;
  mk_mean : float;  (** mean makespan from the exact sum (seconds). *)
  mk_ci95 : float;  (** 95% CI half-width of the mean makespan. *)
  deg_ci95 : float;  (** 95% CI half-width of the mean degradation. *)
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
  average_degradation : float;  (** mean of makespan / best-of-trace. *)
  std_degradation : float;
  average_makespan : float;  (** seconds; over successful runs. *)
  successes : int;  (** trace sets on which the policy produced a run. *)
  average_failures : float;  (** platform failures per successful run. *)
  max_failures : int;
  average_chunks : float;
  min_chunk : float;  (** smallest chunk ever committed (seconds). *)
  max_chunk : float;
  profile : waste_profile option;  (** [None] when no run completed. *)
}

type table = {
  lower_bound : policy_result;  (** the omniscient reference (< 1). *)
  results : policy_result list;  (** one row per policy, input order. *)
  replicates : int;
  usable_replicates : int;
      (** trace sets on which at least one policy completed. *)
}

val degradation_table :
  scenario:Scenario.t ->
  policies:Ckpt_policies.Policy.t list ->
  replicates:int ->
  table
(** @raise Invalid_argument if [replicates <= 0] or [policies = []]. *)

(** {2 Replicate stripes}

    The reduction above is structured as contiguous {e stripes} of
    replicates ([CKPT_SWEEP_STRIPE] wide, default 16): replicate
    outcomes merge in order within each stripe, stripe partials merge
    in stripe order.  A stripe partial is self-contained — computable
    independently, serializable bit-exactly — so the resumable sweep
    harness ({!Ckpt_experiments.Sweep_store}) can persist each stripe
    as a unit of work and reassemble the table after an interruption,
    bit-identical to an uninterrupted run. *)

type partial
(** Merged accumulators of one replicate stripe. *)

val stripe_size : unit -> int
(** Current stripe width: [CKPT_SWEEP_STRIPE] when set to a positive
    integer, 16 otherwise. *)

val stripe_count : replicates:int -> int
(** Number of stripes covering [replicates] at the current width.
    @raise Invalid_argument if [replicates <= 0]. *)

val stripe_bounds : replicates:int -> stripe:int -> int * int
(** [(first, len)] of stripe [stripe] at the current width — the
    replicate indices covered are [first, first + len).  This is the
    unit-granularity contract shared by the compute path
    ({!stripe_partial}) and the distribution substrate
    ({!Ckpt_experiments.Sweep_store}): a unit is fully described by
    (scenario, policies, stripe index), independent of which process
    computes it.
    @raise Invalid_argument on an out-of-range stripe or
    [replicates <= 0]. *)

val empty_partial : policy_names:string array -> partial
(** A merge-neutral placeholder with the given roster: zero replicates,
    empty accumulators.  Merging it into {!table_of_partials} changes
    nothing.  Sweep workers substitute it for units currently claimed
    by another worker, since worker-side tables are discarded and only
    the parent's canonical merge renders output. *)

val stripe_partial :
  scenario:Scenario.t ->
  policies:Ckpt_policies.Policy.t list ->
  replicates:int ->
  stripe:int ->
  partial
(** Evaluate the replicates of stripe [stripe] (indices
    [stripe * width, min ((stripe + 1) * width, replicates))) and merge
    them in replicate order.  The fan-out and determinism guarantees of
    {!degradation_table} apply.
    @raise Invalid_argument on an out-of-range stripe, [replicates <= 0]
    or [policies = []]. *)

val table_of_partials : partial list -> table
(** Merge stripe partials {e in the order given} — pass them in stripe
    order to reproduce {!degradation_table} bit for bit.
    @raise Invalid_argument on an empty list or mismatched policy
    rosters. *)

val serialize_partial : partial -> string
(** Text encoding (hex floats) that {!deserialize_partial} inverts bit
    for bit. *)

val deserialize_partial : string -> partial option
(** [None] on malformed input — a torn or corrupted checkpoint reads as
    "absent", never crashes and never poisons a table. *)

val average_makespan :
  scenario:Scenario.t -> policy:Ckpt_policies.Policy.t -> replicates:int -> float option
(** Mean makespan of one policy alone (Appendix D's absolute-makespan
    plots); [None] if the policy failed on every trace set. *)

val profile_of_components :
  (float * float * float * float * float * float) list -> waste_profile option
(** Build a {!waste_profile} from bare per-run decompositions
    [(makespan, useful, checkpoint, wasted, recovery, stall)] — for
    studies that persist component rows per replicate rather than full
    accumulators.  [None] on an empty list; [deg_ci95] is [nan] (no
    degradation baseline).  Rows must be finite
    (@raise Invalid_argument otherwise, from
    {!Ckpt_numerics.Summary.Vector.add}). *)

val makespan_profile :
  scenario:Scenario.t ->
  policy:Ckpt_policies.Policy.t ->
  replicates:int ->
  (float * waste_profile) option
(** {!average_makespan} (bit-identical mean, first component) together
    with the distributional profile of the same runs.  [deg_ci95] is
    [nan]: a single-policy run has no degradation baseline. *)

val pp_table : Format.formatter -> table -> unit
(** Render rows as the paper's tables do (name, avg, std, extras).
    Cells with no defined value — a policy that completed no run, or a
    standard deviation over fewer than two runs — print as ["n/a"],
    never as [nan] (the paper's incomplete Liu curves). *)
