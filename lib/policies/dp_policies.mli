(** Policy adapters around the core dynamic programs. *)

val dp_makespan :
  ?quantum:float -> ?cap_states:int -> ?chunk_factor:float -> Job.t -> Policy.t
(** DPMakespan (Algorithm 1) as a policy.  For parallel jobs it adopts
    the paper's rejuvenate-all assumption (the aggregated
    fresh-platform distribution) — "without this assumption this
    heuristic cannot be used" (Section 4.1).  Solved tables are cached
    across executions per initial-age bucket (the optimal plan varies
    slowly with [tau0]) in a per-domain LRU cache bounded by
    [CKPT_DP_CACHE_CAP] entries (default 64; 0 = unbounded) so
    long-running sweep workers keep flat memory across scenarios.
    Eviction only forces a deterministic re-solve at the bucket's
    canonical age — results are bit-identical at any cap.  Telemetry:
    [dp_makespan/table_cache_entries] gauge (occupancy, per-domain
    last-writer-wins) and [dp_makespan/table_cache_evictions]
    counter. *)

val table_cache_size : unit -> int
(** Occupancy of the calling domain's DPMakespan table cache (tests). *)

val dp_next_failure :
  ?nexact:int ->
  ?napprox:int ->
  ?max_states:int ->
  ?truncation_factor:float ->
  ?cost_profile:(progress:float -> float * float) ->
  Job.t ->
  Policy.t
(** DPNextFailure (Algorithm 2 / Section 3.3) as a policy: after every
    failure (and at start) it compresses the processor ages and plans
    the chunk sequence maximizing the expected work before the next
    platform failure; the plan is followed until the next failure or
    until its valid prefix is exhausted, then recomputed.

    [cost_profile] enables the paper's conclusion extension: the
    checkpoint/recovery costs seen by each replanning step are taken
    at the job's current progress, so the policy adapts its chunk
    sizes as the application's footprint evolves (pair it with
    {!Ckpt_simulator.Engine.run}'s [?cost_profile] — same profile). *)
