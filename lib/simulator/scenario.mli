(** A fully specified simulation setting: job + trace-generation
    protocol (Section 4.3). *)

type cache
(** Bounded FIFO cache of generated trace sets, keyed by replicate
    (so process-wide the cache is keyed by [(scenario, replicate)]).
    Trace sets are pure functions of the scenario and the replicate
    index; the cache only saves regeneration work — policy sweeps and
    separate per-policy passes re-running the same replicates — and
    never changes results.  It holds 64 sets.  Safe to share across
    domains. *)

type t = {
  job : Ckpt_policies.Job.t;
  seed : int64;
  horizon : float;  (** trace horizon [h]. *)
  start_time : float;
      (** job start [t0] within the horizon; 1 year for parallel
          platforms (avoids synchronized-birth effects), 0 for the
          single-processor study. *)
  cache : cache;  (** private to {!traces}; created by {!create}. *)
}

val create : ?seed:int64 -> ?horizon:float -> ?start_time:float -> Ckpt_policies.Job.t -> t
(** Defaults follow the paper: seed [0x5EEDL]; [horizon] = 1 year and
    [start_time] = 0 for one processor, 11 years and 1 year otherwise.
    @raise Invalid_argument if [start_time >= horizon]. *)

val traces : t -> replicate:int -> Ckpt_failures.Trace_set.t
(** The failure traces of replicate [replicate]: one renewal trace per
    {e failure unit} of the job (the job's [group_size] processors
    share a unit).  Deterministic in [(seed, replicate, unit)], so
    runs with fewer processors see a prefix of the traces of runs with
    more (the paper's coherence requirement when varying [p]).
    Memoized per scenario (see {!type:cache}). *)

val generate : t -> replicate:int -> Ckpt_failures.Trace_set.t
(** {!traces} without the cache: always generates, and keeps nothing.
    For callers that hold their own sets (the period search's tuning
    sets), so they do not evict the evaluation's replicates. *)

val fingerprint : t -> (string * string) list
(** Every scenario parameter a simulated result depends on —
    distribution name and mean, processors, group size, work time,
    machine size, downtime, overhead model, seed, horizon and start
    time — as key/value pairs, floats in hex so the pairs see their
    exact bits.  Stores key their units on it. *)

val cache_stats : t -> int * int
(** [(hits, misses)] of the scenario's trace cache so far. *)

val initial_lifetime_starts : t -> Ckpt_failures.Trace_set.t -> float array
(** Per-failure-unit instants at which the lifetime in progress at
    [start_time] began: last failure before [t0] plus the downtime
    (lifetimes restart at the beginning of recovery), or 0 for a unit
    that never failed. *)
