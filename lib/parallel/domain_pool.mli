(** Multicore fan-out for the experiment sweeps.

    Every study in this repository is a sweep of independent
    evaluations (points of a figure, cells of a grid, candidate
    periods, Monte-Carlo replicates).  [parallel_init] fans such a
    sweep over OCaml 5 domains while staying deterministic: work items
    are claimed from an atomic counter, each output slot is written by
    exactly one task, and the caller reduces in index order, so
    results are bit-identical to the sequential run regardless of
    scheduling or domain count.

    One process-wide persistent pool runs every region.  Worker
    domains are spawned once (their DLS solver caches stay warm across
    sweeps) and park on a condition variable when idle.  Each
    [parallel_init] call publishes its region once on a lock-guarded
    list of open regions; idle workers, and callers waiting for their
    own region, claim items from the newest open one.  Nested calls
    therefore *compose*: a task that itself calls [parallel_init]
    opens a sub-region whose items are claimed by whichever domains
    the outer sweep leaves idle, so a narrow or skewed outer sweep
    does not strand the rest of the machine.

    Tasks must not share mutable state (the simulator's runs don't:
    each builds its own policies, traces and engine state).

    With [CKPT_SCHED_TRACE] set, every domain taking part records its
    state intervals (run-task, region lookups that find or miss work,
    region publishing, parking, join-helping) into the scheduler
    flight recorder ([Ckpt_telemetry.Flight_recorder]);
    [ckpt sched-report] turns the recording into a per-worker
    utilization breakdown, and a path-valued [CKPT_SCHED_TRACE]
    additionally exports a Chrome trace_event file at exit. *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count ()], overridden by the
    [CKPT_DOMAINS] environment variable when set.  [CKPT_DOMAINS] is
    the total parallelism including the calling domain: the pool
    keeps [CKPT_DOMAINS - 1] persistent workers (growing, never
    shrinking, if later calls ask for more).  Malformed values ([0],
    [-3], [abc]) warn once per value on stderr and fall back to the
    hardware default. *)

val in_parallel_region : unit -> bool
(** True while the calling domain is executing a [parallel_init] task.
    Used by the evaluation harness to tell top-level tables (which own
    the process-global timers/progress) from nested ones. *)

val parallel_init : ?domains:int -> int -> (int -> 'a) -> 'a array
(** [parallel_init ~domains n f] is [Array.init n f] evaluated on
    the pool (default {!recommended_domains}; the pool is grown to
    [domains - 1] workers, and any idle pool domain may help).  Runs
    plain [Array.init] on the calling domain when [domains <= 1] or
    [n <= 1]: that inline path is the determinism reference.  If any task
    raises, the region stops claiming new work and one of the raised
    exceptions is re-raised — with the failing task's original
    backtrace — after every claimed item has finished.
    @raise Invalid_argument if [n < 0]. *)

val parallel_map_list : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** List version of {!parallel_init}, preserving order. *)

val both : ?domains:int -> (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** Fork/join pair: [both f g] evaluates [f ()] and [g ()] as one
    two-item region (so an idle domain can run one side)
    and returns both results.  Exceptions propagate as in
    {!parallel_init}. *)

val pool_workers : unit -> int
(** Worker domains currently spawned by the persistent pool (0 before
    the first pooled region; for telemetry and tests). *)
