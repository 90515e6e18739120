module Metrics = Ckpt_telemetry.Metrics
module FR = Ckpt_telemetry.Flight_recorder
module Trace_export = Ckpt_telemetry.Trace_export

let tasks_run = Metrics.counter "domain_pool/tasks"
let inline_sweeps = Metrics.counter "domain_pool/inline_sweeps"
let domains_spawned = Metrics.counter "domain_pool/domains_spawned"
let early_aborts = Metrics.counter "domain_pool/early_aborts"
let regions_run = Metrics.counter "sched/regions"
let external_tasks = Metrics.counter "sched/external/tasks"
let park_timer = Metrics.timer "sched/idle_park"

(* Warn once per distinct malformed value: [recommended_domains] runs
   on every fan-out, and a bad CKPT_DOMAINS should not flood stderr. *)
let warned_domains = Atomic.make ""

let recommended_domains () =
  match Sys.getenv_opt "CKPT_DOMAINS" with
  | None -> Domain.recommended_domain_count ()
  | Some s when String.trim s = "" -> Domain.recommended_domain_count ()
  | Some s -> begin
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None ->
          let fallback = Domain.recommended_domain_count () in
          if Atomic.exchange warned_domains s <> s then
            Printf.eprintf
              "ckpt: ignoring malformed CKPT_DOMAINS=%S (want an integer >= 1; using the \
               hardware default %d)\n\
               %!"
              s fallback;
          fallback
    end

(* True while the current domain is executing pool work.  The
   evaluation harness reads it to tell a top-level table (which owns
   the process-global timers and progress meter) from one nested
   inside a study's own fan-out. *)
let in_region_key = Domain.DLS.new_key (fun () -> false)

let in_parallel_region () = Domain.DLS.get in_region_key

(* -- the pool ------------------------------------------------------------- *)

(* Domains are spawned once, kept parked on a condition variable when
   idle, and reused by every region for the life of the process (which
   also keeps their DLS solver caches warm across sweeps).

   A *region* is one [parallel_init] call.  Its items are claimed from
   the region's atomic counter, so each output slot is written by
   exactly one task.  Forking a region pushes it once onto the pool's
   lock-guarded list of open regions, newest first.  Parked workers and
   joiners waiting on their own region take the newest open region and
   claim items from it; a region nested inside a task is therefore
   helped by whichever domains the outer sweep leaves idle, so
   study-level and replicate-level parallelism compose.  Fully claimed
   regions are dropped from the list by the next lookup. *)

type region = {
  n : int;
  next : int Atomic.t;  (* next unclaimed item *)
  completed : int Atomic.t;  (* claimed items that have finished (ran or skipped) *)
  error : (exn * Printexc.raw_backtrace) option Atomic.t;
  run_item : int -> unit;
}

let finished r = Atomic.get r.completed >= r.n

type pool = {
  lock : Mutex.t;
  cond : Condition.t;  (* broadcast when a region opens or finishes, and at shutdown *)
  stop : bool Atomic.t;
  mutable regions : region list;  (* open regions, newest first; under [lock] *)
  mutable workers : int;  (* under [lock]; grows, never shrinks *)
  mutable spawned : unit Domain.t list;  (* under [lock] *)
}

let pool =
  {
    lock = Mutex.create ();
    cond = Condition.create ();
    stop = Atomic.make false;
    regions = [];
    workers = 0;
    spawned = [];
  }

(* One domain's identity in the pool: its task counter and its
   flight-recorder track.  Pool workers are [workerN]; any other domain
   that forks a region is [externalN].  Tracks are allocated on first
   use so a disabled recorder costs neither the ring arrays nor the
   registry entry, and each is written only by its own domain. *)
type self = { name : string; tasks : Metrics.counter; mutable track : FR.track option }

let external_seq = Atomic.make 0

let self_key =
  Domain.DLS.new_key (fun () ->
      {
        name = Printf.sprintf "external%d" (Atomic.fetch_and_add external_seq 1);
        tasks = external_tasks;
        track = None;
      })

let track_of s =
  if not (FR.enabled ()) then None
  else begin
    match s.track with
    | Some _ as t -> t
    | None ->
        let t = Some (FR.track s.name) in
        s.track <- t;
        t
  end

let span track state t0 =
  match track with Some tr -> FR.record tr state ~t0 ~t1:(FR.now ()) | None -> ()

let clock track = match track with Some _ -> FR.now () | None -> 0.

let signal () =
  Mutex.lock pool.lock;
  Condition.broadcast pool.cond;
  Mutex.unlock pool.lock

(* Under [pool.lock]. *)
let newest_open () =
  pool.regions <- List.filter (fun r -> Atomic.get r.next < r.n) pool.regions;
  match pool.regions with r :: _ -> Some r | [] -> None

let find_region track =
  let t0 = clock track in
  Mutex.lock pool.lock;
  let found = newest_open () in
  Mutex.unlock pool.lock;
  span track (if Option.is_some found then FR.Steal_success else FR.Steal_attempt) t0;
  found

(* Sleep until a region opens, [until ()] holds, or the pool stops.
   Every condition is re-checked under the lock that guards the region
   list and the completion broadcast, so no wakeup is lost. *)
let park track ~until =
  let t0 = Unix.gettimeofday () in
  Mutex.lock pool.lock;
  while not (Atomic.get pool.stop || until () || Option.is_some (newest_open ())) do
    Condition.wait pool.cond pool.lock
  done;
  Mutex.unlock pool.lock;
  let t1 = Unix.gettimeofday () in
  Metrics.record park_timer (t1 -. t0);
  match track with
  | Some tr ->
      FR.record tr FR.Park ~t0 ~t1;
      FR.instant tr FR.Unpark ~at:t1
  | None -> ()

(* Claim-and-run loop.  [stop] lets a joiner lending a hand to a
   *different* region abandon it between items the moment its own
   region completes; abandoned items are still claimed later by the
   lent-to region's owner, whose own drain runs to exhaustion. *)
let drain ?(stop = Fun.const false) track ~state ~count r =
  let rec loop () =
    if not (stop ()) then begin
      let i = Atomic.fetch_and_add r.next 1 in
      if i < r.n then begin
        (* Once a task has failed the region's outcome is decided:
           skip the rest so the failure surfaces promptly. *)
        if Atomic.get r.error = None then begin
          Metrics.incr count;
          (* [run_item] never raises (it stores the exception in the
             region), so no protect is needed around the span. *)
          let t0 = clock track in
          r.run_item i;
          span track state t0
        end
        else Metrics.incr early_aborts;
        if Atomic.fetch_and_add r.completed 1 = r.n - 1 then signal ();
        loop ()
      end
    end
  in
  loop ()

let rec worker_loop s =
  if not (Atomic.get pool.stop) then begin
    let track = track_of s in
    (match find_region track with
    | Some r -> drain track ~state:FR.Run_task ~count:s.tasks r
    | None -> park track ~until:(Fun.const false));
    worker_loop s
  end

(* Workers idle on the condition variable between regions; wake and
   join them at exit so the process never tears down under a domain
   mid-park. *)
let () =
  at_exit (fun () ->
      Atomic.set pool.stop true;
      Mutex.lock pool.lock;
      Condition.broadcast pool.cond;
      let spawned = pool.spawned in
      pool.spawned <- [];
      Mutex.unlock pool.lock;
      List.iter Domain.join spawned)

(* [Domain.spawn] has a hard runtime cap; leave headroom for the main
   domain and any domains the caller spawned itself. *)
let max_workers = 112

(* Under [pool.lock]. *)
let ensure_workers target =
  for id = pool.workers to min target max_workers - 1 do
    let s =
      {
        name = Printf.sprintf "worker%d" id;
        tasks = Metrics.counter (Printf.sprintf "sched/worker%d/tasks" id);
        track = None;
      }
    in
    (match
       Domain.spawn (fun () ->
           Domain.DLS.set self_key s;
           worker_loop s)
     with
    | d ->
        Metrics.incr domains_spawned;
        pool.spawned <- d :: pool.spawned
    | exception _ -> (* Out of domains: run narrower. *) ());
    pool.workers <- id + 1
  done

(* Wait for every claimed item of [r] to finish, helping with the
   newest open region (often [r] itself or one nested inside it) while
   there is one. *)
let rec join s track r =
  if not (finished r) then begin
    (match find_region track with
    | Some other ->
        let state = if other == r then FR.Run_task else FR.Join_help in
        drain track ~state ~stop:(fun () -> finished r) ~count:s.tasks other
    | None -> park track ~until:(fun () -> finished r));
    join s track r
  end

let pool_parallel_init ~domains n f =
  let results = Array.make n None in
  let error = Atomic.make None in
  let run_item i =
    let was_in_region = Domain.DLS.get in_region_key in
    Domain.DLS.set in_region_key true;
    Metrics.incr tasks_run;
    (match f i with
    | v -> results.(i) <- Some v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set error None (Some (e, bt))));
    Domain.DLS.set in_region_key was_in_region
  in
  let r = { n; next = Atomic.make 0; completed = Atomic.make 0; error; run_item } in
  Metrics.incr regions_run;
  let s = Domain.DLS.get self_key in
  let track = track_of s in
  if Option.is_some track then Trace_export.ensure_flight_at_exit ();
  let t0 = clock track in
  Mutex.lock pool.lock;
  ensure_workers (domains - 1);
  pool.regions <- r :: pool.regions;
  Condition.broadcast pool.cond;
  Mutex.unlock pool.lock;
  span track FR.Inject t0;
  drain track ~state:FR.Run_task ~count:s.tasks r;
  join s track r;
  (match Atomic.get error with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  Array.map Option.get results

let pool_workers () =
  Mutex.lock pool.lock;
  let w = pool.workers in
  Mutex.unlock pool.lock;
  w

(* -- front door ------------------------------------------------------------ *)

let parallel_init ?domains n f =
  if n < 0 then invalid_arg "Domain_pool.parallel_init: negative size";
  let domains = match domains with Some d -> d | None -> recommended_domains () in
  if domains <= 1 || n <= 1 then begin
    Metrics.incr inline_sweeps;
    Metrics.add tasks_run n;
    Array.init n f
  end
  else pool_parallel_init ~domains n f

let parallel_map_list ?domains f items =
  let arr = Array.of_list items in
  Array.to_list (parallel_init ?domains (Array.length arr) (fun i -> f arr.(i)))

let both ?domains f g =
  let r =
    parallel_init ?domains 2 (fun i -> if i = 0 then Either.Left (f ()) else Either.Right (g ()))
  in
  match (r.(0), r.(1)) with
  | Either.Left a, Either.Right b -> (a, b)
  | _ -> assert false
