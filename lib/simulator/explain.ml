module Policy = Ckpt_policies.Policy
module Job = Ckpt_policies.Job
module Rationale = Ckpt_policies.Rationale
module Tracer = Ckpt_telemetry.Tracer

(* What one decision led to: everything between it and the next
   decision (or the end of the run). *)
type realized =
  | Committed of { work : float; checkpoint : float }
  | Destroyed of { lost : float; downtime : float; recovery : float; failures : int }
      (** [lost] is the execution/checkpoint time destroyed ([Waste]
          spans); [recovery] sums aborted spans and the completed
          recovery's exact cost. *)
  | Pending  (** trailing decision with no further events (ring
                 overflow or a truncated stream). *)

type decision = {
  index : int;  (** 1-based position in the decision sequence. *)
  at : float;  (** simulated time of the decision. *)
  chunk : float;  (** chosen chunk (seconds of work). *)
  remaining : float;  (** work left before the chunk. *)
  rationale : Rationale.t option;
      (** [None] when the event stream lost the pairing (dropped
          events). *)
  realized : realized;
}

type t = {
  policy_name : string;
  replicate : int;
  start_time : float;
  outcome : Engine.outcome;
  decisions : decision list;
  declined : (float * float) option;
      (** [(at_time, remaining)] when the policy answered [None]. *)
  totals : Tracer.totals;
  events : int;
  dropped : int;
}

(* The rationale is recorded inside the policy's own decision calls —
   the observation in hand is exactly what the policy saw, so no age
   reconstruction from the event stream is needed — and the wrapper
   forwards the policy's answer unchanged, so the replayed execution
   is bit-identical to an unwrapped run. *)
let instrument ~dist ~overhead ~record (policy : Policy.t) =
  {
    policy with
    Policy.instantiate =
      (fun () ->
        let instance = policy.Policy.instantiate () in
        fun obs ->
          let answer = instance obs in
          (match answer with
          | Some chunk ->
              let chunk = Policy.clamp_chunk ~remaining:obs.Policy.remaining chunk in
              record (Some (Rationale.of_observation dist obs ~window:(chunk +. overhead)))
          | None -> record None);
          answer);
  }

let segment_events events =
  (* Split the chronological stream at Decision events: the list of
     (decision event, events until the next decision). *)
  let rec go acc current = function
    | [] -> List.rev (match current with None -> acc | Some c -> c :: acc)
    | Tracer.Decision { at; chunk; remaining } :: rest ->
        let acc = match current with None -> acc | Some c -> c :: acc in
        go acc (Some ((at, chunk, remaining), [])) rest
    | e :: rest -> (
        match current with
        | None -> go acc None rest (* pre-decision events: none today *)
        | Some (d, es) -> go acc (Some (d, e :: es)) rest)
  in
  List.map (fun (d, es) -> (d, List.rev es)) (go [] None events)

let realize events =
  let committed =
    List.find_map
      (function Tracer.Chunk_commit { work; _ } -> Some work | _ -> None)
      events
  in
  match committed with
  | Some work ->
      let checkpoint =
        List.fold_left
          (fun acc -> function Tracer.Checkpoint { cost; _ } -> acc +. cost | _ -> acc)
          0. events
      in
      Committed { work; checkpoint }
  | None ->
      if events = [] then Pending
      else begin
        let lost, downtime, recovery, failures =
          List.fold_left
            (fun (l, d, r, f) -> function
              | Tracer.Waste { t0; t1 } -> (l +. (t1 -. t0), d, r, f)
              | Tracer.Downtime { t0; t1 } -> (l, d +. (t1 -. t0), r, f)
              | Tracer.Recovery_abort { t0; t1 } -> (l, d, r +. (t1 -. t0), f)
              | Tracer.Recovery_complete { cost; _ } -> (l, d, r +. cost, f)
              | Tracer.Failure _ -> (l, d, r, f + 1)
              | _ -> (l, d, r, f))
            (0., 0., 0., 0) events
        in
        Destroyed { lost; downtime; recovery; failures }
      end

let run ~scenario ~policy ~replicate =
  let job = scenario.Scenario.job in
  let recorded = ref [] in
  let instrumented =
    instrument ~dist:job.Job.dist ~overhead:(Job.checkpoint_cost job)
      ~record:(fun r -> recorded := r :: !recorded)
      policy
  in
  let traces = Scenario.traces scenario ~replicate in
  let buffer =
    Tracer.create_buffer
      ~name:(Printf.sprintf "explain/rep%d/%s" replicate policy.Policy.name)
      ()
  in
  let outcome = Engine.run ~trace:buffer ~scenario ~traces ~policy:instrumented () in
  let recorded = List.rev !recorded in
  let declined =
    match outcome with
    | Engine.Policy_failed { at_time; remaining } -> Some (at_time, remaining)
    | Engine.Completed _ -> None
  in
  (* Decision events pair 1:1, in order, with the recorded [Some]
     rationales (a [None] answer emits no Decision event and ends the
     run).  If the ring dropped early events the head of the recorded
     list has no surviving event; align from the tail. *)
  let rationales = List.filter_map Fun.id recorded in
  let segments = segment_events (Tracer.to_list buffer) in
  let skew = List.length rationales - List.length segments in
  let rationales =
    if skew > 0 then List.filteri (fun i _ -> i >= skew) rationales
    else rationales
  in
  let decisions =
    List.mapi
      (fun i ((at, chunk, remaining), events) ->
        {
          index = i + 1;
          at;
          chunk;
          remaining;
          rationale = List.nth_opt rationales i;
          realized = realize events;
        })
      segments
  in
  {
    policy_name = policy.Policy.name;
    replicate;
    start_time = scenario.Scenario.start_time;
    outcome;
    decisions;
    declined;
    totals = Tracer.totals buffer;
    events = Tracer.length buffer;
    dropped = Tracer.dropped buffer;
  }

let reconciles t =
  match t.outcome with
  | Engine.Policy_failed _ -> false
  | Engine.Completed m ->
      t.dropped = 0
      && t.totals.Tracer.work = m.Engine.useful_work
      && t.totals.Tracer.checkpoint = m.Engine.checkpoint_time
      && t.totals.Tracer.waste = m.Engine.wasted_time
      && t.totals.Tracer.recovery = m.Engine.recovery_time
      && t.totals.Tracer.downtime = m.Engine.stall_time
      && t.totals.Tracer.failures = m.Engine.failures
      && t.totals.Tracer.chunks = m.Engine.chunks

let pp_realized fmt = function
  | Committed { work; checkpoint } ->
      Format.fprintf fmt "committed: %.4g s of work + %.4g s checkpoint" work checkpoint
  | Destroyed { lost; downtime; recovery; failures } ->
      Format.fprintf fmt
        "destroyed by %d failure%s: %.4g s lost, %.4g s downtime, %.4g s recovery" failures
        (if failures = 1 then "" else "s")
        lost downtime recovery
  | Pending -> Format.fprintf fmt "(no surviving events)"

let pp_decision fmt d =
  Format.fprintf fmt "@[<v 2>#%-3d t = %14.2f s  chunk %12.4g s  (remaining %12.4g s)" d.index
    d.at d.chunk d.remaining;
  (match d.rationale with
  | Some r -> Format.fprintf fmt "@,rationale: %a" Rationale.pp r
  | None -> ());
  Format.fprintf fmt "@,outcome:   %a@]" pp_realized d.realized

let print ?(limit = 20) fmt t =
  Format.fprintf fmt "@[<v>policy %s, replicate %d: %d decisions (%d events, %d dropped)@,"
    t.policy_name t.replicate (List.length t.decisions) t.events t.dropped;
  let shown = if limit < 0 then t.decisions else List.filteri (fun i _ -> i < limit) t.decisions in
  List.iter (fun d -> Format.fprintf fmt "%a@," pp_decision d) shown;
  let hidden = List.length t.decisions - List.length shown in
  if hidden > 0 then Format.fprintf fmt "... (%d more decisions; raise --limit)@," hidden;
  (match t.declined with
  | Some (at, remaining) ->
      Format.fprintf fmt "policy declined at t = %.2f s with %.4g s of work left@," at remaining
  | None -> ());
  (match t.outcome with
  | Engine.Policy_failed _ -> ()
  | Engine.Completed m ->
      let pct v = 100. *. v /. m.Engine.makespan in
      Format.fprintf fmt "@,@[<v 2>waste decomposition (reconciled against the event stream):";
      Format.fprintf fmt "@,%-16s %16.4f s" "makespan" m.Engine.makespan;
      List.iter
        (fun (label, engine, traced) ->
          Format.fprintf fmt "@,%-16s %16.4f s  (%5.1f%%)  trace %s" label engine (pct engine)
            (if engine = traced then "=" else Printf.sprintf "%.17g" traced))
        [
          ("useful work", m.Engine.useful_work, t.totals.Tracer.work);
          ("checkpoints", m.Engine.checkpoint_time, t.totals.Tracer.checkpoint);
          ("wasted", m.Engine.wasted_time, t.totals.Tracer.waste);
          ("recoveries", m.Engine.recovery_time, t.totals.Tracer.recovery);
          ("downtime stalls", m.Engine.stall_time, t.totals.Tracer.downtime);
        ];
      Format.fprintf fmt "@,%-16s %16d     trace %s" "failures" m.Engine.failures
        (if t.totals.Tracer.failures = m.Engine.failures then "=" else
           string_of_int t.totals.Tracer.failures);
      Format.fprintf fmt "@,%-16s %16d     trace %s" "chunks" m.Engine.chunks
        (if t.totals.Tracer.chunks = m.Engine.chunks then "=" else
           string_of_int t.totals.Tracer.chunks);
      (* The engine enforces the identity at the absolute simulated
         clock; report the same tolerance it checked against. *)
      Format.fprintf fmt "@,accounting residual %.3g s (tolerance %.3g s)"
        (Engine.accounting_residual m)
        (Engine.accounting_tolerance ~clock:(t.start_time +. m.Engine.makespan) m);
      Format.fprintf fmt "@,reconciliation: %s@]"
        (if reconciles t then "exact (bitwise)"
         else if t.dropped > 0 then "unavailable (ring dropped events)"
         else "MISMATCH"));
  Format.fprintf fmt "@]"
