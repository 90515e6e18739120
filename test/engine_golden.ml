(* The engine's golden matrix: scenarios, policies and a canonical
   text encoding of outcomes and event streams, digested per cell.
   The committed digests in engine_goldens.txt were recorded from the
   original per-replicate scalar engine before it was deleted; the
   single stripe engine must reproduce every one of them bit for bit.

   Cells: distribution {exp, weib} x policy {periodic, declining
   pure-scalar, age-dependent stateless, DPNextFailure} x stripe width
   {1, 3, 16} x start_time {0, 2000}, for plain runs, progress-
   dependent-cost runs and the omniscient lower bound (no policy axis),
   each with its outcome digest and its per-slot event-stream digest.

   File format: one "<key> <md5 hex>" per line. *)

module Scenario = Ckpt_simulator.Scenario
module Engine = Ckpt_simulator.Engine
module Policy = Ckpt_policies.Policy
module Job = Ckpt_policies.Job
module Tracer = Ckpt_telemetry.Tracer
module Machine = Ckpt_platform.Machine
module Overhead = Ckpt_platform.Overhead

let dists =
  [
    ("exp", Ckpt_distributions.Exponential.of_mtbf ~mtbf:2500.);
    ("weib", Ckpt_distributions.Weibull.of_mtbf ~mtbf:2500. ~shape:0.7);
  ]

let widths = [ 1; 3; 16 ]
let start_times = [ 0.; 2000. ]

(* Slot [k] of a width-[w] cell runs on replicate [first_replicate + k]. *)
let first_replicate = 11

let scenario ~dist ~start_time =
  Scenario.create ~horizon:1e7 ~start_time
    (Job.create ~dist ~processors:2
       ~machine:
         (Machine.create ~total_processors:2 ~downtime:40. ~overhead:(Overhead.constant 120.))
       ~work_time:15_000.)

let policies job =
  [
    ("periodic", Policy.periodic "p" ~period:1200.);
    (* Declines below a remaining threshold: some slots end as
       Policy_failed while others keep stepping. *)
    ( "declining",
      Policy.pure_scalar "quits" (fun obs ->
          if obs.Policy.remaining < 6000. then None else Some 1500.) );
    (* Reads min_age, so observations vary across slots. *)
    ( "agey",
      Policy.stateless "agey" (fun obs ->
          Some (Float.max 400. (1000. +. (0.1 *. obs.Policy.min_age)))) );
    ("dpnf", Ckpt_policies.Dp_policies.dp_next_failure ~max_states:60 job);
  ]

(* A genuinely varying profile, so the cost cells exercise operands
   the constant-cost path never produces. *)
let cost_profile ~progress = (120. +. (30. *. progress), 120. -. (20. *. progress))

let traces scenario ~width =
  Array.init width (fun k -> Scenario.traces scenario ~replicate:(first_replicate + k))

let buffers ~width =
  Array.init width (fun k -> Tracer.create_buffer ~capacity:65_536 ~name:(Printf.sprintf "slot%d" k) ())

let cell ~kind ~dist ?policy ~width ~start_time () =
  Printf.sprintf "%s/%s/%sw%d/t%.0f" kind dist
    (match policy with Some p -> p ^ "/" | None -> "")
    width start_time

(* -- canonical encoding ------------------------------------------------------ *)

let string_of_metrics (m : Engine.metrics) =
  Printf.sprintf "C %h %h %h %h %h %h %d %d %h %h" m.Engine.makespan m.Engine.useful_work
    m.Engine.checkpoint_time m.Engine.wasted_time m.Engine.recovery_time m.Engine.stall_time
    m.Engine.failures m.Engine.chunks m.Engine.min_chunk m.Engine.max_chunk

let string_of_outcome = function
  | Engine.Completed m -> string_of_metrics m
  | Engine.Policy_failed { at_time; remaining } -> Printf.sprintf "F %h %h" at_time remaining

let string_of_event = function
  | Tracer.Decision { at; chunk; remaining } -> Printf.sprintf "decision %h %h %h" at chunk remaining
  | Tracer.Chunk_start { at; work } -> Printf.sprintf "start %h %h" at work
  | Tracer.Chunk_commit { t0; t1; work } -> Printf.sprintf "commit %h %h %h" t0 t1 work
  | Tracer.Checkpoint { t0; t1; cost } -> Printf.sprintf "checkpoint %h %h %h" t0 t1 cost
  | Tracer.Failure { at; proc } -> Printf.sprintf "failure %h %d" at proc
  | Tracer.Waste { t0; t1 } -> Printf.sprintf "waste %h %h" t0 t1
  | Tracer.Downtime { t0; t1 } -> Printf.sprintf "downtime %h %h" t0 t1
  | Tracer.Recovery_start { at } -> Printf.sprintf "recovery-start %h" at
  | Tracer.Recovery_abort { t0; t1 } -> Printf.sprintf "recovery-abort %h %h" t0 t1
  | Tracer.Recovery_complete { t0; t1; cost } ->
      Printf.sprintf "recovery-complete %h %h %h" t0 t1 cost

let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))
let digest_outcomes outcomes = digest (Array.to_list (Array.map string_of_outcome outcomes))

(* Slots are delimited, and a ring that overflowed could not pin the
   full stream, so its drop count is part of the encoding. *)
let digest_streams bufs =
  digest
    (List.concat_map
       (fun b ->
         Printf.sprintf "slot dropped=%d" (Tracer.dropped b)
         :: List.map string_of_event (Tracer.to_list b))
       (Array.to_list bufs))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> (
            match String.split_on_char ' ' (String.trim line) with
            | [ key; d ] -> go ((key, d) :: acc)
            | _ -> go acc)
        | exception End_of_file -> List.rev acc
      in
      go [])
