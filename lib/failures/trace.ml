module Rng = Ckpt_prng.Rng
module Distribution = Ckpt_distributions.Distribution

type t = { failure_times : float array; horizon : float }

let generate rng dist ~horizon =
  if horizon <= 0. then invalid_arg "Trace.generate: horizon must be positive";
  let acc = ref [] in
  let time = ref 0. in
  let continue = ref true in
  while !continue do
    let x = dist.Distribution.sample rng in
    (* A zero inter-arrival would stall the renewal process; clamp to
       a strictly positive epsilon (possible with empirical samples). *)
    let x = Float.max x 1e-9 in
    time := !time +. x;
    if !time >= horizon then continue := false else acc := !time :: !acc
  done;
  { failure_times = Array.of_list (List.rev !acc); horizon }

let of_times ~horizon times =
  if not (horizon > 0.) then invalid_arg "Trace.of_times: horizon must be positive";
  let times = Array.copy times in
  let n = Array.length times in
  for i = 0 to n - 1 do
    (* Written positively so a NaN date fails it too. *)
    if not (times.(i) >= 0. && times.(i) < horizon) then
      invalid_arg "Trace.of_times: date outside [0, horizon)";
    if i > 0 && times.(i) <= times.(i - 1) then
      invalid_arg "Trace.of_times: dates must be strictly increasing"
  done;
  { failure_times = times; horizon }

let empty ~horizon = of_times ~horizon [||]

let count t = Array.length t.failure_times

(* Index of the first date >= time, or length if none. *)
let first_index_at_or_after t time =
  let a = t.failure_times in
  let n = Array.length a in
  if n = 0 || a.(n - 1) < time then n
  else if a.(0) >= time then 0
  else begin
    (* Invariant: a.(lo) < time <= a.(hi). *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if a.(mid) >= time then hi := mid else lo := mid
    done;
    !hi
  end

let next_failure_at_or_after t time =
  let i = first_index_at_or_after t time in
  if i >= Array.length t.failure_times then None else Some t.failure_times.(i)

let last_failure_before t time =
  let i = first_index_at_or_after t time in
  if i = 0 then None else Some t.failure_times.(i - 1)

let count_in_window t ~lo ~hi =
  if hi <= lo then 0
  else first_index_at_or_after t hi - first_index_at_or_after t lo
