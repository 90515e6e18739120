module Empirical = Ckpt_distributions.Empirical

type t = { intervals : float array; nodes : int }

let of_intervals ?nodes intervals =
  if Array.length intervals = 0 then invalid_arg "Failure_log.of_intervals: empty";
  Array.iter
    (fun x -> if x <= 0. then invalid_arg "Failure_log.of_intervals: non-positive duration")
    intervals;
  let nodes = match nodes with Some n -> n | None -> 1 in
  { intervals; nodes }

let parse_string text =
  let lines = String.split_on_char '\n' text in
  let node_ids = Hashtbl.create 64 in
  let intervals = ref [] in
  List.iteri
    (fun lineno line ->
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then begin
        match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
        | [ node; duration ] -> begin
            match float_of_string_opt duration with
            | Some d when d > 0. && Float.is_finite d ->
                Hashtbl.replace node_ids node ();
                intervals := d :: !intervals
            | Some _ | None ->
                failwith (Printf.sprintf "Failure_log.parse_string: bad duration at line %d" (lineno + 1))
          end
        | _ -> failwith (Printf.sprintf "Failure_log.parse_string: bad record at line %d" (lineno + 1))
      end)
    lines;
  match !intervals with
  | [] -> failwith "Failure_log.parse_string: no records"
  | l -> { intervals = Array.of_list (List.rev l); nodes = Hashtbl.length node_ids }

let load path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  parse_string text

let save t ~node_of_interval path =
  let oc = open_out path in
  Printf.fprintf oc "# availability log: %d intervals over %d nodes\n" (Array.length t.intervals)
    t.nodes;
  Array.iteri (fun i d -> Printf.fprintf oc "n%04d %.3f\n" (node_of_interval i) d) t.intervals;
  close_out oc

let to_distribution t = Empirical.of_intervals t.intervals

let mean_interval t =
  Array.fold_left ( +. ) 0. t.intervals /. float_of_int (Array.length t.intervals)

let count t = Array.length t.intervals
