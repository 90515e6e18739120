let to_string traces =
  let buf = Buffer.create 4096 in
  let units = Trace_set.processors traces in
  Buffer.add_string buf
    (Printf.sprintf "# ckpt-traces v1 units=%d horizon=%.9g\n" units (Trace_set.horizon traces));
  for i = 0 to units - 1 do
    Array.iter
      (fun date -> Buffer.add_string buf (Printf.sprintf "%d %.9g\n" i date))
      (Trace_set.trace traces i).Trace.failure_times
  done;
  Buffer.contents buf

let save traces path =
  let oc = open_out path in
  output_string oc (to_string traces);
  close_out oc

let of_string text =
  let lines = String.split_on_char '\n' text in
  let header, body =
    match lines with
    | h :: rest -> (h, rest)
    | [] -> failwith "Trace_io.of_string: empty input"
  in
  let units, horizon =
    try Scanf.sscanf header "# ckpt-traces v1 units=%d horizon=%f" (fun u h -> (u, h))
    with Scanf.Scan_failure _ | Failure _ | End_of_file ->
      failwith "Trace_io.of_string: bad header"
  in
  if units <= 0 then failwith "Trace_io.of_string: bad unit count";
  if not (horizon > 0. && Float.is_finite horizon) then failwith "Trace_io.of_string: bad horizon";
  let per_unit = Array.make units [] in
  List.iteri
    (fun lineno line ->
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then begin
        match String.index_opt line ' ' with
        | None -> failwith (Printf.sprintf "Trace_io.of_string: bad record at line %d" (lineno + 2))
        | Some cut -> begin
            let unit_s = String.sub line 0 cut in
            let date_s = String.sub line (cut + 1) (String.length line - cut - 1) in
            match (int_of_string_opt unit_s, float_of_string_opt date_s) with
            | Some u, Some d when u >= 0 && u < units ->
                per_unit.(u) <- d :: per_unit.(u)
            | _ ->
                failwith
                  (Printf.sprintf "Trace_io.of_string: bad record at line %d" (lineno + 2))
          end
      end)
    body;
  let trace dates =
    try Trace.of_times ~horizon (Array.of_list (List.rev dates))
    with Invalid_argument msg -> failwith ("Trace_io.of_string: " ^ msg)
  in
  Trace_set.of_traces (Array.map trace per_unit)

let load path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  of_string text
