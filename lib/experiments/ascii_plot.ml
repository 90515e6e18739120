type options = {
  width : int;
  height : int;
  log_x : bool;
  y_min : float option;
  y_max : float option;
}

let default_options = { width = 72; height = 18; log_x = false; y_min = None; y_max = None }

let glyphs = [| '*'; 'o'; '+'; 'x'; '#'; '@'; '%'; '&'; '='; '~'; '$'; '^' |]

let finite_points series =
  List.concat_map
    (fun s ->
      List.filter (fun (x, y) -> Float.is_finite x && Float.is_finite y) s.Report.points)
    series

let render ?(options = default_options) series =
  if series = [] then invalid_arg "Ascii_plot.render: no series";
  let points = finite_points series in
  if points = [] then invalid_arg "Ascii_plot.render: no finite points";
  let xs = List.map fst points and ys = List.map snd points in
  let fold f = List.fold_left f in
  let x_of v = if options.log_x then log v /. log 2. else v in
  let x_lo = x_of (fold Float.min infinity xs) and x_hi = x_of (fold Float.max neg_infinity xs) in
  let y_lo =
    match options.y_min with Some v -> v | None -> fold Float.min infinity ys
  in
  let y_hi =
    match options.y_max with Some v -> v | None -> fold Float.max neg_infinity ys
  in
  let y_lo, y_hi = if y_hi <= y_lo then (y_lo -. 0.5, y_lo +. 0.5) else (y_lo, y_hi) in
  let x_lo, x_hi = if x_hi <= x_lo then (x_lo -. 0.5, x_lo +. 0.5) else (x_lo, x_hi) in
  let w = max 16 options.width and h = max 4 options.height in
  let canvas = Array.make_matrix h w ' ' in
  let col x =
    let t = (x_of x -. x_lo) /. (x_hi -. x_lo) in
    min (w - 1) (max 0 (int_of_float (Float.round (t *. float_of_int (w - 1)))))
  in
  let row y =
    let t = (y -. y_lo) /. (y_hi -. y_lo) in
    let r = int_of_float (Float.round (t *. float_of_int (h - 1))) in
    (* Row 0 is the top of the canvas. *)
    h - 1 - min (h - 1) (max 0 r)
  in
  List.iteri
    (fun i s ->
      let glyph = glyphs.(i mod Array.length glyphs) in
      List.iter
        (fun (x, y) ->
          if Float.is_finite x && Float.is_finite y && y >= y_lo && y <= y_hi then
            canvas.(row y).(col x) <- glyph)
        s.Report.points)
    series;
  let buf = Buffer.create ((h + List.length series + 2) * (w + 12)) in
  Array.iteri
    (fun r line ->
      let label =
        if r = 0 then Printf.sprintf "%10.4g |" y_hi
        else if r = h - 1 then Printf.sprintf "%10.4g |" y_lo
        else Printf.sprintf "%10s |" ""
      in
      Buffer.add_string buf label;
      Buffer.add_string buf (String.init w (fun c -> line.(c)));
      Buffer.add_char buf '\n')
    canvas;
  Buffer.add_string buf (Printf.sprintf "%10s +%s\n" "" (String.make w '-'));
  Buffer.add_string buf
    (Printf.sprintf "%10s  %-*.4g%*.4g%s\n" "" (w / 2)
       (if options.log_x then x_lo else x_lo)
       (w - (w / 2))
       (if options.log_x then x_hi else x_hi)
       (if options.log_x then "  (log2 x)" else ""));
  List.iteri
    (fun i s ->
      Buffer.add_string buf
        (Printf.sprintf "%10s  %c %s\n" "" glyphs.(i mod Array.length glyphs) s.Report.label))
    series;
  Buffer.contents buf

let print ?options series =
  if finite_points series <> [] then print_string (render ?options series)
