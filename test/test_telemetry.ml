(* Telemetry subsystem: metrics registry semantics, histogram merging,
   trace ring buffers, export formats and provenance sidecars. *)

module Metrics = Ckpt_telemetry.Metrics
module Tracer = Ckpt_telemetry.Tracer
module Trace_export = Ckpt_telemetry.Trace_export
module Provenance = Ckpt_telemetry.Provenance
module FR = Ckpt_telemetry.Flight_recorder
module Json = Ckpt_telemetry.Json
module Metrics_export = Ckpt_telemetry.Metrics_export

let check = Alcotest.check
let close ?(tol = 1e-9) msg expected actual =
  Alcotest.check (Alcotest.float tol) msg expected actual

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_metrics f =
  Metrics.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())

(* -- metrics registry ------------------------------------------------------- *)

let test_metrics_kinds () =
  with_metrics (fun () ->
      let c = Metrics.counter "test/kinds_counter" in
      Metrics.incr c;
      Metrics.add c 4;
      (match Metrics.find "test/kinds_counter" with
      | Some (Metrics.Counter 5) -> ()
      | v -> Alcotest.failf "counter: unexpected %a" (Fmt.option Metrics.pp_value) v);
      let g = Metrics.gauge "test/kinds_gauge" in
      Metrics.set g 2.5;
      Metrics.set g 7.25;
      (match Metrics.find "test/kinds_gauge" with
      | Some (Metrics.Gauge 7.25) -> ()
      | v -> Alcotest.failf "gauge: unexpected %a" (Fmt.option Metrics.pp_value) v);
      let t = Metrics.timer "test/kinds_timer" in
      Metrics.record t 0.5;
      Metrics.record t 1.5;
      (match Metrics.find "test/kinds_timer" with
      | Some (Metrics.Timer { seconds; calls }) ->
          close "timer seconds" 2.0 seconds;
          check Alcotest.int "timer calls" 2 calls
      | v -> Alcotest.failf "timer: unexpected %a" (Fmt.option Metrics.pp_value) v);
      let h = Metrics.histogram "test/kinds_hist" in
      Metrics.observe h 1.0;
      Metrics.observe h 4.0;
      match Metrics.find "test/kinds_hist" with
      | Some (Metrics.Histogram s) ->
          check Alcotest.int "hist count" 2 s.Metrics.count;
          close "hist sum" 5.0 s.Metrics.sum;
          close "hist min" 1.0 s.Metrics.min_v;
          close "hist max" 4.0 s.Metrics.max_v
      | v -> Alcotest.failf "histogram: unexpected %a" (Fmt.option Metrics.pp_value) v)

let test_metrics_kind_mismatch () =
  with_metrics (fun () ->
      ignore (Metrics.counter "test/mismatch");
      check Alcotest.bool "re-registering same kind is fine" true
        (ignore (Metrics.counter "test/mismatch");
         true);
      match Metrics.gauge "test/mismatch" with
      | _ -> Alcotest.fail "kind mismatch must raise"
      | exception Invalid_argument _ -> ())

let test_metrics_gating () =
  Metrics.set_enabled false;
  let c = Metrics.counter "test/gated_counter" in
  let h = Metrics.histogram "test/gated_hist" in
  let t = Metrics.timer "test/gated_timer" in
  Metrics.reset ~prefix:"test/gated" ();
  Metrics.incr c;
  Metrics.observe h 3.0;
  Metrics.record t 1.0;
  (match Metrics.find "test/gated_counter" with
  | Some (Metrics.Counter 0) -> ()
  | _ -> Alcotest.fail "disabled counter must not move");
  (match Metrics.find "test/gated_hist" with
  | Some (Metrics.Histogram s) -> check Alcotest.int "disabled hist empty" 0 s.Metrics.count
  | _ -> Alcotest.fail "histogram registered");
  match Metrics.find "test/gated_timer" with
  | Some (Metrics.Timer { calls = 0; _ }) -> ()
  | _ -> Alcotest.fail "disabled timer must not move"

let test_metrics_reset_prefix () =
  with_metrics (fun () ->
      let a = Metrics.counter "resetme/a" in
      let b = Metrics.counter "keepme/b" in
      Metrics.incr a;
      Metrics.incr b;
      Metrics.reset ~prefix:"resetme/" ();
      (match Metrics.find "resetme/a" with
      | Some (Metrics.Counter 0) -> ()
      | _ -> Alcotest.fail "prefixed metric reset");
      match Metrics.find "keepme/b" with
      | Some (Metrics.Counter 1) -> ()
      | _ -> Alcotest.fail "other metric untouched")

let test_metrics_snapshot_sorted () =
  with_metrics (fun () ->
      Metrics.incr (Metrics.counter "zz/last");
      Metrics.incr (Metrics.counter "aa/first");
      let names = List.map fst (Metrics.snapshot ()) in
      check Alcotest.bool "snapshot sorted by name" true
        (List.sort compare names = names);
      check Alcotest.bool "snapshot non-empty" true (names <> []))

(* -- histogram algebra ------------------------------------------------------ *)

let snapshot_of values =
  with_metrics (fun () ->
      let h = Metrics.histogram "test/tmp_hist_build" in
      Metrics.reset ~prefix:"test/tmp_hist_build" ();
      List.iter (Metrics.observe h) values;
      match Metrics.find "test/tmp_hist_build" with
      | Some (Metrics.Histogram s) -> s
      | _ -> Alcotest.fail "histogram snapshot")

let test_histogram_merge () =
  let xs = [ 0.001; 0.01; 0.1; 1.0 ] and ys = [ 2.0; 4.0; 64.0 ] in
  let merged = Metrics.merge_histograms (snapshot_of xs) (snapshot_of ys) in
  let direct = snapshot_of (xs @ ys) in
  check Alcotest.int "merged count" direct.Metrics.count merged.Metrics.count;
  close "merged sum" direct.Metrics.sum merged.Metrics.sum;
  close "merged min" direct.Metrics.min_v merged.Metrics.min_v;
  close "merged max" direct.Metrics.max_v merged.Metrics.max_v;
  check Alcotest.bool "merged buckets" true (merged.Metrics.buckets = direct.Metrics.buckets);
  (* Commutativity and the identity element. *)
  let swapped = Metrics.merge_histograms (snapshot_of ys) (snapshot_of xs) in
  check Alcotest.bool "commutative" true (swapped = merged);
  let with_empty = Metrics.merge_histograms direct Metrics.empty_histogram in
  check Alcotest.bool "empty is identity" true (with_empty = direct)

let test_histogram_moments () =
  let s = snapshot_of [ 1.0; 2.0; 3.0; 10.0 ] in
  close "mean" 4.0 (Metrics.histogram_mean s);
  let q0 = Metrics.histogram_quantile s 0.0 and q1 = Metrics.histogram_quantile s 1.0 in
  check Alcotest.bool "quantiles bracket the data" true (q0 <= q1);
  check Alcotest.bool "median within range" true
    (let m = Metrics.histogram_quantile s 0.5 in
     m >= s.Metrics.min_v /. 2. && m <= s.Metrics.max_v *. 2.);
  check Alcotest.bool "bucket_lower monotone" true
    (Metrics.bucket_lower 10 < Metrics.bucket_lower 11)

(* -- trace ring buffers ----------------------------------------------------- *)

let span t0 t1 = Tracer.Chunk_commit { t0; t1; work = t1 -. t0 }

let test_buffer_wraparound () =
  let buf = Tracer.create_buffer ~capacity:4 ~name:"wrap" () in
  for i = 0 to 9 do
    Tracer.emit buf (span (float_of_int i) (float_of_int i +. 1.))
  done;
  check Alcotest.int "length capped" 4 (Tracer.length buf);
  check Alcotest.int "dropped counts overwrites" 6 (Tracer.dropped buf);
  let surviving = Tracer.to_list buf in
  check Alcotest.int "to_list length" 4 (List.length surviving);
  (* Oldest surviving first: events 6, 7, 8, 9. *)
  List.iteri
    (fun i ev ->
      match ev with
      | Tracer.Chunk_commit { t0; _ } -> close "chronological" (float_of_int (6 + i)) t0
      | _ -> Alcotest.fail "unexpected event")
    surviving;
  Tracer.clear buf;
  check Alcotest.int "clear empties" 0 (Tracer.length buf)

let test_buffer_totals () =
  let buf = Tracer.create_buffer ~capacity:64 ~name:"totals" () in
  Tracer.emit buf (Tracer.Decision { at = 0.; chunk = 10.; remaining = 30. });
  Tracer.emit buf (Tracer.Chunk_start { at = 0.; work = 10. });
  Tracer.emit buf (Tracer.Chunk_commit { t0 = 0.; t1 = 10.; work = 10. });
  Tracer.emit buf (Tracer.Checkpoint { t0 = 10.; t1 = 13.; cost = 3. });
  Tracer.emit buf (Tracer.Failure { at = 15.; proc = 0 });
  Tracer.emit buf (Tracer.Waste { t0 = 13.; t1 = 15. });
  Tracer.emit buf (Tracer.Downtime { t0 = 15.; t1 = 16. });
  Tracer.emit buf (Tracer.Recovery_start { at = 16. });
  Tracer.emit buf (Tracer.Recovery_abort { t0 = 16.; t1 = 17. });
  Tracer.emit buf (Tracer.Recovery_complete { t0 = 18.; t1 = 20.; cost = 2. });
  let t = Tracer.totals buf in
  close "work" 10. t.Tracer.work;
  close "checkpoint" 3. t.Tracer.checkpoint;
  close "waste" 2. t.Tracer.waste;
  close "recovery (abort + complete)" 3. t.Tracer.recovery;
  close "downtime" 1. t.Tracer.downtime;
  check Alcotest.int "failures" 1 t.Tracer.failures;
  check Alcotest.int "chunks" 1 t.Tracer.chunks;
  check Alcotest.int "decisions" 1 t.Tracer.decisions

let test_sink_register_drain () =
  (* Leave the sink as we found it. *)
  let stale, _ = Tracer.drain () in
  List.iter Tracer.register stale;
  let a = Tracer.create_buffer ~capacity:8 ~name:"sink-a" () in
  let b = Tracer.create_buffer ~capacity:8 ~name:"sink-b" () in
  Tracer.register a;
  Tracer.register b;
  let drained, rejected = Tracer.drain () in
  let names = List.map Tracer.name drained in
  check Alcotest.bool "registration order preserved" true
    (List.filter (fun n -> n = "sink-a" || n = "sink-b") names = [ "sink-a"; "sink-b" ]);
  check Alcotest.int "nothing rejected" 0 rejected;
  let after, _ = Tracer.drain () in
  check Alcotest.int "drain empties the sink" 0 (List.length after)

(* -- export formats --------------------------------------------------------- *)

let test_jsonl_line () =
  let line =
    Trace_export.jsonl_line ~buffer_name:"rep0/Daly"
      (Tracer.Chunk_commit { t0 = 1.5; t1 = 2.5; work = 1.0 })
  in
  check Alcotest.bool "names the buffer" true (contains ~needle:"rep0/Daly" line);
  check Alcotest.bool "names the event" true (contains ~needle:"chunk-commit" line);
  check Alcotest.bool "single line" true (not (String.contains line '\n'))

let test_chrome_export () =
  let buf = Tracer.create_buffer ~capacity:16 ~name:"rep0/export-test" () in
  Tracer.emit buf (Tracer.Chunk_commit { t0 = 0.; t1 = 5.; work = 5. });
  Tracer.emit buf (Tracer.Failure { at = 5.; proc = 3 });
  let path = Filename.temp_file "ckpt_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_export.write ~path [ buf ];
      let body = read_file path in
      check Alcotest.bool "trace_event envelope" true (contains ~needle:"\"traceEvents\"" body);
      check Alcotest.bool "thread named after buffer" true
        (contains ~needle:"rep0/export-test" body);
      check Alcotest.bool "complete event" true (contains ~needle:"\"ph\":\"X\"" body);
      check Alcotest.bool "instant event for the failure" true
        (contains ~needle:"\"ph\":\"i\"" body))

let test_jsonl_export () =
  let buf = Tracer.create_buffer ~capacity:16 ~name:"rep1/lines" () in
  Tracer.emit buf (Tracer.Checkpoint { t0 = 0.; t1 = 1.; cost = 1. });
  Tracer.emit buf (Tracer.Downtime { t0 = 1.; t1 = 2. });
  let path = Filename.temp_file "ckpt_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_export.write ~path [ buf ];
      let body = read_file path in
      let lines = String.split_on_char '\n' (String.trim body) in
      check Alcotest.int "one line per event" 2 (List.length lines);
      List.iter
        (fun l ->
          check Alcotest.bool "line is an object" true
            (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}'))
        lines)

let test_json_escape () =
  check Alcotest.string "quotes and backslashes" "a\\\"b\\\\c"
    (Trace_export.json_escape "a\"b\\c");
  check Alcotest.string "control characters" "tab\\there" (Trace_export.json_escape "tab\there")

(* -- histogram algebra: properties ------------------------------------------ *)

let samples_gen = QCheck2.Gen.(list_size (int_range 1 40) (float_range 1e-6 1e6))

(* Exact equality on the discrete components (buckets, count, min,
   max); the float sum is only associative/commutative up to rounding. *)
let same_hist a b =
  a.Metrics.buckets = b.Metrics.buckets
  && a.Metrics.count = b.Metrics.count
  && a.Metrics.min_v = b.Metrics.min_v
  && a.Metrics.max_v = b.Metrics.max_v
  && Float.abs (a.Metrics.sum -. b.Metrics.sum) <= 1e-9 *. Float.max 1. (Float.abs a.Metrics.sum)

let prop_merge_commutative =
  QCheck2.Test.make ~name:"merge_histograms is commutative" ~count:100
    QCheck2.Gen.(pair samples_gen samples_gen)
    (fun (xs, ys) ->
      let a = snapshot_of xs and b = snapshot_of ys in
      same_hist (Metrics.merge_histograms a b) (Metrics.merge_histograms b a))

let prop_merge_associative =
  QCheck2.Test.make ~name:"merge_histograms is associative" ~count:100
    QCheck2.Gen.(triple samples_gen samples_gen samples_gen)
    (fun (xs, ys, zs) ->
      let a = snapshot_of xs and b = snapshot_of ys and c = snapshot_of zs in
      same_hist
        (Metrics.merge_histograms (Metrics.merge_histograms a b) c)
        (Metrics.merge_histograms a (Metrics.merge_histograms b c)))

let prop_quantile_monotone =
  QCheck2.Test.make ~name:"histogram_quantile monotone in q" ~count:100
    QCheck2.Gen.(triple samples_gen (float_range 0. 1.) (float_range 0. 1.))
    (fun (xs, qa, qb) ->
      let s = snapshot_of xs in
      let qlo = Float.min qa qb and qhi = Float.max qa qb in
      Metrics.histogram_quantile s qlo <= Metrics.histogram_quantile s qhi)

(* -- domain safety ----------------------------------------------------------- *)

let test_metrics_concurrent_increments () =
  with_metrics (fun () ->
      let c = Metrics.counter "stress/hits" in
      let t = Metrics.timer "stress/t" in
      let h = Metrics.histogram "stress/h" in
      Metrics.reset ~prefix:"stress/" ();
      let domains = 4 and per = 10_000 in
      let worker () =
        for i = 1 to per do
          Metrics.incr c;
          Metrics.record t 1e-3;
          Metrics.observe h (float_of_int (1 + (i mod 7)))
        done
      in
      let ds = List.init domains (fun _ -> Domain.spawn worker) in
      List.iter Domain.join ds;
      (match Metrics.find "stress/hits" with
      | Some (Metrics.Counter n) -> check Alcotest.int "no lost counter increments" (domains * per) n
      | _ -> Alcotest.fail "counter registered");
      (match Metrics.find "stress/t" with
      | Some (Metrics.Timer { calls; seconds }) ->
          check Alcotest.int "no lost timer calls" (domains * per) calls;
          close ~tol:1e-6 "timer sum exact" (float_of_int (domains * per) *. 1e-3) seconds
      | _ -> Alcotest.fail "timer registered");
      match Metrics.find "stress/h" with
      | Some (Metrics.Histogram s) ->
          check Alcotest.int "no lost observations" (domains * per) s.Metrics.count;
          close "stress hist min" 1. s.Metrics.min_v;
          close "stress hist max" 7. s.Metrics.max_v
      | _ -> Alcotest.fail "histogram registered")

(* -- json -------------------------------------------------------------------- *)

let test_json_parse_roundtrip () =
  let src = {|{"a": 1.5, "b": [true, false, null, "x\ny"], "nested": {"k": -2e3}}|} in
  match Json.parse src with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j ->
      close "float member" 1.5 (Option.get (Option.bind (Json.member j "a") Json.to_float));
      close "nested path" (-2000.)
        (Option.get (Option.bind (Json.path j [ "nested"; "k" ]) Json.to_float));
      (match Option.bind (Json.member j "b") Json.to_list with
      | Some [ b1; b2; n; s ] ->
          check Alcotest.(option bool) "true literal" (Some true) (Json.to_bool b1);
          check Alcotest.(option bool) "false literal" (Some false) (Json.to_bool b2);
          check Alcotest.bool "null literal" true (n = Json.Null);
          check Alcotest.(option string) "escaped string" (Some "x\ny") (Json.to_string_opt s)
      | _ -> Alcotest.fail "array shape");
      check Alcotest.(list string) "keys in document order" [ "a"; "b"; "nested" ] (Json.keys j);
      check Alcotest.bool "serializer round-trips" true (Json.parse (Json.to_string j) = Ok j);
      check Alcotest.bool "pretty serializer round-trips" true
        (Json.parse (Json.to_string ~pretty:true j) = Ok j)

let test_json_unicode_escapes () =
  (* é is two UTF-8 bytes; the surrogate pair decodes to U+1F600
     (four bytes). *)
  match Json.parse {|"Aé😀"|} with
  | Ok (Json.Str s) -> check Alcotest.string "utf-8 decoding" "A\xc3\xa9\xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_rejects_garbage () =
  List.iter
    (fun src ->
      match Json.parse src with
      | Ok _ -> Alcotest.failf "accepted malformed input %S" src
      | Error _ -> ())
    [ "{"; "[1,]"; "\"unterminated"; "{\"a\":1} trailing"; "nul"; "1.2.3"; "";
      (* Numbers outside RFC 8259's grammar that float_of_string takes. *)
      ".5"; "+1"; "-.5"; "1.e5"; "01"; "-01"; "1."; "[1.]";
      (* Raw control bytes inside a string. *)
      "\"a\x01b\""; "\"a\tb\"" ];
  List.iter
    (fun (src, expected) ->
      match Json.parse src with
      | Ok j -> check Alcotest.bool (Printf.sprintf "%S parses to its value" src) true (j = expected)
      | Error e -> Alcotest.failf "rejected valid input %S: %s" src e)
    [ ("0", Json.Num 0.); ("-0", Json.Num (-0.)); ("1.5e-3", Json.Num 1.5e-3);
      ("1E+2", Json.Num 100.);
      ("[0.5,10,-2E3]", Json.Arr [ Json.Num 0.5; Json.Num 10.; Json.Num (-2000.) ]) ];
  (* The writer's own %.0f / %.12g renderings stay inside the grammar. *)
  List.iter
    (fun v ->
      let j = Json.Num v in
      check Alcotest.bool (Printf.sprintf "%h round-trips" v) true
        (Json.parse (Json.to_string j) = Ok j))
    [ 0.; -0.; 3.; -42.; 0.1; -2.5e-7; 1e15; 6.02214076e23; 1e-300 ]

(* -- metrics exposition ------------------------------------------------------ *)

let test_openmetrics_render () =
  with_metrics (fun () ->
      Metrics.add (Metrics.counter "exp/events") 3;
      Metrics.record (Metrics.timer "exp/phase_seconds") 0.25;
      let h = Metrics.histogram "exp/latency" in
      List.iter (Metrics.observe h) [ 0.001; 0.01; 0.1; 1.0; 10.0 ];
      let body = Metrics_export.openmetrics (Metrics.snapshot ()) in
      check Alcotest.bool "counter type line" true
        (contains ~needle:"# TYPE ckpt_exp_events counter" body);
      check Alcotest.bool "counter total" true (contains ~needle:"ckpt_exp_events_total 3" body);
      check Alcotest.bool "timer keeps existing unit suffix" true
        (contains ~needle:"ckpt_exp_phase_seconds_sum" body);
      check Alcotest.bool "no doubled unit suffix" false (contains ~needle:"_seconds_seconds" body);
      check Alcotest.bool "histogram gains unit suffix" true
        (contains ~needle:"ckpt_exp_latency_seconds_count 5" body);
      check Alcotest.bool "median quantile line" true
        (contains ~needle:"ckpt_exp_latency_seconds{quantile=\"0.5\"}" body);
      check Alcotest.bool "p99 quantile line" true (contains ~needle:"{quantile=\"0.99\"}" body);
      let terminator = "# EOF\n" in
      check Alcotest.bool "openmetrics terminator" true
        (String.length body >= String.length terminator
        && String.sub body
             (String.length body - String.length terminator)
             (String.length terminator)
           = terminator))

let test_jsonl_sample_parses () =
  with_metrics (fun () ->
      Metrics.incr (Metrics.counter "exp/ticks");
      let h = Metrics.histogram "exp/obs" in
      List.iter (Metrics.observe h) [ 1.0; 2.0; 4.0; 8.0 ];
      let line = Metrics_export.jsonl_sample ~ts:123.5 (Metrics.snapshot ()) in
      check Alcotest.bool "single line" true (not (String.contains line '\n'));
      match Json.parse line with
      | Error e -> Alcotest.failf "sample is not valid JSON: %s" e
      | Ok j ->
          close "timestamp" 123.5 (Option.get (Option.bind (Json.member j "ts") Json.to_float));
          let m = Option.get (Json.member j "metrics") in
          close "counter value" 1.
            (Option.get (Option.bind (Json.path m [ "exp/ticks"; "value" ]) Json.to_float));
          let q p = Option.get (Option.bind (Json.path m [ "exp/obs"; p ]) Json.to_float) in
          check Alcotest.bool "histogram quantiles ordered" true
            (q "p50" <= q "p90" && q "p90" <= q "p99"))

(* -- flight recorder --------------------------------------------------------- *)

let with_flight f =
  FR.reset ();
  Fun.protect f ~finally:FR.reset

let test_flight_monotone_clamp () =
  with_flight (fun () ->
      let t = FR.track ~capacity:16 "fr/clamp" in
      FR.record t FR.Run_task ~t0:10. ~t1:12.;
      (* A backwards-stepping wall clock must not yield negative or
         reverse-overlapping spans. *)
      FR.record t FR.Steal_attempt ~t0:11. ~t1:11.5;
      FR.record t FR.Park ~t0:13. ~t1:12.5;
      match FR.spans t with
      | [ a; b; c ] ->
          close "first span kept" 10. a.FR.sp_t0;
          close "clamped start" 12. b.FR.sp_t0;
          close "clamped end" 12. b.FR.sp_t1;
          close "later start kept" 13. c.FR.sp_t0;
          close "end clamped to start" 13. c.FR.sp_t1;
          check Alcotest.bool "spans monotone" true
            (a.FR.sp_t1 <= b.FR.sp_t0 && b.FR.sp_t1 <= c.FR.sp_t0)
      | sps -> Alcotest.failf "expected 3 spans, got %d" (List.length sps))

let test_flight_wraparound () =
  with_flight (fun () ->
      let t = FR.track ~capacity:4 "fr/wrap" in
      for i = 0 to 9 do
        let x = float_of_int i in
        FR.record t FR.Run_task ~t0:x ~t1:(x +. 0.5)
      done;
      check Alcotest.int "dropped counts overwrites" 6 (FR.dropped t);
      match FR.spans t with
      | [ a; _; _; d ] ->
          close "oldest surviving span" 6. a.FR.sp_t0;
          close "newest span" 9. d.FR.sp_t0
      | sps -> Alcotest.failf "expected 4 spans, got %d" (List.length sps))

let test_flight_report () =
  with_flight (fun () ->
      let w = FR.track "worker0" in
      FR.record w FR.Run_task ~t0:0. ~t1:6.;
      FR.record w FR.Steal_attempt ~t0:6. ~t1:9.;
      FR.record w FR.Park ~t0:9. ~t1:10.;
      FR.instant w FR.Unpark ~at:10.;
      let ext = FR.track "external0" in
      FR.record ext FR.Inject ~t0:0. ~t1:0.5;
      FR.record ext FR.Run_task ~t0:0.5 ~t1:10.;
      let reports = FR.report () in
      check Alcotest.int "one report per track" 2 (List.length reports);
      let wr = List.find (fun r -> r.FR.wr_name = "worker0") reports in
      close "wall = last end - first start" 10. wr.FR.wr_wall;
      close "attribution covers the wall" 10. wr.FR.wr_attributed;
      close "run-task seconds" 6. (FR.state_seconds wr FR.Run_task);
      check Alcotest.int "unpark counted as an event" 1 (FR.state_count wr FR.Unpark);
      close "unpark has no duration" 0. (FR.state_seconds wr FR.Unpark);
      (* Failed steals (3 s) beat parking churn (1 s) and injection (0.5 s). *)
      match FR.dominant_overhead reports with
      | Some o ->
          check Alcotest.string "dominant overhead" "failed steals" o.FR.ov_label;
          close "dominant seconds" 3. o.FR.ov_seconds
      | None -> Alcotest.fail "expected a dominant overhead")

let test_flight_chrome_golden () =
  with_flight (fun () ->
      let w = FR.track "worker0" in
      FR.record w FR.Run_task ~t0:100.0 ~t1:100.5;
      FR.record w FR.Steal_attempt ~t0:100.5 ~t1:100.6;
      FR.instant w FR.Unpark ~at:100.6;
      let ext = FR.track "external0" in
      FR.record ext FR.Inject ~t0:100.0 ~t1:100.1;
      let path = Filename.temp_file "ckpt_flight" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Trace_export.write_flight ~path (FR.tracks ());
          let body = read_file path in
          match Json.parse body with
          | Error e -> Alcotest.failf "flight trace is not valid JSON: %s" e
          | Ok j ->
              let events = Option.get (Option.bind (Json.member j "traceEvents") Json.to_list) in
              check Alcotest.bool "has events" true (events <> []);
              let ph ev = Option.bind (Json.member ev "ph") Json.to_string_opt in
              let names =
                List.filter_map
                  (fun ev ->
                    if ph ev = Some "M" then
                      Option.bind (Json.path ev [ "args"; "name" ]) Json.to_string_opt
                    else None)
                  events
              in
              check Alcotest.bool "both tracks carry thread_name metadata" true
                (List.mem "worker0" names && List.mem "external0" names);
              List.iter
                (fun ev ->
                  let has k = Json.member ev k <> None in
                  check Alcotest.bool "ph present" true (has "ph");
                  check Alcotest.bool "pid present" true (has "pid");
                  check Alcotest.bool "tid present" true (has "tid");
                  if ph ev <> Some "M" then begin
                    check Alcotest.bool "ts present" true (has "ts");
                    check Alcotest.bool "ts rebased to trace start" true
                      (Option.get (Option.bind (Json.member ev "ts") Json.to_float) >= 0.)
                  end)
                events;
              let phs = List.filter_map ph events in
              check Alcotest.bool "complete spans present" true (List.mem "X" phs);
              check Alcotest.bool "instant events present" true (List.mem "i" phs)))

(* -- provenance ------------------------------------------------------------- *)

let test_provenance_manifest () =
  let m = Provenance.manifest ~extra:[ ("seed", "42"); ("policy", "DPNextFailure") ] () in
  check Alcotest.bool "has parameters" true (contains ~needle:"\"parameters\"" m);
  check Alcotest.bool "carries the seed" true (contains ~needle:"\"seed\": \"42\"" m);
  check Alcotest.bool "records domains" true (contains ~needle:"\"domains\"" m);
  check Alcotest.bool "records ocaml version" true (contains ~needle:Sys.ocaml_version m)

let test_provenance_sidecar () =
  let artifact = Filename.temp_file "ckpt_artifact" ".csv" in
  let sidecar = Provenance.sidecar_path artifact in
  check Alcotest.string "sidecar naming" (artifact ^ ".meta.json") sidecar;
  Fun.protect
    ~finally:(fun () ->
      Sys.remove artifact;
      if Sys.file_exists sidecar then Sys.remove sidecar)
    (fun () ->
      Provenance.write_sidecar ~extra:[ ("experiment", "unit-test") ] ~path:artifact ();
      check Alcotest.bool "sidecar written" true (Sys.file_exists sidecar);
      let body = read_file sidecar in
      check Alcotest.bool "sidecar carries parameters" true
        (contains ~needle:"unit-test" body))

let test_provenance_sidecar_never_raises () =
  (* The artifact's directory does not exist: the sidecar silently
     fails rather than breaking the caller. *)
  Provenance.write_sidecar ~path:"/nonexistent-dir-ckpt/out.csv" ();
  check Alcotest.bool "survived" true true

let () =
  Alcotest.run "telemetry"
    [
      ( "metrics registry",
        [
          Alcotest.test_case "counter/gauge/timer/histogram" `Quick test_metrics_kinds;
          Alcotest.test_case "kind mismatch raises" `Quick test_metrics_kind_mismatch;
          Alcotest.test_case "disabled gating" `Quick test_metrics_gating;
          Alcotest.test_case "reset by prefix" `Quick test_metrics_reset_prefix;
          Alcotest.test_case "snapshot sorted" `Quick test_metrics_snapshot_sorted;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "merge = concatenated stream" `Quick test_histogram_merge;
          Alcotest.test_case "moments and quantiles" `Quick test_histogram_moments;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_merge_commutative; prop_merge_associative; prop_quantile_monotone ] );
      ( "domain safety",
        [ Alcotest.test_case "concurrent increments are exact" `Quick test_metrics_concurrent_increments ] );
      ( "json",
        [
          Alcotest.test_case "parse + round-trip" `Quick test_json_parse_roundtrip;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escapes;
          Alcotest.test_case "rejects malformed input" `Quick test_json_rejects_garbage;
        ] );
      ( "metrics export",
        [
          Alcotest.test_case "openmetrics textfile" `Quick test_openmetrics_render;
          Alcotest.test_case "jsonl sample parses" `Quick test_jsonl_sample_parses;
        ] );
      ( "flight recorder",
        [
          Alcotest.test_case "monotone clamp" `Quick test_flight_monotone_clamp;
          Alcotest.test_case "ring wraparound" `Quick test_flight_wraparound;
          Alcotest.test_case "utilization report" `Quick test_flight_report;
          Alcotest.test_case "chrome trace golden" `Quick test_flight_chrome_golden;
        ] );
      ( "ring buffers",
        [
          Alcotest.test_case "wraparound + dropped" `Quick test_buffer_wraparound;
          Alcotest.test_case "totals arithmetic" `Quick test_buffer_totals;
          Alcotest.test_case "sink register/drain" `Quick test_sink_register_drain;
        ] );
      ( "export",
        [
          Alcotest.test_case "jsonl line shape" `Quick test_jsonl_line;
          Alcotest.test_case "chrome trace_event" `Quick test_chrome_export;
          Alcotest.test_case "jsonl file" `Quick test_jsonl_export;
          Alcotest.test_case "json escaping" `Quick test_json_escape;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "manifest contents" `Quick test_provenance_manifest;
          Alcotest.test_case "sidecar round-trip" `Quick test_provenance_sidecar;
          Alcotest.test_case "sidecar never raises" `Quick test_provenance_sidecar_never_raises;
        ] );
    ]
