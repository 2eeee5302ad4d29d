(* The repository benchmark.

     sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   Workloads: miss_sweep and churn_persist (the two in BENCHMARK.json)
   and hit_http, which runs on request but is not part of the recorded
   benchmark: its open-loop latencies follow the shared host's stalls
   rather than the program (see CHANGES.md).  [--workload all] runs the
   three in turn.  Each run boots the real
   topology (two single-domain workers, a router, a gateway — separate
   processes) from the freshly built [ssg] binary, times the workload
   with program tracing off, checks every checked reply against a fresh
   in-process [Job.execute], prints each metric with its unit on stderr
   and one JSON result object as the last line of stdout.  [--trace 1]
   reports the per-layer split instead (see Layers).  Exit status is
   non-zero on any outcome mismatch. *)

open Ssg_engine

(* ---------------- configuration ---------------- *)

let window = 4  (* closed-loop jobs in flight on the one connection *)
let max_connections = 2  (* open-loop HTTP connections, at most nproc *)
let hit_rate = 250.  (* hit_http offered load, requests per second *)
let boots = 7  (* set-ups per run; setup_s is their median *)
let churn_cache_cap = 96  (* per worker, below the re-request window *)
let churn_prefill = 1500

let make_workload name ~seed ~seconds =
  let per_s r = int_of_float (Float.ceil (r *. seconds)) + 32 in
  match name with
  | "miss_sweep" -> Workloads.miss_sweep ~seed ~count:(per_s 90.)
  | "hit_http" -> Workloads.hit_http ~seed ~count:(per_s hit_rate)
  | "churn_persist" -> Workloads.churn_persist ~seed ~count:(per_s 2500.) ~prefill:churn_prefill
  | other -> failwith ("unknown workload " ^ other)

let worker_args name i =
  if name = "churn_persist" then
    [ "--persist"; Printf.sprintf "store%d" (i + 1); "--cache-cap"; string_of_int churn_cache_cap ]
  else []

(* ---------------- environment facts ---------------- *)

let host_cores () =
  match Topo.read_proc "/proc/cpuinfo" with
  | s ->
      List.length
        (List.filter
           (fun l -> String.length l >= 9 && String.sub l 0 9 = "processor")
           (String.split_on_char '\n' s))
  | exception Sys_error _ -> Domain.recommended_domain_count ()

(* The git revision when the checkout is a repository, else "none";
   [source_digest] identifies the code either way. *)
let git_rev root =
  let read p = String.trim (Topo.read_proc (Filename.concat root p)) in
  match read ".git/HEAD" with
  | exception Sys_error _ -> "none"
  | head ->
      if String.length head > 5 && String.sub head 0 5 = "ref: " then
        let r = String.sub head 5 (String.length head - 5) in
        (try read (".git/" ^ r) with Sys_error _ -> "none")
      else head

let source_digest root =
  let buf = Buffer.create 65536 in
  let rec walk dir =
    let entries = try Sys.readdir dir with Sys_error _ -> [||] in
    Array.sort compare entries;
    Array.iter
      (fun e ->
        let p = Filename.concat dir e in
        if Sys.is_directory p then walk p
        else if Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli" || e = "dune"
        then begin
          Buffer.add_string buf p;
          Buffer.add_string buf (Digest.to_hex (Digest.file p))
        end)
      entries
  in
  List.iter (fun d -> walk (Filename.concat root d)) [ "lib"; "bin" ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ---------------- metrics ---------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name value unit_ = { name; value; unit_ }

(* ---------------- one topology life ---------------- *)

let first_request (w : Workloads.workload) i (t : Topo.t) =
  let job = w.probe i in
  if w.name = "hit_http" then begin
    let c = Topo.http_connect t.port in
    Fun.protect ~finally:(fun () -> Topo.http_close c) (fun () ->
        match Topo.http_call c ~meth:"POST" ~path:(Drive.submit_path job) ~body:job.Job.run () with
        | 200, _ -> ()
        | status, body -> failwith (Printf.sprintf "first request: HTTP %d %s" status body))
  end
  else
    Topo.with_pclient t.router (fun pc ->
        match Pclient.await (Pclient.submit pc job) with
        | Ok { Job.result = Ok _; _ } -> ()
        | Ok { Job.result = Error e; _ } | Error e -> failwith ("first request failed: " ^ e))

let run_closed_prefill ~router jobs =
  let reqs = Array.map (fun job -> { Workloads.job; reject = false }) jobs in
  let r = Drive.closed_loop ~router ~reqs ~window:8 ~seconds:infinity () in
  Array.iter
    (fun (s : Drive.sample) ->
      if Drive.transport_failed s then failwith "prefill request failed")
    r.samples

(* Serve the working set once through the router, untimed, so the
   measured pass starts from a warm cache. *)
let prewarm (w : Workloads.workload) (t : Topo.t) =
  if Array.length w.warm > 0 then run_closed_prefill ~router:t.router w.warm

let boot_all ~ssg (w : Workloads.workload) =
  if Array.length w.prefill > 0 then begin
    (* the untimed earlier life that fills the journal *)
    let t = Topo.boot ~ssg ~worker_args:(worker_args w.name) ~first:(fun _ -> ()) in
    run_closed_prefill ~router:t.router w.prefill;
    Topo.shutdown t
  end;
  let setups = ref [] in
  let rec go i =
    let t = Topo.boot ~ssg ~worker_args:(worker_args w.name) ~first:(first_request w i) in
    setups := t.setup_s :: !setups;
    if i + 1 < boots then begin
      Topo.shutdown t;
      go (i + 1)
    end
    else t
  in
  let t = go 0 in
  (t, Ssg_util.Stats.median (Array.of_list !setups))

let drive ?on_done ~seconds (w : Workloads.workload) (t : Topo.t) =
  if w.name = "hit_http" then
    let connections = max 1 (min max_connections (host_cores ())) in
    Drive.open_loop ?on_done ~port:t.port ~reqs:w.reqs ~rate:hit_rate ~connections ~seconds ()
  else Drive.closed_loop ?on_done ~router:t.router ~reqs:w.reqs ~window ~seconds ()

(* miss_sweep re-executes a fixed seeded sample (one request in eight);
   the other workloads check every reply. *)
let sampler (w : Workloads.workload) ~seed =
  if w.name = "miss_sweep" then fun i ->
    Ssg_util.Rng.int (Workloads.rng_for seed 7 i) 8 = 0
  else fun _ -> true

(* The median over consecutive windows of [xs] (in request order) of each
   window's [q]-th percentile: a stall of the shared host that lands in
   a few windows moves their tails, not the run's figure, as it would a
   whole-run percentile.  Windows hold at least [min_window] samples and
   there are at most [max_windows]. *)
let max_windows = 30
let min_window = 100

let windows xs =
  let n = Array.length xs in
  let k = max 1 (min max_windows (n / min_window)) in
  Array.init k (fun w -> Array.sub xs (w * n / k) (((w + 1) * n / k) - (w * n / k)))

let windowed_percentile xs q =
  Ssg_util.Stats.median (Array.map (fun w -> Ssg_util.Stats.percentile w q) (windows xs))

type e2e = {
  metrics : metric list;
  attempted : int;
  failed : int;
  verdict : Drive.verdict;
  latency_samples : int;
  whole_run_p95_ms : float;
}

let end_to_end ?on_done ~seed ~seconds ~setup_s (w : Workloads.workload) (t : Topo.t) =
  let cpu0 = Topo.cpu_total t in
  let run = drive ?on_done ~seconds w t in
  let cpu1 = Topo.cpu_total t in
  let rss = Topo.peak_rss_mb t in
  (run, fun () ->
    let verdict, bad = Drive.check ~sample:(sampler w ~seed) w.reqs run in
    let attempted = Array.length run.samples in
    let failed =
      Array.fold_left
        (fun acc (s : Drive.sample) ->
          if Drive.transport_failed s || Hashtbl.mem bad s.idx then acc + 1 else acc)
        0 run.samples
    in
    let ok = attempted - failed in
    let lat =
      Array.map (fun (s : Drive.sample) -> 1000. *. (s.finished -. s.due)) run.samples
    in
    let elapsed = run.stopped -. run.started in
    let metrics =
      [
        m "jobs_per_s" (float_of_int ok /. elapsed) "1/s";
        m "latency_p50_ms" (Ssg_util.Stats.median lat) "ms";
        m "latency_p95_ms" (windowed_percentile lat 95.) "ms";
        m "cpu_ms_per_req" ((cpu1 -. cpu0) /. float_of_int (max 1 ok)) "ms";
        m "peak_rss_mb" rss "MB";
        m "setup_s" setup_s "s";
      ]
    in
    {
      metrics;
      attempted;
      failed;
      verdict;
      latency_samples = Array.length lat;
      whole_run_p95_ms = Ssg_util.Stats.percentile lat 95.;
    })

(* How the router spread the run's jobs, and whether it ever took a
   worker out of the ring: a marked-down worker halves a compute-bound
   workload's throughput, so every run records it. *)
let routing_note (t : Topo.t) =
  match Topo.scrape_router t with
  | Error e -> "router metrics unavailable: " ^ e
  | Ok text ->
      let v name = Topo.prom_value text name in
      Printf.sprintf "routed per shard %s; markdowns %.0f, failovers %.0f"
        (String.concat "/"
           (List.mapi
              (fun i _ -> Printf.sprintf "%.0f" (v (Printf.sprintf "ssg_router_shard%d_routed_total" i)))
              t.workers))
        (v "ssg_router_markdowns_total") (v "ssg_router_failovers_total")

(* ---------------- output ---------------- *)

let json_result ~correct ~attempted ~failed metrics =
  let module J = Ssg_obs.Export in
  J.json_to_string
    (J.Obj
       [
         ("correct", J.Bool correct);
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun mt -> (mt.name, J.Obj [ ("value", J.Float mt.value); ("unit", J.Str mt.unit_) ]))
                metrics) );
       ])

let print_metrics workload metrics =
  List.iter
    (fun mt -> Printf.eprintf "%-14s %-28s %14.4f %s\n" workload mt.name mt.value mt.unit_)
    metrics;
  flush stderr

let usage () =
  prerr_endline
    "usage: bench --workload (miss_sweep|hit_http|churn_persist|all) --seed N \
     --seconds S --trace (0|1)";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; go rest
    | "--trace" :: v :: rest -> trace := int_of_string v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !workload = "" || (!trace <> 0 && !trace <> 1) then usage ();
  (!workload, !seed, !seconds, !trace = 1)

let run_one ~root ~ssg ~seed ~seconds ~trace name =
  let dir =
    Printf.sprintf ".perfbench_out/%s-seed%d-trace%d-pid%d" name seed
      (if trace then 1 else 0) (Unix.getpid ())
  in
  ignore (Sys.command (Printf.sprintf "mkdir -p %s" (Filename.quote (Filename.concat root dir))));
  Unix.chdir (Filename.concat root dir);
  Fun.protect ~finally:(fun () -> Topo.kill_all (); Unix.chdir root) @@ fun () ->
  let w = make_workload name ~seed ~seconds in
  let digest = Workloads.digest w in
  let t, setup_s = boot_all ~ssg w in
  prewarm w t;
  let recorder = Layers.recorder () in
  let before = if trace then Some (Layers.scrape t) else None in
  let run, finish =
    if trace then
      Layers.with_span recorder "workload.pass" (fun parent ->
          end_to_end ~on_done:(Layers.on_done recorder ~parent) ~seed ~seconds ~setup_s w t)
    else end_to_end ~seed ~seconds ~setup_s w t
  in
  let layers =
    Option.map (fun before -> Layers.measure recorder ~before w t run) before
  in
  let routing = routing_note t in
  Topo.shutdown t;
  let e = finish () in
  let short =
    let ran = run.stopped -. run.started in
    if ran < 0.95 *. seconds then
      [ Printf.sprintf "the request sequence ran out after %.1f s of %.0f s" ran seconds ]
    else []
  in
  let metrics, notes =
    match layers with
    | None -> (e.metrics, short)
    | Some l ->
        Layers.write_trace recorder "trace.json";
        ( m "error_share" (float_of_int e.failed /. float_of_int (max 1 e.attempted)) "share"
          :: m "kagreement.gap_share" (float_of_int e.verdict.gap /. float_of_int (max 1 e.verdict.checked)) "share"
          :: List.map (fun (name, value, unit_) -> m name value unit_) (l.metrics @ [ Layers.replay_metric w ]),
          short @ l.notes @ [ Printf.sprintf "Chrome trace of the traced run: %s/trace.json" dir ] )
  in
  let correct = e.verdict.mismatches = 0 in
  let module J = Ssg_obs.Export in
  let record =
    J.Obj
      [
        ("workload", J.Str name);
        ("seed", J.Int seed);
        ("seconds", J.Float seconds);
        ("trace", J.Bool trace);
        ("input_digest", J.Str digest);
        ("requests_generated", J.Int (Array.length w.reqs));
        ("host_cores", J.Int (host_cores ()));
        ("git_rev", J.Str (git_rev root));
        ("source_digest", J.Str (source_digest root));
        ("latency_samples", J.Int e.latency_samples);
        ("latency_p95_whole_run_ms", J.Float e.whole_run_p95_ms);
        ("checked", J.Int e.verdict.checked);
        ("mismatches", J.Int e.verdict.mismatches);
        ("kagreement_gap_replies", J.Int e.verdict.gap);
        ("routing", J.Str routing);
        ("notes", J.Arr (List.map (fun s -> J.Str s) (e.verdict.notes @ notes)));
        ("result", Option.get (J.json_of_string (json_result ~correct ~attempted:e.attempted ~failed:e.failed metrics)));
      ]
  in
  let oc = open_out "result.json" in
  output_string oc (J.json_to_string record);
  close_out oc;
  Printf.eprintf
    "%-14s input digest %s, %d latency samples (whole-run p95 %.4f ms), %d checked, \
     %d mismatches, %d k-agreement gap replies, host_cores %d\n"
    name digest e.latency_samples e.whole_run_p95_ms e.verdict.checked e.verdict.mismatches e.verdict.gap
    (host_cores ());
  List.iter (fun n -> Printf.eprintf "%-14s note: %s\n" name n) (e.verdict.notes @ notes);
  print_metrics name metrics;
  Printf.eprintf "%-14s routing: %s\n%-14s result record: %s/result.json\n%!" name routing name dir;
  (correct, json_result ~correct ~attempted:e.attempted ~failed:e.failed metrics)

let () =
  let workload, seed, seconds, trace = parse_args () in
  let root = Sys.getcwd () in
  let ssg = Filename.concat root "_build/default/bin/ssg.exe" in
  if not (Sys.file_exists ssg) then begin
    prerr_endline ("bench: " ^ ssg ^ " is missing; build it first (perfbench/run.sh does)");
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let on_signal _ =
    Topo.kill_all ();
    exit 130
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  let names =
    if workload = "all" then [ "miss_sweep"; "hit_http"; "churn_persist" ] else [ workload ]
  in
  let results =
    try List.map (run_one ~root ~ssg ~seed ~seconds ~trace) names
    with e ->
      Topo.kill_all ();
      Printf.eprintf "bench: %s\n%!" (Printexc.to_string e);
      exit 3
  in
  List.iter (fun (_, line) -> print_endline line) results;
  if List.exists (fun (ok, _) -> not ok) results then exit 1
