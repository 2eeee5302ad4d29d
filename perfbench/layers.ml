(* The traced run: where a workload's time goes, layer by layer.

   Every number here is taken from the benchmark's own files, around
   calls into each layer's public functions — no span goes inside the
   program.  Three methods:

   - counts and the program's own histograms, scraped from the live
     topology before and after the workload pass (exact deltas);
   - tier addressing: the same requests, already cached, sent in turn
     to the gateway, the router, the owning worker and an in-process
     [Engine]; each hop is the difference between adjacent tiers;
   - in-process replays of a sample of the workload's jobs: [Approx]
     phases, the [Lgraph] kernels replayed in [Approx]'s order (checked
     each round against [Approx.graph_view]), codecs, lint and store.

   Spans (name, start, end, parent, request id) stay in memory until the
   run ends and are then written as Chrome trace JSON through
   [Ssg_obs.Export]. *)

open Ssg_engine
open Ssg_graph
open Ssg_core
open Ssg_adversary
module Json = Ssg_obs.Export
module Bitset = Ssg_util.Bitset

let now = Unix.gettimeofday

(* ---------------- spans ---------------- *)

type span = { id : int; name : string; start : float; stop : float; parent : int; req : int }

type recorder = { mutable spans : span list; mutable next : int; lock : Mutex.t; epoch : float }

let recorder () = { spans = []; next = 1; lock = Mutex.create (); epoch = now () }

let record r ?(parent = 0) ?(req = -1) name start stop =
  Mutex.lock r.lock;
  let id = r.next in
  r.next <- id + 1;
  r.spans <- { id; name; start; stop; parent; req } :: r.spans;
  Mutex.unlock r.lock;
  id

(* A span whose children are recorded inside [f]: the id is reserved
   first so children can name their parent. *)
let with_span r ?(parent = 0) name f =
  Mutex.lock r.lock;
  let id = r.next in
  r.next <- id + 1;
  Mutex.unlock r.lock;
  let start = now () in
  let v = f id in
  let stop = now () in
  Mutex.lock r.lock;
  r.spans <- { id; name; start; stop; parent; req = -1 } :: r.spans;
  Mutex.unlock r.lock;
  v

(* The workload pass's per-request spans: a [Drive] completion hook. *)
let on_done r ~parent (s : Drive.sample) =
  ignore (record r ~parent ~req:s.idx "request" s.sent s.finished)

let write_trace r path =
  let us t = Json.Float ((t -. r.epoch) *. 1e6) in
  let events =
    List.rev_map
      (fun s ->
        Json.Obj
          [
            ("name", Json.Str s.name);
            ("ph", Json.Str "X");
            ("ts", us s.start);
            ("dur", Json.Float ((s.stop -. s.start) *. 1e6));
            ("pid", Json.Int 1);
            ("tid", Json.Int 1);
            ( "args",
              Json.Obj
                [ ("id", Json.Int s.id); ("parent", Json.Int s.parent); ("req", Json.Int s.req) ] );
          ])
      r.spans
  in
  let oc = open_out path in
  output_string oc (Json.json_to_string (Json.Arr events));
  close_out oc

(* ---------------- small statistics ---------------- *)

module Stats = Ssg_util.Stats

let median xs = Stats.median (Array.of_list xs)
let pct xs q = Stats.percentile (Array.of_list xs) q
let mean xs = Stats.mean (Array.of_list xs)

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Median seconds of [reps] calls of [f] (for sub-microsecond-noisy calls). *)
let time_med reps f = median (List.init reps (fun _ -> snd (time f)))

(* ---------------- scrapes ---------------- *)

type scrape = {
  router_prom : string;
  gateway_prom : string;
  worker_prom : string list;
  worker_stats : Telemetry.snapshot list;
}

let ok_or_fail what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

let scrape (t : Topo.t) =
  {
    router_prom = ok_or_fail "router metrics" (Topo.scrape_router t);
    gateway_prom = snd (Topo.http_once t.port ~meth:"GET" ~path:"/metrics");
    worker_prom = List.map (fun w -> ok_or_fail "worker metrics" (Topo.scrape_worker w)) t.workers;
    worker_stats = List.map (fun w -> ok_or_fail "worker stats" (Topo.stats_of w)) t.workers;
  }

let delta_value a b text_of name = Topo.prom_value (text_of b) name -. Topo.prom_value (text_of a) name

let sum_workers f (a : scrape) (b : scrape) =
  List.fold_left2 (fun acc x y -> acc +. f x y) 0. a.worker_stats b.worker_stats

let hist_delta text_a text_b name =
  Topo.bucket_delta (Topo.prom_buckets text_b name) (Topo.prom_buckets text_a name)

let hist_sum_count_delta texts_a texts_b name =
  List.fold_left2
    (fun (s, c) a b ->
      ( s +. Topo.prom_value b (name ^ "_sum") -. Topo.prom_value a (name ^ "_sum"),
        c +. Topo.prom_value b (name ^ "_count") -. Topo.prom_value a (name ^ "_count") ))
    (0., 0.) texts_a texts_b

(* ---------------- Algorithm 1 replay ---------------- *)

type replay = {
  exec_ms : float;
  step_ms : float;
  message_ms : float;
  sc_ms : float;
  rounds : int;
  merge_ms : float;
  prune_ms : float;
  purge_ms : float;
  copy_ms : float;
  same_support_ms : float;
  merge_calls : int;
  n : int;
  diverged : int;  (* rounds where the replica differed from Approx *)
}

(* Replays one job's Algorithm 1 skeleton approximation twice, side by
   side: once through [Approx] (timing message / step / SC per round),
   once as the raw [Lgraph] kernels in [Approx.step]'s order on a
   replica (timing each kernel).  The replica must equal
   [Approx.graph_view] after every round — a drift means the kernels
   timed are not the ones the algorithm runs. *)
let replay_job r ~parent (job : Job.t) =
  let outcome, exec_s = time (fun () -> Job.execute job) in
  let _, exec_s2 = time (fun () -> Job.execute job) in
  let exec_s = Float.min exec_s exec_s2 in
  let adv = Run_format.of_string job.run in
  let n = Adversary.n adv in
  let approx = Array.init n (fun self -> Approx.create ~n ~self ()) in
  let graph = Array.init n (fun self -> Lgraph.create n ~self) in
  let scratch = Array.init n (fun self -> Lgraph.create n ~self) in
  let pt = Array.init n (fun _ -> Bitset.full n) in
  let heard = Bitset.create n in
  let step = ref 0. and message = ref 0. and sc = ref 0. in
  let merge = ref 0. and prune = ref 0. and purge = ref 0. and copy = ref 0. and same = ref 0. in
  let calls = ref 0 and diverged = ref 0 in
  let undecided_at p round =
    match outcome.decisions.(p) with None -> true | Some (dr, _) -> dr >= round
  in
  for round = 1 to outcome.rounds_run do
    with_span r ~parent "round" @@ fun rid ->
    let g = Adversary.graph adv round in
    let t0 = now () in
    let msgs = Array.map Approx.message approx in
    let t1 = now () in
    for q = 0 to n - 1 do
      Approx.step approx.(q) ~round ~received:(fun p ->
          if Digraph.mem_edge g p q then Some msgs.(p) else None)
    done;
    let t2 = now () in
    (* the decision test runs for undecided processes from round n on *)
    if round >= n then
      for q = 0 to n - 1 do
        if undecided_at q round then ignore (Approx.is_strongly_connected approx.(q))
      done;
    let t3 = now () in
    ignore (record r ~parent:rid "approx.message" t0 t1);
    ignore (record r ~parent:rid "approx.step" t1 t2);
    ignore (record r ~parent:rid "approx.sc" t2 t3);
    message := !message +. (t1 -. t0);
    step := !step +. (t2 -. t1);
    sc := !sc +. (t3 -. t2);
    (* the same round as raw kernels on the replica *)
    let t4 = now () in
    let rmsgs = Array.map Lgraph.copy graph in
    let t5 = now () in
    copy := !copy +. (t5 -. t4);
    for q = 0 to n - 1 do
      Bitset.clear heard;
      for p = 0 to n - 1 do
        if Digraph.mem_edge g p q then Bitset.add heard p
      done;
      Bitset.inter_into ~into:pt.(q) heard;
      let s = scratch.(q) in
      Lgraph.reset s ~self:q;
      let a = now () in
      Bitset.iter
        (fun p ->
          incr calls;
          Lgraph.merge_max_into ~into:s rmsgs.(p))
        pt.(q);
      let b = now () in
      Bitset.iter (fun p -> Lgraph.set_edge s p q ~label:round) pt.(q);
      let c = now () in
      Lgraph.purge s ~upto:(round - n);
      let d = now () in
      Lgraph.prune_unreachable s ~self:q;
      let e = now () in
      ignore (Lgraph.same_support graph.(q) s);
      let f = now () in
      Lgraph.swap graph.(q) s;
      merge := !merge +. (b -. a);
      purge := !purge +. (d -. c);
      prune := !prune +. (e -. d);
      same := !same +. (f -. e);
      if not (Lgraph.equal graph.(q) (Approx.graph_view approx.(q))) then incr diverged
    done;
    ignore (record r ~parent:rid "lgraph.replica" t4 (now ()))
  done;
  let ms x = 1000. *. x in
  {
    exec_ms = ms exec_s;
    step_ms = ms !step;
    message_ms = ms !message;
    sc_ms = ms !sc;
    rounds = outcome.rounds_run;
    merge_ms = ms !merge;
    prune_ms = ms !prune;
    purge_ms = ms !purge;
    copy_ms = ms !copy;
    same_support_ms = ms !same;
    merge_calls = !calls;
    n;
    diverged = !diverged;
  }

(* ---------------- tier addressing ---------------- *)

type tiers = {
  t_gateway : float list;  (* ms, per request, medians over repetitions *)
  t_router : float list;
  t_worker : float list;
  t_engine : float list;
  owner_misses : int;  (* worker replies that were not cache hits *)
}

let tier_reps = 5

let tiers r ~parent (t : Topo.t) (reqs : Workloads.req list) =
  (* the router places keys on the ring of canonical addresses *)
  let canonical a = Ssg_net.Transport.(to_string (of_string_exn a)) in
  let ring = Ssg_cluster.Ring.create (List.map canonical t.workers) in
  let engine = Engine.create ~workers:1 () in
  let router = Pclient.connect ~socket:t.router () in
  let workers = List.map (fun w -> (canonical w, Pclient.connect ~socket:w ())) t.workers in
  let http = Topo.http_connect t.port in
  Fun.protect
    ~finally:(fun () ->
      Topo.http_close http;
      List.iter (fun (_, pc) -> Pclient.close pc) workers;
      Pclient.close router;
      Engine.shutdown engine)
  @@ fun () ->
  let reqs = Array.of_list reqs in
  let owner (q : Workloads.req) =
    List.assoc (Option.get (Ssg_cluster.Ring.owner ring (Job.key q.job))) workers
  in
  (* warm every tier's cache with the exact jobs (untimed) *)
  Array.iter
    (fun (q : Workloads.req) ->
      ignore (Engine.run engine q.job);
      ignore (Pclient.await (Pclient.submit router q.job)))
    reqs;
  let owner_misses = ref 0 in
  let one i (q : Workloads.req) =
    let timed name f =
      let t0 = now () in
      let v = f () in
      let t1 = now () in
      ignore (record r ~parent ~req:i name t0 t1);
      (v, 1000. *. (t1 -. t0))
    in
    let _, te = timed "tier.engine" (fun () -> Engine.run engine q.job) in
    let wr, tw = timed "tier.worker" (fun () -> Pclient.await (Pclient.submit (owner q) q.job)) in
    (match wr with
    | Ok { Job.cached = false; result = Ok _; _ } -> incr owner_misses
    | _ -> ());
    let _, tr = timed "tier.router" (fun () -> Pclient.await (Pclient.submit router q.job)) in
    let _, tg =
      timed "tier.gateway" (fun () ->
          Topo.http_call http ~meth:"POST" ~path:(Drive.submit_path q.job) ~body:q.job.Job.run ())
    in
    (tg, tr, tw, te)
  in
  let runs = Array.map (fun _ -> []) reqs in
  for _ = 1 to tier_reps do
    Array.iteri (fun i q -> runs.(i) <- one i q :: runs.(i)) reqs
  done;
  let per f = Array.to_list (Array.map (fun l -> median (List.map f l)) runs) in
  {
    t_gateway = per (fun (g, _, _, _) -> g);
    t_router = per (fun (_, r, _, _) -> r);
    t_worker = per (fun (_, _, w, _) -> w);
    t_engine = per (fun (_, _, _, e) -> e);
    owner_misses = !owner_misses;
  }

(* ---------------- store ---------------- *)

let rm_rf dir = ignore (Sys.command ("rm -rf " ^ Filename.quote dir))

(* Appends the sample's outcomes to a scratch store with the serving
   default policy (group commit); returns per-append microseconds and
   the store's own counters. *)
let store_appends records =
  let dir = "store-scratch" in
  rm_rf dir;
  let st = Ssg_store.Store.open_ ~dir () in
  let times =
    List.map
      (fun (key, value) ->
        1e6 *. snd (time (fun () -> ignore (Ssg_store.Store.append st ~key ~value))))
      records
  in
  let prom = Ssg_obs.Metrics.to_prometheus (Ssg_store.Store.metrics st) in
  let bytes = Ssg_store.Store.journal_bytes st in
  Ssg_store.Store.close st;
  (times, Topo.prom_value prom "ssg_store_fsyncs_total", float_of_int bytes)

(* Boot-time replay of a store directory: open (recovery included) plus
   replay, in milliseconds. *)
let replay_ms dir =
  let (), s =
    time (fun () ->
        let st = Ssg_store.Store.open_ ~dir () in
        ignore (Ssg_store.Store.replay st (fun ~key:_ ~value:_ -> ()));
        Ssg_store.Store.close st)
  in
  1000. *. s

(* ---------------- the traced run ---------------- *)

let distinct_jobs (reqs : Workloads.req array) ~accepted limit =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  Array.iter
    (fun (q : Workloads.req) ->
      let key = Job.key q.job in
      if List.length !out < limit && q.reject <> accepted && not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        out := q :: !out
      end)
    reqs;
  List.rev !out

let pass_requests (w : Workloads.workload) (run : Drive.run) =
  Array.map (fun (s : Drive.sample) -> w.reqs.(s.idx)) run.samples

type result = { metrics : (string * float * string) list; notes : string list }

let measure r ~(before : scrape) (w : Workloads.workload) (t : Topo.t) (run : Drive.run) =
  let after = scrape t in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let sent = pass_requests w run in
  let n_req = float_of_int (Array.length run.samples) in
  (* ---- core / graph / sim: replay a sample of accepted jobs ---- *)
  let replay_sample = distinct_jobs sent ~accepted:true (if w.name = "miss_sweep" then 10 else 40) in
  let replays =
    with_span r "replay" (fun parent ->
        List.map
          (fun (q : Workloads.req) -> with_span r ~parent "replay.job" (fun p -> replay_job r ~parent:p q.job))
          replay_sample)
  in
  let avg f = mean (List.map f replays) in
  let diverged = List.fold_left (fun acc x -> acc + x.diverged) 0 replays in
  if diverged > 0 then note "lgraph replica diverged from Approx.graph_view in %d process-rounds" diverged;
  let other = avg (fun x -> x.exec_ms -. x.step_ms -. x.message_ms -. x.sc_ms) in
  (* cross-check against the Algorithm 1 profile in ROADMAP.md at n = 32 *)
  (match List.filter (fun x -> x.n = 32) replays with
  | [] -> note "phase-share cross-check: no n = 32 job in this workload's sample"
  | big ->
      let share f = 100. *. List.fold_left (fun a x -> a +. f x) 0. big /. List.fold_left (fun a x -> a +. x.exec_ms) 0. big in
      List.iter
        (fun (name, got, want) ->
          note "phase share at n = 32 (%d jobs): %s %.1f%% of Job.execute, ROADMAP.md profile ~%.0f%%%s"
            (List.length big) name got want
            (if Float.abs (got -. want) > 10. then " — DISAGREES by more than 10 points" else ""))
        [
          ("merge-max", share (fun x -> x.merge_ms), 29.);
          ("prune", share (fun x -> x.prune_ms), 28.);
          ("copy", share (fun x -> x.copy_ms), 15.);
          ("same_support", share (fun x -> x.same_support_ms), 6.);
          ("purge", share (fun x -> x.purge_ms), 6.);
        ]);
  (* ---- engine Job / Protocol, lint, store: in-process on sampled requests ---- *)
  let codec_sample = distinct_jobs sent ~accepted:true 64 @ distinct_jobs sent ~accepted:false 16 in
  let fresh = Hashtbl.create 64 in
  let outcome_of (q : Workloads.req) =
    match Hashtbl.find_opt fresh (Job.key q.job) with
    | Some o -> o
    | None ->
        let o = Job.execute q.job in
        Hashtbl.add fresh (Job.key q.job) o;
        o
  in
  let micro name f = with_span r name (fun _ -> f ()) in
  let canon =
    micro "job.canon" (fun () ->
        List.map
          (fun (q : Workloads.req) ->
            1e6 *. time_med 5 (fun () -> Job.of_run_text ~k:q.job.k q.job.run))
          codec_sample)
  in
  let accepted = List.filter (fun (q : Workloads.req) -> not q.reject) codec_sample in
  let decode, reply_codec, bytes =
    micro "protocol" (fun () ->
        List.fold_left
          (fun (d, c, b) (q : Workloads.req) ->
            let req = Protocol.request_to_bytes (Protocol.Submit q.job) in
            let reply =
              Protocol.Completed { Job.result = Ok (outcome_of q); cached = true; latency_ms = 0.01 }
            in
            let rb = Protocol.reply_to_bytes reply in
            ( 1e6 *. time_med 5 (fun () -> Protocol.request_of_bytes req) :: d,
              1e6 *. time_med 5 (fun () -> Protocol.reply_of_bytes (Protocol.reply_to_bytes reply)) :: c,
              float_of_int (Bytes.length req + Bytes.length rb) :: b ))
          ([], [], []) accepted)
  in
  let gate =
    micro "lint.gate" (fun () ->
        List.map
          (fun (q : Workloads.req) -> 1e6 *. time_med 3 (fun () -> Ssg_lint.Lint.gate ~k:q.job.k q.job.run))
          codec_sample)
  in
  let rejections =
    Array.fold_left
      (fun acc (s : Drive.sample) ->
        match s.reply with
        | Drive.Native (Error m) | Drive.Http (422, m) when Drive.rejected_by_lint m -> acc + 1
        | _ -> acc)
      0 run.samples
  in
  (* engine miss overhead: a cache-less engine's submit-to-reply time
     minus the execution time its worker measured for the same job (lint
     gate, queue hand-off and wake-up; one execution, so no
     cross-domain GC bias between two separate runs) *)
  let miss_overhead =
    micro "engine.miss" (fun () ->
        let engine = Engine.create ~workers:1 ~cache_capacity:0 () in
        Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
        let jobs = List.filteri (fun i _ -> i < 10) replay_sample in
        let wall =
          List.fold_left
            (fun acc (q : Workloads.req) -> acc +. snd (time (fun () -> Engine.run engine q.job)))
            0. jobs
        in
        let exec =
          match (Engine.stats engine).exec_ms with
          | Some s -> s.mean *. float_of_int s.count
          | None -> nan
        in
        ((1000. *. wall) -. exec) /. float_of_int (List.length jobs))
  in
  (* ---- tiers ---- *)
  let tier_sample =
    distinct_jobs sent ~accepted:true (if w.name = "churn_persist" then 32 else 48)
    @ distinct_jobs sent ~accepted:false 8
  in
  let tier0 = scrape t in
  let tr = with_span r "tiers" (fun parent -> tiers r ~parent t tier_sample) in
  let tier1 = scrape t in
  if tr.owner_misses > 0 then
    note "%d worker-tier replies were not cache hits (ring owner guess or eviction)" tr.owner_misses;
  let diff a b = List.map2 ( -. ) a b in
  let gateway_hop = diff tr.t_gateway tr.t_router in
  let router_hop = diff tr.t_router tr.t_worker in
  let worker_hop = diff tr.t_worker tr.t_engine in
  (* ---- the program's own histograms ---- *)
  let hist_p50 (a : scrape) (b : scrape) text name = Topo.bucket_quantile (hist_delta (text a) (text b) name) 0.5 in
  let gw_name = "ssg_hop_gateway_router_ms" and rw_name = "ssg_hop_router_worker_ms" in
  let gateway_text s = s.gateway_prom and router_text s = s.router_prom in
  let gw_count =
    match List.rev (hist_delta before.gateway_prom after.gateway_prom gw_name) with
    | (_, c) :: _ -> c
    | [] -> 0.
  in
  (* the workload pass when it went through the gateway, else the tier
     phase's gateway requests *)
  let hop_metric_p50 =
    if gw_count >= 10. then hist_p50 before after gateway_text gw_name
    else hist_p50 tier0 tier1 gateway_text gw_name
  in
  (* Same requests on both sides: the tier phase sent each cached job
     through the gateway and the router, so the program's hop histograms
     over that phase must agree with the benchmark's own timings of the
     next tier down.  Bucket interpolation limits the resolution. *)
  let crosscheck name program client =
    note "cross-check: %s p50 %.3f ms (program histogram, tier phase) vs %.3f ms timed by the benchmark%s"
      name program client
      (if Float.abs (program -. client) > 0.5 *. client then " — DISAGREES by more than half" else "")
  in
  crosscheck gw_name (hist_p50 tier0 tier1 gateway_text gw_name) (median tr.t_router);
  crosscheck rw_name (hist_p50 tier0 tier1 router_text rw_name) (median tr.t_worker);
  note "%s p50 over the workload pass: %.3f ms" rw_name (hist_p50 before after router_text rw_name);
  let q_sum, _ = hist_sum_count_delta before.worker_prom after.worker_prom "ssg_hop_queue_wait_ms" in
  let x_sum, x_cnt = hist_sum_count_delta before.worker_prom after.worker_prom "ssg_hop_exec_ms" in
  if x_cnt > 0. && replays <> [] then
    note "cross-check: ssg_hop_exec_ms mean %.3f ms over %.0f executions vs Job.execute on the replay sample %.3f ms"
      (x_sum /. x_cnt) x_cnt (avg (fun x -> x.exec_ms));
  (* ---- engine / LRU counters ---- *)
  let d f = sum_workers (fun (a : Telemetry.snapshot) b -> float_of_int (f b - f a)) before after in
  let hits = d (fun s -> s.cache_hits) and misses = d (fun s -> s.cache_misses) in
  let completed = d (fun s -> s.jobs_completed) in
  let entries = d (fun s -> s.cache_entries) in
  let evictions = completed -. entries in
  (* ---- router ---- *)
  let shard i = delta_value before after (fun s -> s.router_prom) (Printf.sprintf "ssg_router_shard%d_routed_total" i) in
  let shards = List.mapi (fun i _ -> shard i) t.workers in
  let imbalance = List.fold_left Float.max 0. shards /. Float.max 1. (mean shards) in
  let failovers = delta_value before after (fun s -> s.router_prom) "ssg_router_failovers_total" in
  (* ---- store ---- *)
  let records =
    List.init 512 (fun i ->
        let q = List.nth accepted (i mod List.length accepted) in
        (Job.key q.job ^ string_of_int i, Protocol.outcome_to_string (outcome_of q)))
  in
  let appends, scratch_fsyncs, scratch_bytes = micro "store.append" (fun () -> store_appends records) in
  let wsum name = List.fold_left2 (fun acc a b -> acc +. Topo.prom_value b name -. Topo.prom_value a name) 0. before.worker_prom after.worker_prom in
  let live_appends = wsum "ssg_store_appends_total" in
  let scratch_note what =
    note "%s from a scratch store of this workload's outcomes (%s)" what
      (if live_appends > 0. then "a compaction in the pass reset the journal" else "persistence is off")
  in
  let fsyncs_per_record =
    if live_appends > 0. then wsum "ssg_store_fsyncs_total" /. live_appends
    else begin
      scratch_note "store.fsyncs_per_record";
      scratch_fsyncs /. 512.
    end
  in
  let bytes_per_record =
    if live_appends > 0. && wsum "ssg_store_compactions_total" = 0. then
      wsum "ssg_store_journal_bytes" /. live_appends
    else begin
      scratch_note "store.bytes_per_record";
      scratch_bytes /. 512.
    end
  in
  if live_appends > 0. then note "store counters over %.0f live journal appends" live_appends;
  (* ---- load-generator validity and the waterfall ---- *)
  let lat = Array.to_list (Array.map (fun (s : Drive.sample) -> 1000. *. (s.finished -. s.due)) run.samples) in
  let lag = Array.to_list (Array.map (fun (s : Drive.sample) -> 1000. *. (s.sent -. s.due)) run.samples) in
  let service = Array.to_list (Array.map (fun (s : Drive.sample) -> 1000. *. (s.finished -. s.sent)) run.samples) in
  (* Mean service time explained by named layers.  hit_http: the
     cached path through every tier (its tier sample carries lint
     rejections too).  Router workloads: the cached path through the
     router, plus, per fresh submission, the worker's lint gate, queue
     wait and execution (the program's own histogram sums over the
     pass). *)
  let named =
    if w.name = "hit_http" then mean tr.t_gateway
    else mean tr.t_router +. ((q_sum +. x_sum +. (misses *. median gate /. 1000.)) /. n_req)
  in
  let unaccounted = (mean service -. named) /. mean service in
  (* recording one request span, measured here, times the pass's count *)
  let span_cost =
    let probe = recorder () in
    let k = 20000 in
    let _, s = time (fun () -> for i = 1 to k do ignore (record probe ~req:i "probe" 0. 0.) done) in
    s /. float_of_int k
  in
  let pass_wall = run.stopped -. run.started in
  let overhead = span_cost *. n_req /. pass_wall in
  let metrics =
    [
      ("approx.step_ms", avg (fun x -> x.step_ms), "ms");
      ("approx.message_ms", avg (fun x -> x.message_ms), "ms");
      ("approx.sc_ms", avg (fun x -> x.sc_ms), "ms");
      ("approx.rounds", avg (fun x -> float_of_int x.rounds), "count");
      ("lgraph.merge_max_ms", avg (fun x -> x.merge_ms), "ms");
      ("lgraph.prune_ms", avg (fun x -> x.prune_ms), "ms");
      ("lgraph.purge_ms", avg (fun x -> x.purge_ms), "ms");
      ("lgraph.copy_ms", avg (fun x -> x.copy_ms), "ms");
      ("lgraph.same_support_ms", avg (fun x -> x.same_support_ms), "ms");
      ("lgraph.merge_calls", avg (fun x -> float_of_int x.merge_calls), "count");
      ("job.execute_ms", avg (fun x -> x.exec_ms), "ms");
      ("job.other_ms", other, "ms");
      ("job.canon_us", median canon, "us");
      ("protocol.request_decode_us", median decode, "us");
      ("protocol.reply_codec_us", median reply_codec, "us");
      ("protocol.bytes_per_req", mean bytes, "bytes");
      ("lint.gate_us", median gate, "us");
      ("lint.reject_share", float_of_int rejections /. n_req, "share");
      ("engine.hit_us", 1000. *. median tr.t_engine, "us");
      ("engine.miss_overhead_ms", miss_overhead, "ms");
      ("engine.hit_ratio", hits /. Float.max 1. (hits +. misses), "share");
      ("engine.dedup_joins", d (fun s -> s.dedup_joins), "count");
      ("lru.evictions", evictions, "count");
      ("worker.hop_ms", median worker_hop, "ms");
      ("router.hop_ms", median router_hop, "ms");
      ("router.imbalance", imbalance, "ratio");
      ("router.failovers", failovers, "count");
      ("gateway.hop_ms", median gateway_hop, "ms");
      ("gateway.hop_metric_p50_ms", hop_metric_p50, "ms");
      ("store.append_us", median appends, "us");
      ("store.fsyncs_per_record", fsyncs_per_record, "ratio");
      ("store.bytes_per_record", bytes_per_record, "bytes");
      ("driver.lag_p99_ms", pct lag 99., "ms");
      ("driver.latency_p99_ms", pct lat 99., "ms");
      ("trace.overhead_share", overhead, "share");
      ("waterfall.unaccounted_share", unaccounted, "share");
    ]
  in
  { metrics; notes = List.rev !notes }

(* [store.replay_ms] needs the topology gone: with persistence, the
   workers' own journals (the boot replay setup_s pays); otherwise the
   scratch store of this workload's outcomes. *)
let replay_metric (w : Workloads.workload) =
  let dirs =
    if w.name = "churn_persist" then [ "store1"; "store2" ] else [ "store-scratch" ]
  in
  ("store.replay_ms", mean (List.map replay_ms dirs), "ms")
