(* Seeded workload generation.  Everything the program receives is made
   here from the workload seed: the same seed gives the same request
   sequence, and [digest] fingerprints it so two runs can prove they
   replayed identical inputs. *)

open Ssg_util
open Ssg_adversary
open Ssg_engine

type req = {
  job : Job.t;
  reject : bool;  (* k below the run's min_k: the lint gate must refuse it *)
}

type workload = {
  name : string;
  reqs : req array;  (* the measured request sequence, in send order *)
  prefill : Job.t array;  (* untimed earlier life (churn_persist only) *)
  warm : Job.t array;  (* jobs served before timing starts (hit_http) *)
  probe : int -> Job.t;  (* the first request of boot [i] *)
}

(* One independent stream per (seed, purpose, index), so a job never
   depends on how many jobs came before it. *)
let rng_for seed purpose i =
  Rng.make
    (Int64.logxor
       (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L)
       (Int64.of_int ((purpose * 1_000_003) + i)))

(* Every generated job asks for a k the run can achieve, and passes the
   lint gate the service applies, so no accepted request is refused. *)
let job_of adv ~k =
  let job = Job.make ~k:(max k (Adversary.min_k adv)) adv in
  match Ssg_lint.Lint.gate ~k:job.Job.k job.Job.run with
  | None -> job
  | Some diag -> failwith ("generated job fails the lint gate:\n" ^ diag)

let block_job rng ~n ~k =
  job_of (Build.block_sources rng ~n ~k ~prefix_len:4 ~noise:0.3 ()) ~k

let partitioned_job rng ~n =
  job_of
    (Build.partitioned rng ~n ~blocks:(max 2 (n / 8)) ~prefix_len:4 ~noise:0.3 ())
    ~k:(n / 4)

let single_root_job rng ~n =
  job_of (Build.single_root rng ~n ~prefix_len:4 ~noise:0.3 ()) ~k:(max 1 (n / 4))

(* Zipf(s = 1) over ranks [0, size): cumulative weights, binary search. *)
let zipf size =
  let cdf = Array.make size 0. in
  let acc = ref 0. in
  for i = 0 to size - 1 do
    acc := !acc +. (1. /. float_of_int (i + 1));
    cdf.(i) <- !acc
  done;
  fun rng ->
    let u = Rng.float rng *. !acc in
    let lo = ref 0 and hi = ref (size - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

(* Distinct jobs from [make i], skipping any key already produced. *)
let distinct_jobs count make =
  let seen = Hashtbl.create (2 * count) in
  let out = ref [] and made = ref 0 and i = ref 0 in
  while !made < count do
    let job = make !i in
    incr i;
    let key = Job.key job in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      out := job :: !out;
      incr made
    end
  done;
  Array.of_list (List.rev !out)

(* A tiny job unique to boot [i]: what setup time waits on. *)
let probe seed i =
  block_job (rng_for seed 9 i) ~n:6 ~k:2

(* miss_sweep: every job distinct, n = 32 carrying most of the compute. *)
let miss_sweep ~seed ~count =
  (* n and family follow a fixed 20-slot pattern (12 x n = 32, 5 x 24,
     3 x 16; one partitioned and one single_root slot), so every run
     carries the same mix and only the random graphs differ by seed *)
  let make i =
    let rng = rng_for seed 1 i in
    let slot = i mod 20 in
    let n = if slot < 12 then 32 else if slot < 17 then 24 else 16 in
    if slot = 7 then partitioned_job rng ~n
    else if slot = 13 then single_root_job rng ~n
    else block_job rng ~n ~k:(n / 4)
  in
  let jobs = distinct_jobs count make in
  {
    name = "miss_sweep";
    reqs = Array.map (fun job -> { job; reject = false }) jobs;
    prefill = [||];
    warm = [||];
    probe = probe seed;
  }

let working_set = 192
let reject_share = 0.1

(* hit_http: Zipf requests over a pre-warmed working set of small jobs;
   a fixed share asks for a k below the run's min_k. *)
let hit_http ~seed ~count =
  let set =
    distinct_jobs working_set (fun i ->
        let rng = rng_for seed 2 i in
        let n = 8 + Rng.int rng 9 in
        block_job rng ~n ~k:(2 + Rng.int rng 2))
  in
  let min_ks = Array.map (fun (j : Job.t) -> Adversary.min_k (Run_format.of_string j.run)) set in
  let rejectable =
    Array.of_list
      (List.filter (fun i -> min_ks.(i) >= 2) (List.init working_set Fun.id))
  in
  let rejected =
    Array.map
      (fun i -> Job.of_run_text ~k:(min_ks.(i) - 1) set.(i).Job.run)
      rejectable
  in
  let pick = zipf working_set and pick_rej = zipf (Array.length rejected) in
  let rng = rng_for seed 3 0 in
  let reqs =
    Array.init count (fun _ ->
        if Rng.float rng < reject_share then
          { job = rejected.(pick_rej rng); reject = true }
        else { job = set.(pick rng); reject = false })
  in
  { name = "hit_http"; reqs; prefill = [||]; warm = set; probe = probe seed }

let fresh_small seed purpose i =
  let rng = rng_for seed purpose i in
  let n = 8 + Rng.int rng 3 in
  block_job rng ~n ~k:2

let recent_window = 512

(* churn_persist: half fresh small jobs, half Zipf re-requests of the
   most recent fresh keys; an earlier life fills the journal. *)
let churn_persist ~seed ~count ~prefill =
  (* a fair coin picks fresh keys: size the pool four standard
     deviations above its expected use, and re-request once it runs dry *)
  let pool = (count / 2) + (4 * int_of_float (sqrt (float_of_int count))) + 16 in
  let fresh = distinct_jobs pool (fresh_small seed 4) in
  let prefill = distinct_jobs prefill (fresh_small seed 5) in
  let rng = rng_for seed 6 0 in
  let pick = zipf recent_window in
  let next_fresh = ref 0 in
  let reqs =
    Array.init count (fun _ ->
        let coin = Rng.float rng < 0.5 in
        if !next_fresh = 0 || (coin && !next_fresh < pool) then begin
          let job = fresh.(!next_fresh) in
          incr next_fresh;
          { job; reject = false }
        end
        else
          let back = min (pick rng) (!next_fresh - 1) in
          { job = fresh.(!next_fresh - 1 - back); reject = false })
  in
  { name = "churn_persist"; reqs; prefill; warm = [||]; probe = probe seed }

let digest w =
  let buf = Buffer.create 4096 in
  let add (j : Job.t) =
    Buffer.add_string buf (Digest.string (Job.key j));
    Buffer.add_char buf '\n'
  in
  Array.iter add w.prefill;
  Array.iter add w.warm;
  Array.iter
    (fun r ->
      add r.job;
      Buffer.add_char buf (if r.reject then 'R' else 'A'))
    w.reqs;
  Digest.to_hex (Digest.string (Buffer.contents buf))
