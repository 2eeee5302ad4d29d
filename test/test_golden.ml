(* Pinned outcomes.  A fixed set of jobs — Algorithm 1 with and without
   its monitors and the three baselines, on the three generated run
   families at n ∈ {5, 9, 17, 33} — is executed and every outcome's wire
   text is hashed.  The digest was recorded with an executor that
   tested every inbox slot, a prune that always ran its closure and
   strong connectivity decided by Tarjan's algorithm, so the shortcuts
   that replaced them are held to those outcomes; any shift of a
   decision, round count, message tally or monitor verdict fails here. *)

open Ssg_util
open Ssg_adversary
open Ssg_engine

let expected = "eb637f4b62dd23a366a2661d740d1461"

let families =
  [
    (fun rng n ->
      Build.block_sources rng ~n ~k:(max 1 (n / 4)) ~prefix_len:4 ~noise:0.3 ());
    (fun rng n ->
      Build.partitioned rng ~n ~blocks:(max 2 (n / 8)) ~prefix_len:4 ~noise:0.3
        ());
    (fun rng n -> Build.single_root rng ~n ~prefix_len:4 ~noise:0.3 ());
  ]

let algorithms =
  [
    (Job.Kset, false);
    (Job.Kset, true);
    (Job.Floodmin, false);
    (Job.Flood_consensus, false);
    (Job.Naive_min, false);
  ]

let jobs () =
  List.concat
    (List.mapi
       (fun i family ->
         List.concat_map
           (fun n ->
             let adv = family (Rng.of_int ((1000 * i) + n)) n in
             let k = max (max 1 (n / 4)) (Adversary.min_k adv) in
             List.map
               (fun (algorithm, monitor) -> Job.make ~algorithm ~monitor ~k adv)
               algorithms)
           [ 5; 9; 17; 33 ])
       families)

let test_pinned () =
  let jobs = jobs () in
  Alcotest.(check int) "job count" 60 (List.length jobs);
  let b = Buffer.create 65536 in
  List.iter
    (fun job ->
      Buffer.add_string b (Protocol.outcome_to_string (Job.execute job));
      Buffer.add_char b '\n')
    jobs;
  Alcotest.(check string)
    "outcome digest" expected
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let tests =
  [ Alcotest.test_case "outcomes match the pinned digest" `Quick test_pinned ]
