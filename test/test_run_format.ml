(* Tests for the run-description file format. *)

open Ssg_util
open Ssg_graph
open Ssg_adversary

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let same_run a b =
  Adversary.n a = Adversary.n b
  && Adversary.prefix_length a = Adversary.prefix_length b
  && List.for_all
       (fun r -> Digraph.equal (Adversary.graph a r) (Adversary.graph b r))
       (List.init (Adversary.prefix_length a + 2) (fun i -> i + 1))

let test_roundtrip_examples () =
  List.iter
    (fun adv ->
      let adv' = Run_format.of_string (Run_format.to_string adv) in
      check ("roundtrip " ^ Adversary.name adv) true (same_run adv adv'))
    [
      Build.synchronous ~n:4;
      Build.lower_bound ~n:6 ~k:3;
      Build.figure1 ();
      Build.partitioned (Rng.of_int 1) ~n:8 ~blocks:2 ~prefix_len:3 ();
    ]

let prop_roundtrip =
  QCheck2.Test.make ~count:120 ~name:"format roundtrips random runs"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.of_int seed in
      (* The format requires n >= 2 (a description needs a second
         process to talk about); n = 1 systems stay in-memory only. *)
      let n = 2 + Rng.int rng 9 in
      let adv =
        Build.arbitrary rng ~n ~density:(Rng.float rng)
          ~prefix_len:(Rng.int rng 4) ~noise:0.5 ()
      in
      same_run adv (Run_format.of_string (Run_format.to_string adv)))

let test_parse_by_hand () =
  let adv =
    Run_format.of_string
      "ssg-run v1\n# the minimal E9 witness\nn 3\nround 1: 1>0 0>2 1>2 2>1\nstable: 1>0 0>2 1>2\n"
  in
  check_int "n" 3 (Adversary.n adv);
  check_int "prefix" 1 (Adversary.prefix_length adv);
  check "self loops implied" true
    (Digraph.has_all_self_loops (Adversary.graph adv 1));
  check "transient edge in round 1" true
    (Digraph.mem_edge (Adversary.graph adv 1) 2 1);
  check "gone in stable" false (Digraph.mem_edge (Adversary.graph adv 2) 2 1);
  check_int "min_k 1" 1 (Adversary.min_k adv)

let expect_failure label text =
  check label true
    (try
       ignore (Run_format.of_string text);
       false
     with Failure _ -> true)

let test_parse_errors () =
  expect_failure "missing header" "n 3\nstable: \n";
  expect_failure "missing n" "ssg-run v1\nstable: 0>1\n";
  expect_failure "missing stable" "ssg-run v1\nn 3\n";
  expect_failure "bad edge" "ssg-run v1\nn 3\nstable: 0>9\n";
  expect_failure "malformed edge" "ssg-run v1\nn 3\nstable: 0-1\n";
  expect_failure "non-consecutive rounds" "ssg-run v1\nn 3\nround 2: \nstable: \n";
  expect_failure "duplicate stable" "ssg-run v1\nn 2\nstable: \nstable: \n";
  expect_failure "unknown directive" "ssg-run v1\nn 2\nfrobnicate 7\nstable: \n"

(* Regression: a second [n] declaration used to silently overwrite the
   first, parsing earlier rounds and later graphs against different
   process counts.  The error message is part of the format's contract. *)
let expect_message label text message =
  check label true
    (try
       ignore (Run_format.of_string text);
       false
     with Failure msg -> msg = message)

let test_duplicate_n_rejected () =
  expect_message "duplicate n"
    "ssg-run v1\nn 3\nround 1: 0>1\nn 5\nstable: 0>1\n"
    "line 4: duplicate n declaration";
  (* Even re-declaring the same value is a malformed file. *)
  expect_message "duplicate n, same value"
    "ssg-run v1\nn 3\nn 3\nstable: 0>1\n" "line 3: duplicate n declaration"

(* Regression: [n 0] and [n 1] used to parse (the guard only refused
   non-positive values, and 1 passed it), producing degenerate runs the
   edge grammar cannot even describe.  The diagnostic is line-anchored
   so the lint front door can place it. *)
let test_degenerate_n_rejected () =
  expect_message "n 1"
    "ssg-run v1\nn 1\nstable:\n"
    "line 2: n must be at least 2 (got 1): a run needs two processes to \
     describe communication";
  expect_message "n 0"
    "ssg-run v1\nn 0\nstable:\n"
    "line 2: n must be at least 2 (got 0): a run needs two processes to \
     describe communication";
  expect_message "negative n"
    "ssg-run v1\n\nn -4\nstable:\n"
    "line 3: n must be at least 2 (got -4): a run needs two processes to \
     describe communication";
  expect_message "non-integer n" "ssg-run v1\nn x\nstable:\n"
    "line 2: n must be an integer >= 2"

(* Regression: prefix rounds after the stable graph used to parse (the
   round list and the stable ref were independent), producing a run
   whose textual order lied about its round order. *)
let test_round_after_stable_rejected () =
  expect_message "round after stable"
    "ssg-run v1\nn 3\nstable: 0>1\nround 1: 0>2\n"
    "line 4: round after stable graph";
  expect_message "round after bare stable"
    "ssg-run v1\nn 2\nstable:\nround 1: 0>1\n"
    "line 4: round after stable graph"

let test_spans () =
  let _adv, spans =
    Run_format.parse
      "ssg-run v1\n# comment\nn 3\n\nround 1: 0>1 0>1 2>2\nround 2: 0>1\nstable: 0>1\n"
  in
  check_int "n line" 3 spans.Run_format.n_line;
  check_int "round count" 2 (Array.length spans.Run_format.round_lines);
  check_int "round 1 line" 5 spans.Run_format.round_lines.(0);
  check_int "round 2 line" 6 spans.Run_format.round_lines.(1);
  check_int "stable line" 7 spans.Run_format.stable_line;
  Alcotest.(check (list (pair int string)))
    "redundant tokens in source order"
    [ (5, "0>1"); (5, "2>2") ]
    spans.Run_format.redundant_edges

let test_edgeless_stable () =
  let adv = Run_format.of_string "ssg-run v1\nn 2\nstable:\n" in
  check "only self loops" true
    (Digraph.equal (Adversary.graph adv 1) (Gen.self_loops_only 2))

let test_recurrent_rejected () =
  let rng = Rng.of_int 3 in
  let adv =
    Build.with_recurrent_noise rng (Build.synchronous ~n:3) ~noise:0.2
  in
  check "recurrent rejected" true
    (try ignore (Run_format.to_string adv); false
     with Invalid_argument _ -> true)

let test_save_load_file () =
  let adv = Build.lower_bound ~n:5 ~k:2 in
  let path = Filename.temp_file "ssg_run" ".ssg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Run_format.save adv path;
      check "file roundtrip" true (same_run adv (Run_format.load path)))

(* The formatter as it was written with [Printf] and edge lists: the
   buffer-writing [to_string] must reproduce it byte for byte. *)
let reference_to_string adv =
  let edge_tokens g =
    Digraph.edges g
    |> List.filter (fun (a, b) -> a <> b)
    |> List.map (fun (a, b) -> Printf.sprintf "%d>%d" a b)
    |> String.concat " "
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "ssg-run v1\n";
  Buffer.add_string buf
    (Printf.sprintf "# %s\nn %d\n" (Adversary.name adv) (Adversary.n adv));
  for r = 1 to Adversary.prefix_length adv do
    Buffer.add_string buf
      (Printf.sprintf "round %d: %s\n" r (edge_tokens (Adversary.graph adv r)))
  done;
  Buffer.add_string buf
    (Printf.sprintf "stable: %s\n"
       (edge_tokens (Adversary.graph adv (Adversary.prefix_length adv + 1))));
  Buffer.contents buf

let prop_matches_reference =
  QCheck2.Test.make ~count:200 ~name:"to_string matches the reference formatter"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.of_int seed in
      let n = 1 + Rng.int rng 70 in
      (* density 0 gives graphs with self-loops only: empty lines *)
      let graph () =
        let density = if Rng.bool rng then 0. else Rng.float rng in
        let g = Digraph.create n in
        Digraph.add_self_loops g;
        for a = 0 to n - 1 do
          for b = 0 to n - 1 do
            if Rng.chance rng density then Digraph.add_edge g a b
          done
        done;
        g
      in
      let prefix = Array.init (Rng.int rng 5) (fun _ -> graph ()) in
      let adv =
        Adversary.make
          ~name:(if Rng.bool rng then "loaded" else Printf.sprintf "run-%d" seed)
          ~prefix ~stable:(graph ())
      in
      String.equal (Run_format.to_string adv) (reference_to_string adv))

let tests =
  [
    Alcotest.test_case "roundtrip examples" `Quick test_roundtrip_examples;
    Alcotest.test_case "parse by hand" `Quick test_parse_by_hand;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "duplicate n rejected" `Quick test_duplicate_n_rejected;
    Alcotest.test_case "degenerate n rejected" `Quick
      test_degenerate_n_rejected;
    Alcotest.test_case "round after stable rejected" `Quick
      test_round_after_stable_rejected;
    Alcotest.test_case "span tracking" `Quick test_spans;
    Alcotest.test_case "edgeless stable" `Quick test_edgeless_stable;
    Alcotest.test_case "recurrent rejected" `Quick test_recurrent_rejected;
    Alcotest.test_case "save/load file" `Quick test_save_load_file;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_roundtrip; prop_matches_reference ]
