open Ssg_graph
open Ssg_rounds
open Ssg_adversary
open Ssg_sim

type algorithm = Kset | Floodmin | Flood_consensus | Naive_min

type t = {
  run : string;
  algorithm : algorithm;
  k : int;
  inputs : int array option;
  rounds : int option;
  monitor : bool;
  key : string;
  adv : Adversary.t;
}

let algorithm_name = function
  | Kset -> "kset-agreement"
  | Floodmin -> "floodmin"
  | Flood_consensus -> "flood-consensus"
  | Naive_min -> "naive-min"

let is_default_inputs n inputs =
  Array.length inputs = n && Array.for_all2 ( = ) inputs (Array.init n Fun.id)

(* The cache key: the header fields as text, each closed by a NUL, then
   the run in binary — n and the prefix length as 32-bit big-endian
   words, and each prefix graph followed by the stable graph as an n×n
   adjacency bitset (bit q*n + p of the graph's bytes, lowest bit first,
   is edge q -> p).  The header fields contain no NUL and the binary
   part has a width fixed by n and the prefix length, so two keys are
   equal iff every field and every graph is: exactly the canonical run
   text's information, at 1 bit per matrix cell instead of ~5 bytes per
   edge. *)
let key_of ~algorithm ~k ~inputs ~rounds ~monitor adv =
  let n = Adversary.n adv and prefix = Adversary.prefix_length adv in
  let graph_bytes = ((n * n) + 7) / 8 in
  let buf = Buffer.create (64 + 8 + ((prefix + 1) * graph_bytes)) in
  let field s =
    Buffer.add_string buf s;
    Buffer.add_char buf '\x00'
  in
  field (algorithm_name algorithm);
  field (string_of_int k);
  field
    (match inputs with
    | None -> "default"
    | Some xs ->
        String.concat "" (List.map (fun x -> string_of_int x ^ ",") (Array.to_list xs)));
  field (match rounds with None -> "horizon" | Some r -> string_of_int r);
  field (if monitor then "mon" else "nomon");
  Buffer.add_int32_be buf (Int32.of_int n);
  Buffer.add_int32_be buf (Int32.of_int prefix);
  let bits = Bytes.create graph_bytes in
  for r = 1 to prefix + 1 do
    let g = Adversary.graph adv r in
    Bytes.fill bits 0 graph_bytes '\x00';
    for q = 0 to n - 1 do
      Digraph.iter_succs g q (fun p ->
          let i = (q * n) + p in
          let byte = Bytes.get_uint8 bits (i lsr 3) in
          Bytes.set_uint8 bits (i lsr 3) (byte lor (1 lsl (i land 7))))
    done;
    Buffer.add_bytes buf bits
  done;
  Buffer.contents buf

(* [adv] is the parsed form of [run] (canonical text). *)
let build ~run ~adv ?(algorithm = Kset) ?(k = 1) ?inputs ?rounds
    ?(monitor = false) () =
  if k < 1 then invalid_arg "Job: k must be >= 1";
  (match rounds with
  | Some r when r < 0 -> invalid_arg "Job: rounds must be >= 0"
  | _ -> ());
  let inputs =
    match inputs with
    | Some xs when is_default_inputs (Adversary.n adv) xs -> None
    | other -> other
  in
  let monitor = monitor && algorithm = Kset in
  let key = key_of ~algorithm ~k ~inputs ~rounds ~monitor adv in
  { run; algorithm; k; inputs; rounds; monitor; key; adv }

let make ?algorithm ?k ?inputs ?rounds ?monitor adv =
  (* to_string raises Invalid_argument on recurrent runs; round-tripping
     through of_string yields the canonical text (sorted edges, no
     comments) and keeps [run] independent of the adversary's name. *)
  let adv = Run_format.of_string (Run_format.to_string adv) in
  let run = Run_format.to_string adv in
  build ~run ~adv ?algorithm ?k ?inputs ?rounds ?monitor ()

let of_run_text ?algorithm ?k ?inputs ?rounds ?monitor text =
  let adv = Run_format.of_string text in
  let run = Run_format.to_string adv in
  build ~run ~adv ?algorithm ?k ?inputs ?rounds ?monitor ()

let key job = job.key
let equal a b = String.equal a.key b.key

type outcome = {
  algorithm : string;
  n : int;
  min_k : int;
  rounds_run : int;
  decisions : (int * int) option array;
  distinct_decisions : int;
  messages_sent : int;
  messages_delivered : int;
  bits_sent : int;
  violations : string list;
}

let outcome_of_report (r : Runner.report) =
  let o = r.Runner.outcome in
  {
    algorithm = r.Runner.algorithm;
    n = r.Runner.n;
    min_k = r.Runner.min_k;
    rounds_run = o.Executor.rounds_run;
    decisions =
      Array.map
        (Option.map (fun d -> (d.Executor.round, d.Executor.value)))
        o.Executor.decisions;
    distinct_decisions = Metrics.distinct_decisions o;
    messages_sent = o.Executor.messages_sent;
    messages_delivered = o.Executor.messages_delivered;
    bits_sent = o.Executor.bits_sent;
    violations = r.Runner.violations;
  }

let execute ?min_k job =
  let adv = job.adv in
  let n = Adversary.n adv in
  (match job.inputs with
  | Some xs when Array.length xs <> n ->
      invalid_arg
        (Printf.sprintf "Job.execute: %d inputs for a %d-process run"
           (Array.length xs) n)
  | _ -> ());
  let inputs = job.inputs in
  let rounds = job.rounds in
  let report =
    match job.algorithm with
    | Kset -> Runner.run_kset ?inputs ?rounds ~monitor:job.monitor ?min_k adv
    | Floodmin ->
        let budget =
          Ssg_baselines.Floodmin.rounds_for ~f:(n / 2) ~k:job.k
        in
        Runner.run_packed
          (Ssg_baselines.Floodmin.make ~rounds:budget)
          ?inputs ?rounds ?min_k adv
    | Flood_consensus ->
        Runner.run_packed
          (Ssg_baselines.Flood_consensus.make ~f:(n / 2))
          ?inputs ?rounds ?min_k adv
    | Naive_min ->
        Runner.run_packed
          (Ssg_baselines.Naive_min.make ~horizon:n)
          ?inputs ?rounds ?min_k adv
  in
  outcome_of_report report

type completion = {
  result : (outcome, string) Stdlib.result;
  cached : bool;
  latency_ms : float;
}

let pp_completion fmt c =
  match c.result with
  | Error msg ->
      Format.fprintf fmt "ERROR: %s  (%.2f ms)@." msg c.latency_ms
  | Ok o ->
      Format.fprintf fmt "algorithm   : %s@." o.algorithm;
      Format.fprintf fmt "n           : %d@." o.n;
      Format.fprintf fmt "min_k       : %d@." o.min_k;
      Format.fprintf fmt "rounds run  : %d@." o.rounds_run;
      Format.fprintf fmt "decisions   : %d distinct@." o.distinct_decisions;
      Array.iteri
        (fun p d ->
          match d with
          | Some (round, value) ->
              Format.fprintf fmt "  p%-3d      : decides %d at round %d@."
                (p + 1) value round
          | None -> Format.fprintf fmt "  p%-3d      : UNDECIDED@." (p + 1))
        o.decisions;
      Format.fprintf fmt "messages    : %d sent, %d delivered, %d bits@."
        o.messages_sent o.messages_delivered o.bits_sent;
      (match o.violations with
      | [] -> ()
      | vs ->
          Format.fprintf fmt "MONITOR VIOLATIONS (%d):@." (List.length vs);
          List.iter (fun s -> Format.fprintf fmt "  %s@." s) vs);
      Format.fprintf fmt "served      : %s, %.2f ms@."
        (if c.cached then "cache" else "computed")
        c.latency_ms
