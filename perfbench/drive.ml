(* Load generation and the correctness check.

   Closed loop ([miss_sweep], [churn_persist]): one pipelined native
   connection to the router keeps a fixed window of jobs in flight; the
   next job is sent when the oldest reply is in.  Open loop
   ([hit_http]): requests are due on a fixed schedule over at most
   [connections] keep-alive HTTP connections into the gateway, and each
   latency runs from the request's due time, so a stall is charged to
   every request it delays. *)

open Ssg_engine

type reply =
  | Native of (Job.completion, string) result
  | Http of int * string
  | Lost of string

type sample = {
  idx : int;  (* index into the workload's request sequence *)
  due : float;  (* scheduled send time (open loop) or send time *)
  sent : float;
  finished : float;
  reply : reply;
}

type run = { samples : sample array; started : float; stopped : float }

let now = Unix.gettimeofday

(* [on_done] sees every sample as it completes, on the thread that
   timed it (the traced run records its request spans there). *)
let closed_loop ?(on_done = ignore) ~router ~(reqs : Workloads.req array) ~window ~seconds () =
  let pc = Pclient.connect ~socket:router () in
  Fun.protect ~finally:(fun () -> Pclient.close pc) @@ fun () ->
  let out = ref [] in
  let q = Queue.create () in
  let next = ref 0 in
  let started = now () in
  let deadline = started +. seconds in
  let send () =
    if !next < Array.length reqs && now () < deadline then begin
      let i = !next in
      incr next;
      let t = now () in
      Queue.push (i, t, Pclient.submit pc reqs.(i).job) q
    end
  in
  for _ = 1 to window do
    send ()
  done;
  while not (Queue.is_empty q) do
    let idx, sent, ticket = Queue.pop q in
    let reply = Native (Pclient.await ticket) in
    let finished = now () in
    let s = { idx; due = sent; sent; finished; reply } in
    on_done s;
    out := s :: !out;
    send ()
  done;
  let samples = Array.of_list (List.rev !out) in
  let stopped = Array.fold_left (fun acc s -> Float.max acc s.finished) started samples in
  { samples; started; stopped }

let submit_path (job : Job.t) = Printf.sprintf "/submit?k=%d" job.Job.k

(* [rate] requests per second spread over [connections] connections:
   connection [c] owns requests [c], [c + connections], ...  The calling
   thread drives connection 0, so the benchmark never runs more than
   [connections] threads of its own. *)
let open_loop ?(on_done = ignore) ~port ~(reqs : Workloads.req array) ~rate ~connections ~seconds () =
  let total = min (Array.length reqs) (int_of_float (rate *. seconds)) in
  let started = now () +. 0.01 in
  let deadline = started +. seconds in
  let per_conn = Array.make connections [] in
  let drive c =
    let conn = ref (Topo.http_connect port) in
    let out = ref [] in
    let i = ref c in
    (* past the deadline an overloaded system gets no further requests *)
    while !i < total && now () < deadline do
      let idx = !i in
      let due = started +. (float_of_int idx /. rate) in
      let wait = due -. now () in
      if wait > 0. then Thread.delay wait;
      let sent = now () in
      let job = reqs.(idx).job in
      let reply =
        match Topo.http_call !conn ~meth:"POST" ~path:(submit_path job) ~body:job.Job.run () with
        | status, body -> Http (status, body)
        | exception (Unix.Unix_error _ | End_of_file | Failure _ as e) ->
            Topo.http_close !conn;
            (try conn := Topo.http_connect port with Unix.Unix_error _ -> ());
            Lost (Printexc.to_string e)
      in
      let s = { idx; due; sent; finished = now (); reply } in
      on_done s;
      out := s :: !out;
      i := !i + connections
    done;
    Topo.http_close !conn;
    per_conn.(c) <- !out
  in
  let threads = List.init (connections - 1) (fun c -> Thread.create drive (c + 1)) in
  drive 0;
  List.iter Thread.join threads;
  let samples =
    Array.of_list (List.concat (Array.to_list per_conn))
  in
  Array.sort (fun a b -> compare a.idx b.idx) samples;
  let stopped = Array.fold_left (fun acc s -> Float.max acc s.finished) started samples in
  { samples; started; stopped }

(* ---------------- correctness ---------------- *)

module Json = Ssg_obs.Export

(* The gateway's JSON rendering of an outcome, rebuilt as a value so a
   reply can be compared field by field after parsing. *)
let json_of_outcome (o : Job.outcome) =
  Json.Obj
    [
      ("algorithm", Json.Str o.algorithm);
      ("n", Json.Int o.n);
      ("min_k", Json.Int o.min_k);
      ("rounds_run", Json.Int o.rounds_run);
      ( "decisions",
        Json.Arr
          (Array.to_list
             (Array.map
                (function
                  | None -> Json.Null
                  | Some (r, v) -> Json.Arr [ Json.Int r; Json.Int v ])
                o.decisions)) );
      ("distinct_decisions", Json.Int o.distinct_decisions);
      ("messages_sent", Json.Int o.messages_sent);
      ("messages_delivered", Json.Int o.messages_delivered);
      ("bits_sent", Json.Int o.bits_sent);
      ("violations", Json.Arr (List.map (fun v -> Json.Str v) o.violations));
    ]

let rejected_by_lint msg =
  let p = "job rejected by " in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  contains msg p

type verdict = {
  checked : int;
  mismatches : int;
  gap : int;
      (* replies that match a fresh [Job.execute] but decide more than k
         values although the run satisfies Psrcs(k): the Theorem 16 gap
         of the paper's Algorithm 1 (THEORY.md).  Reported, not counted as
         a service failure: the service returned exactly the outcome the
         algorithm computes. *)
  notes : string list;
}

(* Every checked reply is compared with a fresh in-process
   [Job.execute] of the same job (memoized per key): byte-for-byte on
   the native path via the outcome codec, value-for-value on the HTTP
   path.  The paper's properties are asserted on the fresh outcome too:
   no monitor violations, and at most k distinct decisions whenever the
   run satisfies Psrcs(k) (see [verdict.gap]).  An expected lint
   rejection must come back as one; anything else that fails is a
   mismatch. *)
let check ?(sample = fun _ -> true) (reqs : Workloads.req array) (run : run) =
  let memo = Hashtbl.create 1024 in
  let fresh (job : Job.t) =
    let key = Job.key job in
    match Hashtbl.find_opt memo key with
    | Some o -> o
    | None ->
        let o = Job.execute job in
        Hashtbl.add memo key o;
        o
  in
  let checked = ref 0 and bad = Hashtbl.create 16 and gap = ref 0 and notes = ref [] in
  let note s msg =
    if List.length !notes < 8 then
      notes := Printf.sprintf "request %d: %s" s.idx msg :: !notes
  in
  let fail s msg =
    Hashtbl.replace bad s.idx ();
    note s msg
  in
  Array.iter
    (fun s ->
      let r = reqs.(s.idx) in
      if sample s.idx || r.reject then begin
        incr checked;
        let expect_ok (o : Job.outcome) got_ok =
          if o.violations <> [] then fail s "fresh outcome has monitor violations"
          else if not got_ok then fail s "reply differs from a fresh Job.execute"
          else if o.min_k <= r.job.k && o.distinct_decisions > r.job.k then begin
            incr gap;
            note s
              (Printf.sprintf "k-agreement gap: %d values decided with k = %d, min_k = %d"
                 o.distinct_decisions r.job.k o.min_k)
          end
        in
        match (s.reply, r.reject) with
        | Lost e, _ -> fail s ("no reply: " ^ e)
        | Native (Error msg), true when rejected_by_lint msg -> ()
        | Http (422, body), true when rejected_by_lint body -> ()
        | _, true -> fail s "expected a lint rejection"
        | Native (Ok { Job.result = Ok o; _ }), false ->
            let f = fresh r.job in
            expect_ok f (Protocol.outcome_to_string o = Protocol.outcome_to_string f)
        | Http (200, body), false ->
            let f = fresh r.job in
            let got =
              match Json.json_of_string body with
              | Some (Json.Obj fields) -> List.assoc_opt "outcome" fields
              | _ -> None
            in
            expect_ok f (got = Some (json_of_outcome f))
        | Native (Ok { Job.result = Error msg; _ }), false | Native (Error msg), false ->
            fail s ("error reply: " ^ msg)
        | Http (status, body), false ->
            fail s (Printf.sprintf "HTTP %d: %s" status body)
      end)
    run.samples;
  ( { checked = !checked; mismatches = Hashtbl.length bad; gap = !gap; notes = List.rev !notes },
    bad )

(* A request failed if it got no usable reply (correctness mismatches
   are added by the caller from the check). *)
let transport_failed s =
  match s.reply with
  | Lost _ -> true
  | Native (Error msg) -> not (rejected_by_lint msg)
  | Native (Ok { Job.result = Error _; _ }) -> true
  | Native (Ok _) -> false
  | Http ((200 | 422), _) -> false
  | Http _ -> true
