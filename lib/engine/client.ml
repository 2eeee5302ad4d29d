module Transport = Ssg_net.Transport
module Frame = Ssg_net.Frame

type t = { fd : Unix.file_descr; deadline_s : float option }

let retriable = function
  | Unix.ECONNREFUSED | Unix.ENOENT | Unix.EAGAIN | Unix.EINTR -> true
  | _ -> false

(* Full jitter on the bounded exponential backoff: each retry sleeps a
   uniform draw from (0, backoff] rather than backoff itself.  With a
   deterministic schedule, every client that lost its server at the same
   instant retries at the same instants too, and a worker restart is
   greeted by a thundering herd of synchronized reconnects; the jitter
   de-correlates them.  The state is per call (created lazily, only if a
   retry actually happens), so concurrent connects never share it. *)
let jittered rng backoff =
  let rng =
    match !rng with
    | Some r -> r
    | None ->
        let r = Random.State.make_self_init () in
        rng := Some r;
        r
  in
  Float.max 1e-4 (Random.State.float rng backoff)

(* [Transport.connect] already closes its descriptor on failure; an
   unresolvable TCP host raises [Failure] and is not retriable. *)
let attempt_connect addr = Transport.connect addr

let arm_deadline fd deadline_s =
  match deadline_s with
  | Some d -> (
      try Unix.setsockopt_float fd Unix.SO_RCVTIMEO d
      with Unix.Unix_error _ -> ())
  | None -> ()

let check_params ~who retries deadline_s =
  if retries < 0 then invalid_arg ("Client." ^ who ^ ": retries must be >= 0");
  match deadline_s with
  | Some d when d <= 0. ->
      invalid_arg ("Client." ^ who ^ ": deadline_s must be > 0")
  | _ -> ()

let dial ?(retries = 3) ?(retry_backoff_s = 0.05) ?deadline_s ~socket () =
  check_params ~who:"connect" retries deadline_s;
  let addr = Transport.of_string_exn socket in
  (* Bounded exponential backoff: a daemon that is still binding (or
     briefly over its connection limit) costs a few retries, not a
     client-side crash. *)
  let rng = ref None in
  let rec go left backoff =
    match attempt_connect addr with
    | fd -> fd
    | exception Unix.Unix_error (err, _, _) when left > 0 && retriable err ->
        Thread.delay (jittered rng backoff);
        go (left - 1) (backoff *. 2.)
  in
  let fd = go retries retry_backoff_s in
  arm_deadline fd deadline_s;
  fd

let connect ?retries ?retry_backoff_s ?deadline_s ~socket () =
  { fd = dial ?retries ?retry_backoff_s ?deadline_s ~socket (); deadline_s }

let connect_any ?(retries = 3) ?(retry_backoff_s = 0.05) ?deadline_s ~sockets
    () =
  if sockets = [] then invalid_arg "Client.connect_any: no sockets";
  check_params ~who:"connect_any" retries deadline_s;
  let addrs = List.map Transport.of_string_exn sockets in
  let rng = ref None in
  (* Each pass tries every address once, in the order given; passes are
     separated by the same jittered exponential backoff as [connect]. *)
  let rec pass left backoff =
    let rec try_addrs last = function
      | [] -> Error last
      | addr :: rest -> (
          match attempt_connect addr with
          | fd -> Ok fd
          | exception (Unix.Unix_error (err, _, _) as e) when retriable err ->
              try_addrs e rest)
    in
    match try_addrs Stdlib.Exit addrs with
    | Ok fd -> fd
    | Error last ->
        if left = 0 then raise last
        else begin
          Thread.delay (jittered rng backoff);
          pass (left - 1) (backoff *. 2.)
        end
  in
  let fd = pass retries retry_backoff_s in
  arm_deadline fd deadline_s;
  { fd; deadline_s }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rpc ?ctx c request =
  let payload = Protocol.request_to_bytes request in
  (* The context envelope rides outside the plain request payload. *)
  Frame.write_fd c.fd
    (match ctx with
    | None -> payload
    | Some context ->
        Frame.with_ctx ~ctx:(Ssg_obs.Context.to_wire context) payload);
  try Protocol.reply_of_bytes (Frame.read_fd c.fd)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    failwith
      (Printf.sprintf "Client: rpc deadline (%.3f s) exceeded"
         (Option.value c.deadline_s ~default:0.))

(* Typed reply matching, shared with [Pclient]: the request's expected
   reply shape, or a protocol [Error]'s message verbatim (lint
   diagnostics ride in it), or the name of an unexpected shape. *)
let expect what pick reply =
  match (pick reply, reply) with
  | Some v, _ -> Ok v
  | None, Protocol.Error msg -> Error msg
  | None, _ -> Error ("unexpected reply to " ^ what)

let completion =
  expect "submit" (function Protocol.Completed c -> Some c | _ -> None)

let snapshot =
  expect "stats" (function Protocol.Stats_snapshot s -> Some s | _ -> None)

let metrics =
  expect "metrics" (function Protocol.Metrics_text t -> Some t | _ -> None)

let shutting_down =
  expect "shutdown" (function Protocol.Shutting_down -> Some () | _ -> None)

let ack what = expect what (function Protocol.Ack -> Some () | _ -> None)

let call ?ctx c request decode =
  match decode (rpc ?ctx c request) with
  | Ok v -> v
  | Error msg -> failwith ("server error: " ^ msg)

let submit ?ctx c job = call ?ctx c (Protocol.Submit job) completion

let submit_batch c jobs =
  call c (Protocol.Batch jobs)
    (expect "batch" (function
      | Protocol.Batch_completed cs -> Some cs
      | _ -> None))

let stats c = call c Protocol.Stats snapshot

let trace_pull c =
  call c Protocol.Trace_pull
    (expect "trace_pull" (function
      | Protocol.Trace_reports rs -> Some rs
      | _ -> None))

let metrics_text c = call c Protocol.Metrics metrics
let shutdown c = call c Protocol.Shutdown shutting_down
let join c addr = call c (Protocol.Join addr) (ack "join")
let leave c addr = call c (Protocol.Leave addr) (ack "leave")

let export c n =
  call c (Protocol.Export n)
    (expect "export" (function Protocol.Entries es -> Some es | _ -> None))

let transfer c entries =
  call c (Protocol.Transfer entries)
    (expect "transfer" (function Protocol.Transferred n -> Some n | _ -> None))

let compact c =
  call c Protocol.Compact
    (expect "compact" (function Protocol.Compacted n -> Some n | _ -> None))
