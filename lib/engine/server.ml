let log_src = Logs.Src.create "ssg.server" ~doc:"ssgd socket server"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Transport = Ssg_net.Transport
module Frame = Ssg_net.Frame

(* Raised by the reply path when the fault plan truncated the frame:
   the connection is unusable and must be dropped. *)
exception Drop_connection

type handler = ?ctx:Ssg_obs.Context.t -> Protocol.request -> Protocol.reply

type limits = {
  max_connections : int;
  max_inflight : int;
  read_timeout_s : float;
  drain_timeout_s : float;
}

let limits ?(max_connections = 256) ?(max_inflight = 32) ?(read_timeout_s = 30.)
    ?(drain_timeout_s = 5.) () =
  if max_connections < 1 then
    invalid_arg "Server.limits: max_connections must be >= 1";
  if max_inflight < 1 then
    invalid_arg "Server.limits: max_inflight must be >= 1";
  { max_connections; max_inflight; read_timeout_s; drain_timeout_s }

(* Write one reply, letting the fault plan mangle it first.  [id]
   present means the request arrived in the pipelined id envelope and
   the reply must carry the same id back; [wlock] serializes reply
   frames from concurrent in-flight handlers on one connection. *)
let send ?id faults telemetry ~wlock fd reply =
  let payload = Protocol.reply_to_bytes reply in
  let payload =
    match id with Some id -> Frame.with_id ~id payload | None -> payload
  in
  let under_wlock f =
    Mutex.lock wlock;
    Fun.protect ~finally:(fun () -> Mutex.unlock wlock) f
  in
  let injected () = Option.iter Telemetry.record_injected telemetry in
  match Faults.on_reply faults with
  | Faults.Deliver -> under_wlock (fun () -> Frame.write_fd fd payload)
  | Faults.Corrupt ->
      injected ();
      let mangled = Bytes.copy payload in
      if Bytes.length mangled > 0 then
        Bytes.set mangled 0
          (Char.chr (Char.code (Bytes.get mangled 0) lxor 0xFF));
      under_wlock (fun () -> Frame.write_fd fd mangled)
  | Faults.Blackhole ->
      (* The partition plan: swallow the reply, keep the connection.
         The peer sees a live socket that never answers — exactly what
         a blackholed network path looks like — and must save itself
         with its reply deadline. *)
      injected ()
  | Faults.Truncate ->
      injected ();
      (* Header promises the full frame; deliver only half of it. *)
      let header = Bytes.create 4 in
      Bytes.set_int32_be header 0 (Int32.of_int (Bytes.length payload));
      under_wlock (fun () ->
          try
            ignore (Unix.write fd header 0 4);
            ignore (Unix.write fd payload 0 (Bytes.length payload / 2))
          with Unix.Unix_error _ -> ());
      raise Drop_connection

(* One thread per connection.  Everything that can go wrong — a hostile
   frame, a malformed job, a stalled peer, an exception anywhere in
   dispatch — must end here with an [Error] reply where the wire still
   allows one and with the fd closed; nothing may escape and leak the
   descriptor while the client waits forever.

   Two dialects share the connection, classified frame by frame:
   {ul
   {- {e plain} frames are answered strictly in order, inline on this
      thread, one request at a time;}
   {- {e id-framed} requests ({!Ssg_net.Frame.with_id}) are dispatched
      to their own thread so many may be in flight at once, each reply
      carrying its request's id back — out of order is fine.  At most
      [max_inflight] run concurrently; past the cap the reader handles
      the request inline, which stops it pulling further frames off the
      socket: back-pressure, not queueing.}} *)
let handle_connection ~faults ~telemetry ~stop ~wake ~active ~max_inflight
    (handler : handler) fd =
  let count f = Option.iter f telemetry in
  let wlock = Mutex.create () in
  let inflight = Atomic.make 0 in
  (* Set by an in-flight handler that hit a connection-fatal condition
     (truncated reply, peer gone): the reader must stop pipelining. *)
  let broken = Atomic.make false in
  let send ?id reply =
    (* [with_span] ends the span even when the fault plan raises
       [Drop_connection] mid-write, keeping the track B/E-balanced. *)
    if telemetry <> None && Ssg_obs.Tracer.enabled () then
      Ssg_obs.Tracer.with_span "server.reply_write" (fun () ->
          send ?id faults telemetry ~wlock fd reply)
    else send ?id faults telemetry ~wlock fd reply
  in
  let reject ?id msg =
    count Telemetry.record_rejected_frame;
    Log.warn (fun m -> m "dropping connection: %s" msg);
    try send ?id (Protocol.Error msg) with _ -> ()
  in
  (* Compute and send the reply for one decoded request; false means
     the connection must carry no further requests.  [ctx] is the trace
     context stripped from the request's envelope, if any — it parents
     the spans this request produces. *)
  let serve_request ?ctx ?id request =
    try
      match request with
      | Protocol.Shutdown ->
          Log.info (fun m -> m "shutdown requested");
          (* Arm the stop flag before acknowledging: if the reply send
             fails (dead peer, injected fault) the shutdown must still
             happen. *)
          Atomic.set stop true;
          wake ();
          send ?id Protocol.Shutting_down;
          false
      | request ->
          send ?id (handler ?ctx request);
          true
    with
    | Drop_connection -> false
    | Sys_error _ | Unix.Unix_error _ -> false
    (* EPIPE / ECONNRESET on the reply write: the peer vanished between
       request and reply; the supervised-close path below reclaims the
       descriptor without touching the process. *)
    | e ->
        (* Catch-all supervision boundary: reply if possible, then
           close. *)
        let msg = Printexc.to_string e in
        Log.warn (fun m -> m "connection handler error: %s" msg);
        (try send ?id (Protocol.Error msg) with _ -> ());
        false
  in
  (* One pipelined request on a thread of its own; a connection-fatal
     outcome stops the reader. *)
  let serve_async ?ctx ~id request =
    Atomic.incr inflight;
    let run () =
      if not (serve_request ?ctx ~id request) then begin
        Atomic.set broken true;
        (* Unstick the reader blocked in read. *)
        try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
        with Unix.Unix_error _ -> ()
      end
    in
    ignore
      (Thread.create
         (fun () ->
           Fun.protect ~finally:(fun () -> Atomic.decr inflight) run)
         ())
  in
  (* A request frame: an optional id envelope around an optional
     context envelope around the request payload.  Anything that fails
     to decode is garbage (unknown tag, truncated fields, malformed
     job, k < 1 …): it is answered, then the connection is dropped — a
     peer speaking a broken dialect gets no further pipeline. *)
  let decode frame =
    let ctx_wire, payload = Frame.split_ctx frame in
    ( Option.bind ctx_wire Ssg_obs.Context.of_wire,
      Protocol.request_of_bytes payload )
  in
  let rec loop () =
    if Atomic.get broken then ()
    else
      match Frame.read_fd fd with
      | exception End_of_file -> ()  (* clean hangup between frames *)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          (* SO_RCVTIMEO fired: a half-open or stalled client is reaped. *)
          count Telemetry.record_connection_timeout;
          Log.info (fun m -> m "reaping stalled connection")
      | exception Unix.Unix_error _ -> ()
      | exception Failure msg -> reject msg  (* oversized / died mid-frame *)
      | frame -> (
          match Frame.classify frame with
          | exception Failure msg -> reject msg
          | Frame.Plain frame -> (
              match decode frame with
              | exception Failure msg -> reject msg
              | ctx, request -> if serve_request ?ctx request then loop ())
          | Frame.Id (id, inner) -> (
              match decode inner with
              | exception Failure msg -> reject ~id msg
              | _, Protocol.Shutdown ->
                  (* Shutdown is never pipelined past: handle inline so
                     the loop stops pulling frames. *)
                  ignore (serve_request ~id Protocol.Shutdown)
              | ctx, request ->
                  if Atomic.get inflight >= max_inflight then begin
                    (* At the cap the reader does the work itself: the
                       socket is not read again until this request
                       completes, so a flooding client is throttled by
                       its own pipe. *)
                    if serve_request ?ctx ~id request then loop ()
                  end
                  else begin
                    serve_async ?ctx ~id request;
                    loop ()
                  end))
  in
  Fun.protect
    ~finally:(fun () ->
      (* In-flight pipelined handlers still hold the fd: closing it now
         would race their reply writes onto a reused descriptor.  Wait
         them out — a dead peer fails their writes promptly. *)
      while Atomic.get inflight > 0 do
        Thread.delay 0.002
      done;
      Atomic.decr active;
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> try loop () with e ->
       Log.err (fun m ->
           m "connection thread escaped: %s" (Printexc.to_string e)))

let supervise ?(faults = Faults.off) ?telemetry limits listen_fd addr handler =
  let stop = Atomic.make false in
  let active = Atomic.make 0 in
  let wake () = Transport.poke addr in
  let rec accept_loop () =
    if not (Atomic.get stop) then begin
      (match Unix.accept listen_fd with
      | client_fd, _ ->
          if Atomic.get stop then (try Unix.close client_fd with _ -> ())
          else if Atomic.get active >= limits.max_connections then begin
            (* Over the limit: tell the client why instead of letting it
               queue behind a connection that will never be served. *)
            Option.iter Telemetry.record_connection_rejected telemetry;
            (try
               Frame.write_fd client_fd
                 (Protocol.reply_to_bytes
                    (Protocol.Error "server at connection limit"))
             with _ -> ());
            try Unix.close client_fd with _ -> ()
          end
          else begin
            Atomic.incr active;
            (try Unix.setsockopt client_fd Unix.TCP_NODELAY true
             with Unix.Unix_error _ -> ());
            if limits.read_timeout_s > 0. then
              (try
                 Unix.setsockopt_float client_fd Unix.SO_RCVTIMEO
                   limits.read_timeout_s
               with Unix.Unix_error _ -> ());
            ignore
              (Thread.create
                 (handle_connection ~faults ~telemetry ~stop ~wake ~active
                    ~max_inflight:limits.max_inflight handler)
                 client_fd)
          end
      | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
          ());
      accept_loop ()
    end
  in
  accept_loop ();
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (* Drain: let live connections finish their request/reply exchanges
     instead of abandoning them, bounded by [drain_timeout_s]. *)
  let deadline = Unix.gettimeofday () +. limits.drain_timeout_s in
  while Atomic.get active > 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  if Atomic.get active > 0 then
    Log.warn (fun m ->
        m "drain timeout: abandoning %d connection(s)" (Atomic.get active))

(* The worker's requests; [Shutdown] never reaches here — the loop
   handles it. *)
let worker_handler engine : handler =
 fun ?ctx -> function
  | Protocol.Submit job -> (
      let ticket = Engine.submit ?ctx engine job in
      match Engine.rejection ticket with
      | Some diags ->
          (* A lint rejection is the job's fault, not the connection's:
             answer with a protocol Error carrying the diagnostics and
             keep serving. *)
          Protocol.Error diags
      | None -> Protocol.Completed (Engine.await engine ticket))
  | Protocol.Batch jobs ->
      Protocol.Batch_completed (Engine.run_batch ?ctx engine jobs)
  | Protocol.Stats -> Protocol.Stats_snapshot (Engine.stats engine)
  | Protocol.Trace_pull ->
      Protocol.Trace_reports [ Ssg_obs.Tracer.report_here ~role:"worker" () ]
  | Protocol.Metrics -> Protocol.Metrics_text (Engine.prometheus engine)
  | Protocol.Join _ | Protocol.Leave _ ->
      (* Membership ops terminate at the router; a worker receiving one
         answers with an Error but keeps the connection — it is a
         misdirected request, not a hostile frame. *)
      Protocol.Error "not a router: membership ops go to ssg route"
  | Protocol.Export n -> Protocol.Entries (Engine.export engine n)
  | Protocol.Transfer entries ->
      Protocol.Transferred (Engine.import engine entries)
  | Protocol.Compact -> Protocol.Compacted (Engine.compact engine)
  | Protocol.Shutdown -> Protocol.Shutting_down

let serve ?workers ?queue_capacity ?cache_capacity ?max_connections
    ?max_inflight ?read_timeout_s ?drain_timeout_s ?(faults = Faults.off)
    ?(trace = false) ?persist ?persist_sync ?persist_compact_bytes ?announce
    ~socket () =
  let limits =
    limits ?max_connections ?max_inflight ?read_timeout_s ?drain_timeout_s ()
  in
  let addr = Transport.of_string_exn socket in
  if trace then begin
    Ssg_obs.Tracer.reset ();
    Ssg_obs.Tracer.set_enabled true
  end;
  (* A peer closing mid-write must surface as EPIPE, not kill the
     daemon. *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ | Sys_error _ -> ());
  (* The store opens after the tracer is armed so the boot replay's
     [store.replay] span lands in the trace. *)
  let store =
    Option.map
      (fun dir ->
        Ssg_store.Store.open_ ?sync:persist_sync
          ?compact_bytes:persist_compact_bytes ~dir ())
      persist
  in
  let listen_fd = Transport.listen addr in
  let addr = Transport.bound_addr listen_fd addr in
  let engine =
    Engine.create ?workers ?queue_capacity ?cache_capacity ~faults ?store ()
  in
  Log.app (fun m -> m "ssgd listening on %s" (Transport.to_string addr));
  (match store with
  | Some s ->
      Log.app (fun m ->
          m "persisting to %s (generation %d, %d record(s) replayed)"
            (Ssg_store.Store.dir s)
            (Ssg_store.Store.generation s)
            (Ssg_store.Store.replayed_records s))
  | None -> ());
  if not (Faults.is_off faults) then
    Log.app (fun m -> m "chaos mode: injecting %s" (Faults.spec faults));
  (* Elastic membership: announce the canonical bound address to the
     router on a background thread (the router may still be binding, so
     Client.connect's backoff does the waiting), and retire on the way
     out, best-effort — a dead router must never block either path. *)
  let self_addr = Transport.to_string addr in
  (match announce with
  | None -> ()
  | Some router ->
      ignore
        (Thread.create
           (fun () ->
             try
               let c =
                 Client.connect ~retries:6 ~deadline_s:30. ~socket:router ()
               in
               Fun.protect
                 ~finally:(fun () -> Client.close c)
                 (fun () -> Client.join c self_addr);
               Log.app (fun m -> m "joined cluster via %s" router)
             with e ->
               Log.warn (fun m ->
                   m "join announcement to %s failed: %s" router
                     (Printexc.to_string e)))
           ()));
  let retire () =
    match announce with
    | None -> ()
    | Some router -> (
        try
          let c = Client.connect ~retries:0 ~deadline_s:5. ~socket:router () in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () -> Client.leave c self_addr)
        with _ -> ())
  in
  supervise ~faults ~telemetry:(Engine.telemetry engine) limits listen_fd addr
    (worker_handler engine);
  retire ();
  Engine.shutdown engine;
  Transport.cleanup addr;
  Log.app (fun m -> m "ssgd stopped")
