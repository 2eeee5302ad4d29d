(* The topology under test: two [ssg serve] workers (one worker domain
   each) behind [ssg route], with [ssg gateway] in front, each its own
   process.  Start-up and tear-down never sleep a fixed time: readiness
   is a successful connect (or [GET /healthz]), and shutdown waits for
   each socket file to vanish and each process to be reaped. *)

open Ssg_engine

let now = Unix.gettimeofday

(* ---------------- HTTP/1.1 keep-alive client ---------------- *)

type http = { fd : Unix.file_descr; buf : Bytes.t; mutable pos : int; mutable len : int }

let http_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  { fd; buf = Bytes.create 65536; pos = 0; len = 0 }

let http_close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rec write_all fd s off len =
  if len > 0 then
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)

let fill c =
  if c.pos > 0 then begin
    Bytes.blit c.buf c.pos c.buf 0 (c.len - c.pos);
    c.len <- c.len - c.pos;
    c.pos <- 0
  end;
  let n = Unix.read c.fd c.buf c.len (Bytes.length c.buf - c.len) in
  if n = 0 then raise End_of_file;
  c.len <- c.len + n

(* Index just past the blank line ending the header block, if buffered. *)
let header_end c =
  let rec go i =
    if i + 3 >= c.len then None
    else if
      Bytes.get c.buf i = '\r'
      && Bytes.get c.buf (i + 1) = '\n'
      && Bytes.get c.buf (i + 2) = '\r'
      && Bytes.get c.buf (i + 3) = '\n'
    then Some (i + 4)
    else go (i + 1)
  in
  go c.pos

let content_length headers =
  List.fold_left
    (fun acc line ->
      match String.index_opt line ':' with
      | Some i
        when String.lowercase_ascii (String.sub line 0 i) = "content-length" ->
          int_of_string
            (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | _ -> acc)
    0 headers

(* One request/response exchange: [(status, body)]. *)
let http_call c ~meth ~path ?(body = "") () =
  let req =
    Printf.sprintf "%s %s HTTP/1.1\r\nHost: localhost\r\nContent-Length: %d\r\n\r\n%s"
      meth path (String.length body) body
  in
  write_all c.fd req 0 (String.length req);
  let rec headers () =
    match header_end c with Some e -> e | None -> fill c; headers ()
  in
  let e = headers () in
  let head = Bytes.sub_string c.buf c.pos (e - c.pos) in
  let lines = String.split_on_char '\n' head |> List.map String.trim in
  let status =
    match String.split_on_char ' ' (List.hd lines) with
    | _ :: code :: _ -> int_of_string code
    | _ -> failwith ("bad status line: " ^ List.hd lines)
  in
  let clen = content_length (List.tl lines) in
  c.pos <- e;
  while c.len - c.pos < clen do
    if c.pos + clen > Bytes.length c.buf then begin
      Bytes.blit c.buf c.pos c.buf 0 (c.len - c.pos);
      c.len <- c.len - c.pos;
      c.pos <- 0
    end;
    fill c
  done;
  let body = Bytes.sub_string c.buf c.pos clen in
  c.pos <- c.pos + clen;
  (status, body)

let http_once port ~meth ~path =
  let c = http_connect port in
  Fun.protect ~finally:(fun () -> http_close c) (fun () -> http_call c ~meth ~path ())

(* ---------------- /proc sampling ---------------- *)

(* Reads to EOF: /proc files report a length of 0. *)
let read_proc path = In_channel.with_open_bin path In_channel.input_all

let clk_tck = 100.

(* User + system CPU of [pid] in milliseconds (fields 14 and 15 of
   /proc/PID/stat, counted after the parenthesised command name). *)
let cpu_ms pid =
  match read_proc (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> 0.
  | s ->
      (* the fields after the command name start at field 3 (state) *)
      let from = String.rindex s ')' + 2 in
      let f = Array.of_list (String.split_on_char ' ' (String.sub s from (String.length s - from))) in
      1000. *. (float_of_string f.(11) +. float_of_string f.(12)) /. clk_tck

let vmhwm_kb pid =
  match read_proc (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0
  | s ->
      List.fold_left
        (fun acc line ->
          if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
          else acc)
        0
        (String.split_on_char '\n' s)

(* ---------------- Prometheus text ---------------- *)

(* Sum of every sample line named exactly [name] (labels allowed). *)
let prom_value text name =
  List.fold_left
    (fun acc line ->
      let l = String.length name in
      if
        String.length line > l
        && String.sub line 0 l = name
        && (line.[l] = ' ' || line.[l] = '{')
      then
        match String.rindex_opt line ' ' with
        | Some i -> (
            match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
            | Some v -> acc +. v
            | None -> acc)
        | None -> acc
      else acc)
    0.
    (String.split_on_char '\n' text)

(* Cumulative buckets of histogram [name]: (upper bound, count), sorted. *)
let prom_buckets text name =
  let prefix = name ^ "_bucket{le=\"" in
  let pl = String.length prefix in
  List.filter_map
    (fun line ->
      if String.length line > pl && String.sub line 0 pl = prefix then
        let close = String.index_from line pl '"' in
        let le = String.sub line pl (close - pl) in
        let v = String.sub line (String.rindex line ' ' + 1) (String.length line - String.rindex line ' ' - 1) in
        Some
          ( (if le = "+Inf" then infinity else float_of_string le),
            float_of_string v )
      else None)
    (String.split_on_char '\n' text)
  |> List.sort compare

(* Quantile by linear interpolation inside the bucket that crosses it. *)
let bucket_quantile buckets q =
  let total = match List.rev buckets with (_, c) :: _ -> c | [] -> 0. in
  if total <= 0. then nan
  else
    let target = q *. total in
    let rec go lo_bound lo_count = function
      | [] -> nan
      | (ub, c) :: rest ->
          if c >= target then
            if ub = infinity then lo_bound
            else lo_bound +. ((ub -. lo_bound) *. (target -. lo_count) /. Float.max 1e-9 (c -. lo_count))
          else go ub c rest
    in
    go 0. 0. buckets

(* Element-wise difference of two bucket lists taken from the same
   histogram (a later scrape minus an earlier one). *)
let bucket_delta later earlier =
  List.map
    (fun (ub, c) ->
      let c0 = try List.assoc ub earlier with Not_found -> 0. in
      (ub, c -. c0))
    later

(* ---------------- processes ---------------- *)

type proc = { role : string; pid : int; sock : string option }

type t = {
  procs : proc list;
  workers : string list;
  router : string;
  port : int;
  mutable setup_s : float;
}

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0)

(* Every process this benchmark started and has not reaped yet. *)
let live : int list ref = ref []

let spawn ~ssg role args =
  let log =
    Unix.openfile (role ^ ".log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Unix.create_process ssg (Array.of_list (ssg :: args)) (Lazy.force devnull) log log
  in
  Unix.close log;
  live := pid :: !live;
  pid

let exited pid =
  let gone () =
    live := List.filter (( <> ) pid) !live;
    true
  in
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> gone ()
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> gone ()

let poll_until ?(timeout = 60.) what ok =
  let deadline = now () +. timeout in
  let rec go () =
    if ok () then ()
    else if now () > deadline then failwith ("timed out waiting for " ^ what)
    else begin
      Thread.delay 0.0005;
      go ()
    end
  in
  go ()

let check_alive p =
  if exited p.pid then
    failwith (Printf.sprintf "%s exited during start-up (see %s.log)" p.role p.role)

let connects addr =
  match Ssg_net.Transport.connect (Ssg_net.Transport.of_string_exn addr) with
  | fd ->
      Unix.close fd;
      true
  | exception Unix.Unix_error _ -> false

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> assert false)

let healthy port =
  match http_once port ~meth:"GET" ~path:"/healthz" with
  | 200, _ -> true
  | _ -> false
  | exception (Unix.Unix_error _ | End_of_file | Failure _) -> false

(* [boot ~ssg ~worker_args ~first] starts the four processes in
   dependency order and returns once [first] (the boot's first request)
   has been served; [setup_s] runs from the first spawn to that reply.
   Paths are relative to the run's own directory, so concurrent runs
   never share one; boots within a run reuse them only after
   [shutdown] saw the old socket files vanish. *)
let boot ~ssg ~worker_args ~first =
  let t0 = now () in
  let workers = [ "w1.sock"; "w2.sock" ] in
  let wprocs =
    List.mapi
      (fun i sock ->
        let role = Printf.sprintf "worker%d" (i + 1) in
        {
          role;
          pid = spawn ~ssg role ([ "serve"; "-s"; sock; "--workers"; "1" ] @ worker_args i);
          sock = Some sock;
        })
      workers
  in
  List.iter
    (fun p ->
      poll_until p.role (fun () -> check_alive p; connects (Option.get p.sock)))
    wprocs;
  let router = "r.sock" in
  let rproc =
    {
      role = "router";
      pid =
        spawn ~ssg "router"
          ([ "route"; "-s"; router ] @ List.concat_map (fun w -> [ "-b"; w ]) workers);
      sock = Some router;
    }
  in
  poll_until "router" (fun () -> check_alive rproc; connects router);
  let port = free_port () in
  let gproc =
    {
      role = "gateway";
      pid =
        spawn ~ssg "gateway"
          [ "gateway"; "--listen"; Printf.sprintf "tcp:127.0.0.1:%d" port; "--backend"; router ];
      sock = None;
    }
  in
  poll_until "gateway" (fun () -> check_alive gproc; healthy port);
  let t = { procs = wprocs @ [ rproc; gproc ]; workers; router; port; setup_s = 0. } in
  first t;
  t.setup_s <- now () -. t0;
  t

let cpu_total t = List.fold_left (fun acc p -> acc +. cpu_ms p.pid) 0. t.procs
let peak_rss_mb t =
  List.fold_left (fun acc p -> max acc (float_of_int (vmhwm_kb p.pid) /. 1024.)) 0. t.procs

let with_pclient addr f =
  let pc = Pclient.connect ~socket:addr () in
  Fun.protect ~finally:(fun () -> Pclient.close pc) (fun () -> f pc)

let reap ?(timeout = 30.) p =
  let deadline = now () +. timeout in
  let rec go () =
    if exited p.pid then ()
    else if now () > deadline then begin
      (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] p.pid);
      live := List.filter (( <> ) p.pid) !live
    end
    else begin
      Thread.delay 0.0005;
      go ()
    end
  in
  go ()

(* Graceful tear-down, front to back: the gateway, then the router
   (whose backend connections keep the workers draining), then the
   workers.  Each step waits for the process to exit and its socket
   file to vanish — an exiting server unlinks its path as it goes, so
   rebinding it any earlier would lose the next server's socket. *)
let shutdown t =
  let find role = List.find (fun p -> p.role = role) t.procs in
  let stop p ask =
    (try ask () with _ -> ());
    reap p;
    match p.sock with
    | Some s -> poll_until ~timeout:10. (s ^ " to vanish") (fun () -> not (Sys.file_exists s))
    | None -> ()
  in
  stop (find "gateway") (fun () -> ignore (http_once t.port ~meth:"POST" ~path:"/shutdown"));
  stop (find "router") (fun () -> ignore (with_pclient t.router Pclient.shutdown));
  List.iter
    (fun p ->
      if String.length p.role > 6 && String.sub p.role 0 6 = "worker" then
        stop p (fun () -> ignore (with_pclient (Option.get p.sock) Pclient.shutdown)))
    t.procs

(* Last resort on an error path: no process may outlive the benchmark. *)
let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let scrape_router t = with_pclient t.router (fun pc -> Pclient.await (Pclient.metrics_text pc))
let scrape_worker addr = with_pclient addr (fun pc -> Pclient.await (Pclient.metrics_text pc))
let stats_of addr = with_pclient addr (fun pc -> Pclient.await (Pclient.stats pc))
