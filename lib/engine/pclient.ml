module Mux = Ssg_net.Mux

type t = { mux : Mux.t }

type 'a ticket = { cell : Mux.ticket; decode : Protocol.reply -> ('a, string) result }

(* [Client.dial] arms [deadline_s] as the descriptor's receive timeout,
   which is exactly the mux reader's silence bound. *)
let connect ?retries ?retry_backoff_s ?deadline_s ~socket () =
  {
    mux =
      Mux.create (Client.dial ?retries ?retry_backoff_s ?deadline_s ~socket ());
  }

let request ?ctx t request decode =
  let payload = Protocol.request_to_bytes request in
  let ctx = Option.map Ssg_obs.Context.to_wire ctx in
  { cell = Mux.send ?ctx t.mux payload; decode }

let await ticket =
  match Mux.await ticket.cell with
  | Error reason -> Error reason
  | Ok payload -> (
      match Protocol.reply_of_bytes payload with
      | exception Failure msg -> Error msg
      | reply -> ticket.decode reply)

let submit ?ctx t job = request ?ctx t (Protocol.Submit job) Client.completion
let stats t = request t Protocol.Stats Client.snapshot
let metrics_text t = request t Protocol.Metrics Client.metrics
let shutdown t = await (request t Protocol.Shutdown Client.shutting_down)

let submit_sync t job =
  match await (submit t job) with
  | Ok completion -> completion
  | Error msg -> failwith ("server error: " ^ msg)

let inflight t = Mux.inflight t.mux
let alive t = Mux.alive t.mux
let close t = Mux.close t.mux
