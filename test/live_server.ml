(* A real server in its own domain on a fresh unix socket, shared by the
   serve and flight suites. *)

module Server = Ftc_serve.Server
module Client = Ftc_serve.Client

(* [f] gets the address once the socket is bound; then the server is
   drained and its summary returned with [f]'s result. [configure]
   adjusts the 2-worker, bound-32 default. *)
let with_live_server ?(configure = Fun.id) f =
  let path = Filename.temp_file "ftc-serve-test" ".sock" in
  Sys.remove path;
  let drain = Atomic.make false in
  let cfg =
    configure
      {
        (Server.default_config (Server.Unix_sock path)) with
        workers = 2;
        bound = 32;
        default_timeout_ms = 10_000;
        grace_ms = 10_000;
      }
  in
  let server = Domain.spawn (fun () -> Server.run ~drain cfg) in
  (* Wait until the server listens: the client errors out if its very
     first connection fails, and the socket file exists from [bind],
     before [listen]. The probe connection is accepted and closed. *)
  let rec wait_listen tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Unix.close fd
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        if tries = 0 then Alcotest.fail "server never listened on its socket";
        Unix.sleepf 0.02;
        wait_listen (tries - 1)
  in
  wait_listen 250;
  let x = f (Server.Unix_sock path) in
  Atomic.set drain true;
  let summary =
    match Domain.join server with Ok s -> s | Error e -> Alcotest.failf "server: %s" e
  in
  if Sys.file_exists path then Sys.remove path;
  (x, summary)

let run_client ccfg = match Client.run ccfg with Ok s -> s | Error e -> Alcotest.failf "client: %s" e
