(* rolld — point-in-time read server over a live maintenance service.

     rolld serve --socket rolld.sock --rate 100 --duration 30
     rolld client --socket rolld.sock "READ star FRESH" "STATUS" "SHUTDOWN"

   `serve` runs the star workload under continuous capture + maintenance
   (optionally on a worker-domain pool) and serves the protocol of
   lib/serve/protocol.ml over a Unix socket. `client` scripts a session:
   each positional argument is sent as one request line and the decoded
   response is printed. *)

open Cmdliner
module C = Roll_core
module S = Roll_serve
module W = Roll_workload
module Database = Roll_storage.Database

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let verbose_term =
  let flag =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"enable debug logging")
  in
  Term.(const setup_logs $ flag)

(* --- serve --- *)

let serve_cmd socket rate duration domains budget gc_threshold quiet =
  let domains =
    match domains with Some n -> Some n | None -> C.Service.env_domains ()
  in
  let star = W.Star.create W.Star.default_config in
  W.Star.load_initial star;
  let db = W.Star.db star in
  let service = C.Service.create ?domains db (W.Star.capture star) in
  C.Service.set_gc_threshold service gc_threshold;
  let _ =
    C.Service.register service
      ~algorithm:(C.Controller.Rolling (C.Rolling.per_relation [| 5; 40; 40 |]))
      (W.Star.view star)
  in
  let engine = S.Engine.create db service in
  let started = Unix.gettimeofday () in
  let carried = ref 0.0 in
  let last = ref started in
  let server_ref = ref None in
  (* The tick runs on the engine thread: apply rate-driven updates, drain
     maintenance, then (in Server's loop) pump queued readers. *)
  let tick () =
    let now = Unix.gettimeofday () in
    let due = !carried +. (rate *. (now -. !last)) in
    let txns = int_of_float due in
    carried := due -. float_of_int txns;
    last := now;
    if txns > 0 then
      W.Star.mixed_txns star ~n:(min txns 1000) ~dim_fraction:0.05;
    (match
       C.Service.maintain service ~budget
         ~retry:(Roll_util.Retry.policy ~max_attempts:5 ())
     with
    | Ok _ -> ()
    | Error (e : C.Service.step_error) ->
        Logs.err (fun m ->
            m "permanent step failure: view %s at %s" e.view e.point));
    if duration > 0.0 && now -. started >= duration then
      Option.iter S.Server.request_shutdown !server_ref
  in
  let server = S.Server.start ~tick ~socket engine in
  server_ref := Some server;
  if not quiet then
    Printf.printf "rolld: serving view \"star\" on %s (domains=%d, rate=%g/s)\n%!"
      socket (C.Service.domains service) rate;
  S.Server.wait server;
  C.Service.shutdown service;
  if not quiet then
    Printf.printf "rolld: clean shutdown — served %d reads, rejected %d\n%!"
      (S.Engine.reads_served engine)
      (S.Engine.reads_rejected engine)

let serve_term =
  let socket =
    Arg.(
      value
      & opt string "rolld.sock"
      & info [ "socket"; "s" ] ~docv:"PATH" ~doc:"Unix socket path")
  in
  let rate =
    Arg.(
      value & opt float 100.0
      & info [ "rate"; "r" ] ~doc:"update transactions per second")
  in
  let duration =
    Arg.(
      value & opt float 0.0
      & info [ "duration"; "d" ]
          ~doc:"exit after this many seconds (default: run until SHUTDOWN)")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:"worker-domain pool size (default: ROLL_DOMAINS, else 1)")
  in
  let budget =
    Arg.(
      value & opt int 64
      & info [ "budget"; "b" ] ~doc:"maintenance work items per tick")
  in
  let gc_threshold =
    Arg.(
      value & opt int 20_000
      & info [ "gc-threshold" ]
          ~doc:"applied delta rows per view before gc is offered")
  in
  let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"no banner") in
  Term.(
    const (fun () s r d dm b g q -> serve_cmd s r d dm b g q)
    $ verbose_term $ socket $ rate $ duration $ domains $ budget $ gc_threshold
    $ quiet)

(* --- client --- *)

let client_cmd socket lines =
  let conn = S.Client.connect_retry socket in
  let failures = ref 0 in
  List.iter
    (fun line ->
      match S.Client.request_raw conn line with
      | Ok response -> print_endline (S.Protocol.encode_response response)
      | Error msg ->
          incr failures;
          Printf.eprintf "rolld client: %s: %s\n" line msg)
    lines;
  S.Client.close conn;
  if !failures > 0 then exit 1

let client_term =
  let socket =
    Arg.(
      value
      & opt string "rolld.sock"
      & info [ "socket"; "s" ] ~docv:"PATH" ~doc:"Unix socket path")
  in
  let lines =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:"request lines, e.g. 'READ star AT 12' or 'STATUS'")
  in
  Term.(const (fun () s l -> client_cmd s l) $ verbose_term $ socket $ lines)

let () =
  let info name doc = Cmd.info name ~doc in
  let cmds =
    [
      Cmd.v
        (info "serve"
           "serve point-in-time reads of the star view while capture and \
            maintenance run continuously")
        serve_term;
      Cmd.v
        (info "client" "script a session against a running rolld server")
        client_term;
    ]
  in
  let group =
    Cmd.group
      (Cmd.info "rolld" ~version:"1.0.0"
         ~doc:"point-in-time read server for rolling-IVM views")
      cmds
  in
  exit (Cmd.eval group)
