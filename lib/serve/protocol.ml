(** The rolld wire protocol: newline-framed requests and JSON responses.

    Requests are single lines of uppercase-verb text, chosen so a human
    with [nc] can drive a server:

    {v
    READ <view> AT <t>     point-in-time read at logical time t
    READ <view> FRESH      freshest-available read (the current hwm)
    STATUS                 service-wide status (one JSON object)
    QUIT                   close this connection
    SHUTDOWN               stop the whole server (clean shutdown)
    v}

    Every response is exactly one line of JSON. Successful reads carry
    the snapshot's rows (sorted, with multiset counts), the time served,
    the view's high-water mark at serve time and the seconds the reader
    spent queued. Rejections are typed, so clients can distinguish
    "come back later" ([too_new]) from "gone forever" ([gc_horizon]).

    A STATUS report is [{"ok":true,"kind":"status","report":{...}}] whose
    report carries ["now"], ["domains"], ["pending"], ["served"],
    ["rejected"] and ["views"]. ["served"] and ["rejected"] sum the
    exported [roll_reads_*_total] series: every view's, plus the engine's
    ([scope="engine"]) for reads no view owns (unknown view, shed).
    ["views"] holds one object per view with ["view"],
    ["role"] (["view"], ["aux"] or ["hot"]), ["as_of"], ["hwm"],
    ["staleness"], ["sla"], ["slack"], ["delta_rows"], ["paused"],
    ["partial_lag"], ["heavy_keys"], ["light_rows"] and ["counters"], an
    object of the view's counters keyed by metric name, with the values
    Prometheus exports for the view.

    The codec is total in both directions — [decode_response
    (encode_response r) = Ok r] — so scripts can be written against the
    golden tests rather than the server source. *)

module Time = Roll_delta.Time
module Value = Roll_relation.Value
module Tuple = Roll_relation.Tuple
module Json = Roll_util.Json

type request =
  | Read_at of { view : string; time : Time.t }
  | Read_fresh of string
  | Status
  | Quit
  | Shutdown

type reject =
  | Too_new of { requested : Time.t; now : Time.t }
      (** [t] is beyond current database time: not yet committed, so no
          amount of waiting on this server state can serve it *)
  | Gc_horizon of { requested : Time.t; horizon : Time.t }
      (** [t] predates the view's earliest reconstructible time — the
          applied delta prefix below it was garbage-collected *)
  | Unknown_view of string
  | Overloaded of { pending : int; limit : int }
      (** the admission queue is full; the read was shed *)
  | Malformed of string  (** unparsable request line *)
  | Shutting_down

type response =
  | Rows of {
      view : string;
      at : Time.t;  (** logical time of the served snapshot *)
      hwm : Time.t;  (** the view's high-water mark when served *)
      wait : float;  (** seconds the reader spent queued for freshness *)
      rows : (Tuple.t * int) list;  (** sorted by tuple, multiset counts *)
    }
  | Status_report of Json.t
  | Rejected of reject
  | Bye

(* Request lines *)

let encode_request = function
  | Read_at { view; time } -> Printf.sprintf "READ %s AT %d" view time
  | Read_fresh view -> Printf.sprintf "READ %s FRESH" view
  | Status -> "STATUS"
  | Quit -> "QUIT"
  | Shutdown -> "SHUTDOWN"

let parse_request line =
  let words =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun w -> w <> "")
  in
  match words with
  | [ "STATUS" ] -> Ok Status
  | [ "QUIT" ] -> Ok Quit
  | [ "SHUTDOWN" ] -> Ok Shutdown
  | [ "READ"; view; "FRESH" ] -> Ok (Read_fresh view)
  | [ "READ"; view; "AT"; t ] -> (
      match int_of_string_opt t with
      | Some time -> Ok (Read_at { view; time })
      | None -> Error (Printf.sprintf "READ: %S is not a logical time" t))
  | "READ" :: _ -> Error "usage: READ <view> AT <t> | READ <view> FRESH"
  | verb :: _ -> Error (Printf.sprintf "unknown verb %S" verb)
  | [] -> Error "empty request"

(* Values. Json prints every finite Float with a decimal point, so it
   decodes as Float again; the non-finite ones have no JSON number form
   and travel tagged. *)

let json_of_value = function
  | Value.Null -> Json.Null
  | Value.Bool b -> Json.Bool b
  | Value.Int i -> Json.Int i
  | Value.Float f ->
      if Float.is_finite f then Json.Float f
      else Json.Obj [ ("float", Json.Str (string_of_float f)) ]
  | Value.Str s -> Json.Str s

let value_of_json = function
  | Json.Null -> Ok Value.Null
  | Json.Bool b -> Ok (Value.Bool b)
  | Json.Int i -> Ok (Value.Int i)
  | Json.Float f -> Ok (Value.Float f)
  | Json.Str s -> Ok (Value.Str s)
  | Json.Obj [ ("float", Json.Str s) ] -> (
      match float_of_string_opt s with
      | Some f -> Ok (Value.Float f)
      | None -> Error "bad tagged float")
  | _ -> Error "bad value"

let row_of_json = function
  | Json.List [ Json.Int count; Json.List vs ] ->
      let rec values acc = function
        | [] -> Ok (List.rev acc)
        | v :: rest -> (
            match value_of_json v with
            | Ok value -> values (value :: acc) rest
            | Error _ as e -> e)
      in
      Result.map (fun vs -> (Tuple.make vs, count)) (values [] vs)
  | _ -> Error "bad row"

(* Responses *)

let reject_code = function
  | Too_new _ -> "too_new"
  | Gc_horizon _ -> "gc_horizon"
  | Unknown_view _ -> "unknown_view"
  | Overloaded _ -> "overloaded"
  | Malformed _ -> "malformed"
  | Shutting_down -> "shutting_down"

let reject_message = function
  | Too_new { requested; now } ->
      Printf.sprintf "time %d is beyond current time %d" requested now
  | Gc_horizon { requested; horizon } ->
      Printf.sprintf "time %d predates the gc horizon %d" requested horizon
  | Unknown_view v -> Printf.sprintf "no view named %S is registered" v
  | Overloaded { pending; limit } ->
      Printf.sprintf "%d reads pending (limit %d)" pending limit
  | Malformed m -> m
  | Shutting_down -> "server is shutting down"

let json_of_reject reject =
  let detail =
    match reject with
    | Too_new { requested; now } ->
        [ ("requested", Json.Int requested); ("now", Json.Int now) ]
    | Gc_horizon { requested; horizon } ->
        [ ("requested", Json.Int requested); ("horizon", Json.Int horizon) ]
    | Unknown_view v -> [ ("view", Json.Str v) ]
    | Overloaded { pending; limit } ->
        [ ("pending", Json.Int pending); ("limit", Json.Int limit) ]
    | Malformed m -> [ ("detail", Json.Str m) ]
    | Shutting_down -> []
  in
  Json.Obj
    ([
       ("ok", Json.Bool false);
       ("error", Json.Str (reject_code reject));
       ("message", Json.Str (reject_message reject));
     ]
    @ detail)

(* Rows are most of what a server writes, so they are written straight
   into the buffer, not built as a [Json.t] first: a row is
   [[count,[v1,...]]]. Ints, finite floats and strings go through Json's
   writers; the other values are rare and print their [json_of_value]
   form, so each value has one encoding. *)
let add_value buf = function
  | Value.Int i -> Json.add_int buf i
  | Value.Str s -> Json.add_quoted buf s
  | Value.Float f when Float.is_finite f -> Json.add_float buf f
  | v -> Buffer.add_string buf (Json.to_string (json_of_value v))

let add_row buf (tuple, count) =
  Buffer.add_char buf '[';
  Json.add_int buf count;
  Buffer.add_string buf ",[";
  for i = 0 to Array.length tuple - 1 do
    if i > 0 then Buffer.add_char buf ',';
    add_value buf tuple.(i)
  done;
  Buffer.add_string buf "]]"

let encode_rows ~view ~at ~hwm ~wait rows =
  let row_bytes =
    match rows with [] -> 0 | (tuple, _) :: _ -> 8 + (8 * Array.length tuple)
  in
  let buf =
    Buffer.create (96 + String.length view + (row_bytes * List.length rows))
  in
  Buffer.add_string buf {|{"ok":true,"kind":"rows","view":|};
  Json.add_quoted buf view;
  Buffer.add_string buf {|,"at":|};
  Json.add_int buf at;
  Buffer.add_string buf {|,"hwm":|};
  Json.add_int buf hwm;
  Buffer.add_string buf {|,"wait":|};
  Json.add_float buf wait;
  Buffer.add_string buf {|,"rows":[|};
  List.iteri
    (fun i row ->
      if i > 0 then Buffer.add_char buf ',';
      add_row buf row)
    rows;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let encode_response = function
  | Rows { view; at; hwm; wait; rows } -> encode_rows ~view ~at ~hwm ~wait rows
  | Status_report payload ->
      Json.to_string
        (Json.Obj
           [
             ("ok", Json.Bool true);
             ("kind", Json.Str "status");
             ("report", payload);
           ])
  | Rejected reject -> Json.to_string (json_of_reject reject)
  | Bye ->
      Json.to_string
        (Json.Obj [ ("ok", Json.Bool true); ("kind", Json.Str "bye") ])

let response_of_json json =
  let ( let* ) = Result.bind in
  let field name conv =
    match Option.bind (Json.member name json) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or bad field %S" name)
  in
  match Json.member "ok" json with
  | Some (Json.Bool true) -> (
      let* kind = field "kind" Json.to_str in
      match kind with
      | "bye" -> Ok Bye
      | "status" -> (
          match Json.member "report" json with
          | Some payload -> Ok (Status_report payload)
          | None -> Error "missing field \"report\"")
      | "rows" ->
          let* view = field "view" Json.to_str in
          let* at = field "at" Json.to_int in
          let* hwm = field "hwm" Json.to_int in
          let* wait = field "wait" Json.to_float in
          let* row_list = field "rows" Json.to_list in
          let rec rows acc = function
            | [] -> Ok (List.rev acc)
            | r :: rest ->
                let* row = row_of_json r in
                rows (row :: acc) rest
          in
          let* rows = rows [] row_list in
          Ok (Rows { view; at; hwm; wait; rows })
      | k -> Error (Printf.sprintf "unknown response kind %S" k))
  | Some (Json.Bool false) -> (
      let* code = field "error" Json.to_str in
      let int name = field name Json.to_int in
      let str name = field name Json.to_str in
      let* reject =
        match code with
        | "too_new" ->
            let* requested = int "requested" in
            let* now = int "now" in
            Ok (Too_new { requested; now })
        | "gc_horizon" ->
            let* requested = int "requested" in
            let* horizon = int "horizon" in
            Ok (Gc_horizon { requested; horizon })
        | "unknown_view" ->
            let* view = str "view" in
            Ok (Unknown_view view)
        | "overloaded" ->
            let* pending = int "pending" in
            let* limit = int "limit" in
            Ok (Overloaded { pending; limit })
        | "malformed" ->
            let* detail = str "detail" in
            Ok (Malformed detail)
        | "shutting_down" -> Ok Shutting_down
        | c -> Error (Printf.sprintf "unknown error code %S" c)
      in
      Ok (Rejected reject)
    )
  | _ -> Error "missing field \"ok\""

let decode_response line =
  match Json.of_string_opt line with
  | None -> Error "response is not JSON"
  | Some json -> response_of_json json
