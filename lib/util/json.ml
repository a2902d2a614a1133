(* JSON values: the one codec behind every JSON document the project
   writes — the rolld wire protocol, trace and span exports, status and
   schedule reports, and the benches' BENCH_*.json files — and the reader
   that parses them back (clients, golden tests). Strings are byte
   sequences with the standard two-character escapes; [\uXXXX] escapes
   decode to UTF-8 (BMP only). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let add_quoted buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* [string_of_int] without the string: digits are written from the most
   significant one down by recursion on the non-positive value, which
   also covers [min_int]. *)
let rec add_digits buf n =
  if n <> 0 then begin
    add_digits buf (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (n mod 10)))
  end

let add_int buf i =
  if i = 0 then Buffer.add_char buf '0'
  else if i < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf i
  end
  else add_digits buf (-i)

(* A Float must reparse as Float (never Int) and must not lose bits, so
   it prints with a decimal point at round-trip precision. Non-finite
   floats have no JSON number form; callers that need them encode them
   tagged (see Protocol.json_of_value), so a stray one degrades to null
   rather than invalid JSON. *)
let add_float buf f =
  if Float.is_finite f then begin
    let s = Printf.sprintf "%.15g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    let has_point = String.exists (fun ch -> ch = '.' || ch = 'e' || ch = 'E') s in
    Buffer.add_string buf (if has_point then s else s ^ ".0")
  end
  else Buffer.add_string buf "null"

(* One line: [spaced] puts a space after each ',' and ':' (for files),
   the wire format has none. *)
let rec add_line ~spaced buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> add_float buf f
  | Str s -> add_quoted buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then add_sep ~spaced buf ',';
          add_line ~spaced buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then add_sep ~spaced buf ',';
          add_quoted buf k;
          add_sep ~spaced buf ':';
          add_line ~spaced buf v)
        fields;
      Buffer.add_char buf '}'

and add_sep ~spaced buf c =
  Buffer.add_char buf c;
  if spaced then Buffer.add_char buf ' '

let to_string t =
  let buf = Buffer.create 256 in
  add_line ~spaced:false buf t;
  Buffer.contents buf

(* A value stays on one line unless it holds a list of containers: then
   each of that list's elements, and each member of every object on the
   way down to it, gets a line of its own. *)
let rec flat = function
  | List xs -> List.for_all (function List _ | Obj _ -> false | _ -> true) xs
  | Obj fields -> List.for_all (fun (_, v) -> flat v) fields
  | _ -> true

let pretty t =
  let buf = Buffer.create 1024 in
  let rec go indent v =
    if flat v then add_line ~spaced:true buf v
    else begin
      let inner = indent ^ "  " in
      let items open_ close each xs =
        Buffer.add_string buf open_;
        List.iteri
          (fun i x ->
            Buffer.add_string buf (if i > 0 then ",\n" else "\n");
            Buffer.add_string buf inner;
            each x)
          xs;
        Buffer.add_string buf ("\n" ^ indent ^ close)
      in
      match v with
      | List xs -> items "[" "]" (go inner) xs
      | Obj fields ->
          items "{" "}"
            (fun (k, x) ->
              add_quoted buf k;
              Buffer.add_string buf ": ";
              go inner x)
            fields
      | _ -> assert false
    end
  in
  go "" t;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Int (int_of_float f)
  else Float f

let fixed digits f = Float (float_of_string (Printf.sprintf "%.*f" digits f))

exception Parse_error of string

type cursor = { s : string; mutable pos : int }

let error c msg =
  raise (Parse_error (Printf.sprintf "%s at byte %d" msg c.pos))

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> error c (Printf.sprintf "expected '%c'" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then (
    c.pos <- c.pos + n;
    value)
  else error c (Printf.sprintf "expected %s" word)

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> error c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | Some ('"' as ch) | Some ('\\' as ch) | Some ('/' as ch) ->
            Buffer.add_char buf ch;
            advance c;
            loop ()
        | Some 'n' ->
            Buffer.add_char buf '\n';
            advance c;
            loop ()
        | Some 't' ->
            Buffer.add_char buf '\t';
            advance c;
            loop ()
        | Some 'r' ->
            Buffer.add_char buf '\r';
            advance c;
            loop ()
        | Some 'b' ->
            Buffer.add_char buf '\b';
            advance c;
            loop ()
        | Some 'f' ->
            Buffer.add_char buf '\012';
            advance c;
            loop ()
        | Some 'u' ->
            advance c;
            if c.pos + 4 > String.length c.s then error c "truncated \\u"
            else begin
              let code =
                try int_of_string ("0x" ^ String.sub c.s c.pos 4)
                with _ -> error c "bad \\u escape"
              in
              c.pos <- c.pos + 4;
              (* UTF-8 encode the code point (BMP only, matching the
                 escapes the printer emits for control characters). *)
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char buf
                  (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end;
              loop ()
            end
        | _ -> error c "bad escape")
    | Some ch ->
        Buffer.add_char buf ch;
        advance c;
        loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  let rec loop () =
    match peek c with
    | Some ('0' .. '9' | '-' | '+') ->
        advance c;
        loop ()
    | Some ('.' | 'e' | 'E') ->
        is_float := true;
        advance c;
        loop ()
    | _ -> ()
  in
  loop ();
  let text = String.sub c.s start (c.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> error c "bad number"
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> error c "bad number")

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> error c "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' -> Str (parse_string c)
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then (
        advance c;
        List [])
      else
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              items (v :: acc)
          | Some ']' ->
              advance c;
              List.rev (v :: acc)
          | _ -> error c "expected ',' or ']'"
        in
        List (items [])
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then (
        advance c;
        Obj [])
      else
        let field () =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              fields (kv :: acc)
          | Some '}' ->
              advance c;
              List.rev (kv :: acc)
          | _ -> error c "expected ',' or '}'"
        in
        Obj (fields [])
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> error c (Printf.sprintf "unexpected '%c'" ch)

let of_string s =
  let c = { s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then error c "trailing garbage";
  v

let of_string_opt s = try Some (of_string s) with Parse_error _ -> None

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_list = function List xs -> Some xs | _ -> None
