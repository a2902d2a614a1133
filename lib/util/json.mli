(** JSON values and their codec.

    Every JSON document the project writes is built as a {!t} and printed
    here: the rolld wire protocol, trace and span exports, status and
    schedule reports, and the benches' [BENCH_*.json] files. The reader
    parses them back (clients, golden tests). Strings are byte sequences
    with the standard two-character escapes; [\uXXXX] escapes decode to
    UTF-8 (BMP only). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact, one line, no spaces: the wire format. A [Float] always prints
    with a decimal point at round-trip precision, so it reparses as the
    same [Float]; a non-finite one prints [null]. *)

(** {2 Writers}

    The pieces {!to_string} prints, for encoders that write a large
    document straight into a buffer instead of building its {!t} first:
    they append exactly the bytes {!to_string} prints for the same
    value. *)

val add_int : Buffer.t -> int -> unit
(** [Int i]. Allocates nothing. *)

val add_float : Buffer.t -> float -> unit
(** [Float f]: [null] when [f] is not finite. *)

val add_quoted : Buffer.t -> string -> unit
(** [Str s]: quoted and escaped. *)

val pretty : t -> string
(** Indented, newline-terminated, for files people read. A value stays on
    one line unless it holds a list of objects or lists; such a list gets
    one element per line. Parses to the same value as {!to_string}. *)

val number : float -> t
(** [Int] for an integral float below 1e15 in magnitude, [Float]
    otherwise — for measured values that are usually whole. *)

val fixed : int -> float -> t
(** [fixed d f]: [f] rounded to [d] decimal places, as [printf "%.*f"]
    would print it. *)

exception Parse_error of string

val of_string : string -> t
(** @raise Parse_error on malformed input or trailing garbage. *)

val of_string_opt : string -> t option

val member : string -> t -> t option
(** The value of an object's member; [None] on a missing key or a
    non-object. *)

val to_int : t -> int option

val to_float : t -> float option
(** Accepts [Int] too. *)

val to_str : t -> string option

val to_list : t -> t list option
